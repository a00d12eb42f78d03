"""Reference outputs and the check every pass goes through.

``refs.npz`` holds outputs captured by ``capture_refs.py`` at the commit
that defined the benchmark:

* ``golden-sweep``: the converge CSV's row keys, E1 and rate columns, and
  the t, x and u columns of the lattice dump;
* each single-solve workload, each alpha in ``ALPHAS`` and each scheme:
  the final profile and E1.

A solve fails the check if it raised, wrote nothing, produced a
non-finite number, or differs from its reference by more than the
tolerance that fits how its output is written.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Optional

import numpy as np

import workloads

REFS_PATH = Path(__file__).resolve().parent / "refs.npz"

# Full-precision outputs (profiles, E1), as an absolute bound scaled by the
# profile's max-norm.  Reordered sums move lattice values by about 1e-13;
# a wrong scheme moves them by its discretization error, which is at least
# 1e-9 on every workload here.
SOLVE_TOL = 1e-11
# The converge CSV prints E1 and rate with 6 significant digits, so a
# last-digit rounding flip is a relative change of up to 1e-5.
CSV_RTOL = 2e-5
# The lattice dump prints t, x and u with 10 significant digits.
DUMP_TOL = 2e-9

CSV_KEY_COLUMNS = ("alpha", "scheme", "mesh", "M", "N")


def load_refs(path: Path = REFS_PATH) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def solve_key(workload: str, scheme: str, alpha: float) -> str:
    return f"{workload}.{scheme}.{alpha:g}"


def parse_converge(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Row keys, E1 and rate (NaN where the CSV leaves it empty)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = [",".join(r[c] for c in CSV_KEY_COLUMNS) for r in rows]
    e1 = np.array([float(r["E1"]) for r in rows])
    rate = np.array([float(r["rate"]) if r["rate"] else np.nan for r in rows])
    return keys, e1, rate


def parse_dump(text: str) -> np.ndarray:
    """The (t, x, u) rows of a lattice dump as an array of shape (rows, 3)."""
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def check_solve(refs: dict, workload: str, alpha: float, out) -> Optional[str]:
    """None if one single-solve output matches its reference, else why not."""
    key = solve_key(workload, out.scheme, alpha)
    ref_profile = refs[f"{key}.profile"]
    ref_e1 = float(refs[f"{key}.E1"])
    if not (np.all(np.isfinite(out.profile)) and np.isfinite(out.e1)):
        return f"{key}: non-finite output"
    if out.profile.shape != ref_profile.shape:
        return f"{key}: profile shape {out.profile.shape} != {ref_profile.shape}"
    tol = SOLVE_TOL * max(1.0, float(np.max(np.abs(ref_profile))))
    gap = float(np.max(np.abs(out.profile - ref_profile)))
    if gap > tol:
        return f"{key}: profile differs by {gap:.3e} > {tol:.1e}"
    if abs(out.e1 - ref_e1) > tol:
        return f"{key}: E1 {out.e1:.17g} != reference {ref_e1:.17g}"
    return None


def check_converge(refs: dict, text: Optional[str], code: int) -> tuple[list[str], float]:
    """One message per reference row that is missing or wrong, and the largest E1."""
    ref_keys = [str(k) for k in refs["golden-sweep.rows"]]
    if code != 0 or text is None:
        return [f"converge exited {code} with report {text is not None}"] * len(ref_keys), 0.0
    keys, e1, rate = parse_converge(text)
    if keys != ref_keys:
        return [f"converge rows {keys} != reference {ref_keys}"] * len(ref_keys), 0.0
    problems = []
    for key, new_e1, ref_e1, new_rate, ref_rate in zip(
        keys, e1, refs["golden-sweep.E1"], rate, refs["golden-sweep.rate"]
    ):
        same_rate = (np.isnan(new_rate) and np.isnan(ref_rate)) or (
            abs(new_rate - ref_rate) <= CSV_RTOL * abs(ref_rate)
        )
        if not np.isfinite(new_e1) or np.isinf(new_rate):
            problems.append(f"converge row {key}: non-finite E1 or rate")
        elif not abs(new_e1 - ref_e1) <= CSV_RTOL * abs(ref_e1):
            problems.append(f"converge row {key}: E1 {new_e1:.5e} != {ref_e1:.5e}")
        elif not same_rate:
            problems.append(f"converge row {key}: rate {new_rate:.5e} != {ref_rate:.5e}")
    return problems, float(np.max(e1))


def check_dump(refs: dict, text: Optional[str], code: int) -> Optional[str]:
    if code != 0 or text is None:
        return f"run --dump lattice exited {code}"
    t, x, u = refs["golden-sweep.t"], refs["golden-sweep.x"], refs["golden-sweep.u"]
    try:
        rows = parse_dump(text)
    except ValueError as exc:
        return f"lattice dump does not parse: {exc}"
    if rows.shape != (t.size * x.size, 3):
        return f"lattice dump has shape {rows.shape}, expected {(t.size * x.size, 3)}"
    if not np.all(np.isfinite(rows)):
        return "lattice dump holds non-finite values"
    expected = np.column_stack([np.repeat(t, x.size), np.tile(x, t.size), u.ravel()])
    gap = float(np.max(np.abs(rows - expected)))
    tol = DUMP_TOL * max(1.0, float(np.max(np.abs(expected))))
    if gap > tol:
        return f"lattice dump differs by {gap:.3e} > {tol:.1e}"
    return None


def check_pass(refs: dict, workload, inputs, outputs) -> tuple[list[str], float]:
    """One message per failed solve of a pass (none when all match), and its largest E1."""
    if isinstance(workload, workloads.CliSweep):
        problems, err = check_converge(refs, outputs.converge_csv, outputs.codes[0])
        dump = check_dump(refs, outputs.lattice_csv, outputs.codes[1])
        return problems + ([dump] if dump else []), err
    if [o.scheme for o in outputs] != list(workload.schemes):
        return ["pass returned the wrong solves"] * workload.solves_per_pass, 0.0
    problems = [check_solve(refs, workload.name, inputs.alpha, o) for o in outputs]
    return [m for m in problems if m], max(o.e1 for o in outputs)
