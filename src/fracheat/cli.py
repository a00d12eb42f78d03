"""Command line front end.

Two subcommands: ``run`` solves a single problem instance and writes the
solution, ``converge`` runs a refinement ladder and writes the error
report.  Each computes its results before it renders any text, then hands
``_emit`` the report as chunks: the converge report in one, a run dump as
its header and then one chunk per block of time levels.  ``_emit`` writes
them as they come to stdout or to the ``--output`` file.  Usage problems
exit with status 2, runtime failures (an unwritable ``--output`` too) with
1, and so does a stdout whose reader has gone, but silently.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .harness import _LEVEL_NORMS, SweepConfig, parse_mesh_kind, run_sweep
from .meshes import SpatialGrid, graded_time_mesh
from .problems import available_problems, get_problem
from .solver import SchemeKind, solve


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}") from None
    if len(set(alphas)) != len(alphas):
        raise argparse.ArgumentTypeError(f"repeated alpha in {text!r}")
    return alphas


def _parse_ladder(text: str) -> tuple[int, ...]:
    """Step counts: '64', '10,20,80', or a doubling ladder '10:640:x2'."""
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            if step_s != "x2":
                raise ValueError
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError
            ladder = [lo]
            while ladder[-1] < hi:
                ladder.append(2 * ladder[-1])
            if ladder[-1] != hi:
                raise ValueError
            return tuple(ladder)
        counts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad time-step list {text!r} (use N, N1,N2,..., or a:b:x2 with b = a*2^k)"
        ) from None
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"time-step counts must be >= 1, got {text!r}")
    return counts


def _mesh_kind(text: str) -> str:
    try:
        parse_mesh_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_parse_alphas, required=True,
                   help="fractional order(s), comma separated, each in (0, 1)")
    p.add_argument("--spatial-cells", type=int, default=100, metavar="M",
                   help="number of spatial cells (default 100)")
    p.add_argument("--time-steps", type=_parse_ladder, required=True, metavar="N",
                   help="time step count, list, or doubling ladder a:b:x2")
    p.add_argument("--final-time", type=float, default=1.0, metavar="T")
    p.add_argument("--scheme", choices=[s.value for s in SchemeKind],
                   default=SchemeKind.TRANSFORMED.value)
    p.add_argument("--mesh", type=_mesh_kind, default="uniform",
                   help="time mesh of either scheme: 'uniform', or 'graded:<r>' for "
                   "t_n = T (n/N)**r with r >= 1")
    p.add_argument("--problem", choices=available_problems(), default="manufactured-sin")
    p.add_argument("--format", choices=["csv", "table"], default="csv")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Finite difference solvers for 1-D time-fractional diffusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="solve one instance and dump the solution")
    _add_common(run_p)
    run_p.add_argument("--dump", choices=["profile", "lattice"], default="profile",
                       help="final-time profile or the whole space-time lattice")
    conv_p = sub.add_parser("converge", help="run a refinement ladder and report errors")
    _add_common(conv_p)
    conv_p.add_argument("--norm", choices=list(_LEVEL_NORMS), default="max",
                        help="error norm for the report")
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for alpha in args.alpha:
        if not 0.0 < alpha < 1.0:
            parser.error(f"alpha must lie in (0, 1), got {alpha:g}")
    if args.spatial_cells < 2:
        parser.error(f"need at least 2 spatial cells, got {args.spatial_cells}")
    if not 0.0 < args.final_time < math.inf:
        parser.error(f"final time must be positive and finite, got {args.final_time:g}")
    if args.command == "run":
        if len(args.alpha) != 1:
            parser.error("run takes a single alpha")
        if len(args.time_steps) != 1:
            parser.error("run takes a single time step count")


def _emit(chunks: Iterable[str], path: Optional[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


# Per report format: the column separator and each column's format spec.
# A header cell is aligned like its column, by the spec up to the precision.
_DUMP_FORMATS = {
    "csv": (",", {"t": ".10g", "x": ".10g", "u": ".10g"}),
    "table": ("  ", {"t": ">12.6f", "x": ">12.6f", "u": ">14.6e"}),
}

# About this many u values are rendered together, in one block of levels.
_BLOCK_VALUES = 4096


def _cells(texts: list[str]) -> np.ndarray:
    """The texts as the rows of a uint32 array, NUL padded to whole words."""
    width = -(-max(map(len, texts), default=0) // 4) * 4
    joined = "".join(s.ljust(width, "\0") for s in texts).encode("ascii")
    return np.frombuffer(joined, np.uint32).reshape(len(texts), width // 4)


def _dump_run(args: argparse.Namespace) -> Iterator[str]:
    """Solve, then return the chunks of the final-time profile (x, u) or of
    the lattice (t, x, u), one node a line."""
    problem = get_problem(args.problem, args.alpha[0])
    grid = SpatialGrid(args.spatial_cells)
    mesh = graded_time_mesh(args.final_time, args.time_steps[0], parse_mesh_kind(args.mesh))
    lattice = solve(problem, grid, mesh, SchemeKind(args.scheme))
    x = grid.x.tolist()
    if args.dump == "profile":
        return _dump_chunks(x, None, lattice.values[-1:], args.format)
    return _dump_chunks(x, mesh.t.tolist(), lattice.values, args.format)


def _dump_chunks(x: list[float], t: Optional[list[float]], values: np.ndarray,
                 fmt: str) -> Iterator[str]:
    """The header line, then the text of a block of levels (rows of
    ``values``, at times ``t``, or with no t column for None) at a time.

    A block's lines are the rows of one array of words: the level's t text
    and the node's x text, each formatted once, then the node's u text from
    ``_render.render``, ended by a newline in its last byte.  The NUL bytes
    padding them are dropped last.
    """
    # Loaded here, so that the commands that write no dump do not pay for it.
    from ._render import render

    sep, spec = _DUMP_FORMATS[fmt]
    columns = ("x", "u") if t is None else ("t", "x", "u")
    yield sep.join(format(c, spec[c].split(".")[0]) for c in columns) + "\n"
    x_cells = _cells([format(xi, spec["x"]) + sep for xi in x])
    step = max(1, _BLOCK_VALUES // len(x))
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        if t is None:
            t_cells = _cells([""] * len(block))
        else:
            t_cells = _cells([format(ti, spec["t"]) + sep for ti in t[lo:lo + step]])
        t_end = t_cells.shape[1]
        lead = t_end + x_cells.shape[1]
        words = render(block.ravel(), spec["u"], lead)
        lines = words.reshape(block.shape + (-1,))
        lines[..., :t_end] = t_cells[:, None]
        lines[..., t_end:lead] = x_cells
        text = words.view(np.uint8)
        text[:, -1] = 10
        yield text.tobytes().translate(None, b"\0").decode("ascii")


def _converge_report(args: argparse.Namespace) -> list[str]:
    config = SweepConfig(
        alphas=args.alpha,
        M=args.spatial_cells,
        Ns=args.time_steps,
        T=args.final_time,
        scheme=SchemeKind(args.scheme),
        mesh_kind=args.mesh,
        problem_label=args.problem,
        norm=args.norm,
    )
    report = run_sweep(config)
    return [report.to_csv() if args.format == "csv" else report.to_text()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        chunks = _dump_run(args) if args.command == "run" else _converge_report(args)
        _emit(chunks, args.output)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # The reader of stdout has gone (``| head``).  Point stdout at
            # os.devnull, so that what is still buffered goes nowhere at
            # exit instead of failing again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        else:
            print(f"fracheat: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
