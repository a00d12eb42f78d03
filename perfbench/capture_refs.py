"""Write ``refs.npz``, the reference outputs every benchmark pass is checked against.

    python3 perfbench/capture_refs.py

The committed file was captured at the commit that defined the benchmark.
Running this again replaces the references with whatever the current code
computes, which defeats the check: do it only when a change of output is
intended and reviewed.
"""

import numpy as np

import reference
import workloads


def main() -> None:
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, workloads.CliSweep):
            out = workload.run_pass(workload.build(0))
            assert out.codes == (0, 0), out.codes
            keys, e1, rate = reference.parse_converge(out.converge_csv)
            rows = reference.parse_dump(out.lattice_csv)
            t, x = np.unique(rows[:, 0]), np.unique(rows[:, 1])
            refs.update({
                f"{name}.rows": np.array(keys),
                f"{name}.E1": e1,
                f"{name}.rate": rate,
                f"{name}.t": t,
                f"{name}.x": x,
                f"{name}.u": rows[:, 2].reshape(t.size, x.size),
            })
            continue
        for alpha in workloads.ALPHAS:
            for out in workload.run_pass(workload.inputs_for(alpha)):
                key = reference.solve_key(name, out.scheme, alpha)
                refs[f"{key}.profile"] = out.profile
                refs[f"{key}.E1"] = np.array(out.e1)
                print(f"{key}: E1 {out.e1:.6e}", flush=True)
    np.savez_compressed(reference.REFS_PATH, **refs)
    print(f"wrote {len(refs)} arrays to {reference.REFS_PATH}")


if __name__ == "__main__":
    main()
