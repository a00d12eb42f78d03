"""Fresh-interpreter probe run by ``run.py``.

    python3 perfbench/probe.py WORKLOAD SEED [--pass]

Times ``import fracheat`` plus building the workload's inputs, the set-up a
CLI user pays on every run.  With ``--pass`` it then runs one pass and
reports the process's peak resident set size, the memory a user of the
CLI sees.  Prints one JSON line.
"""

from time import perf_counter

start = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workload.build(int(sys.argv[2]))
result = {"setup_s": perf_counter() - start}

if "--pass" in sys.argv[3:]:
    workload.run_pass(inputs)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

print(json.dumps(result))
