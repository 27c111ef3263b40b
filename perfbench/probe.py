"""Set-up probe: import classgraph, run one warm-up item of a workload, exit.

``run.py`` runs this script in fresh interpreters for ``setup_s``:

    python3 perfbench/probe.py realize

It prints one JSON line: ``cpu_s``, the process's CPU time for interpreter
start, the import and the warm-up, and ``ref_s``, the reference loop's
time read in this same process before and after that work.
"""

import json
import sys
import time

from clock import read_reference

if __name__ == "__main__":
    started = time.process_time()
    before = read_reference(5)
    t0 = time.process_time()
    import program

    workload = program.load(sys.argv[1])
    workload.run(workload.warmup_item())
    work = time.process_time() - t0
    after = read_reference(5)
    print(json.dumps({"cpu_s": started + work, "ref_s": (before + after) / 2}))
