"""Set-up probe: do one workload's set-up in a fresh process, then say so.

Usage: ``python perfbench/probe.py <workload>`` with ``src`` on
``PYTHONPATH``.  Prints ``ready`` once the imports and warm-up a user's
process pays before its first op are done; the parent times the span
from spawn to that line.  ``probe.py environment`` prints the run's
environment record instead (and builds the native kernels if the
checkout has none yet).
"""

import json
import os
import sys


def main(workload: str) -> None:
    if workload == "environment":
        from common import environment_record

        print(json.dumps(environment_record(dict(os.environ))))
        return
    if workload == "cli_cold":
        import repro.cli  # noqa: F401  (what `python -m repro` imports)
    elif workload == "compile":
        from repro.apps import cd_to_dat
        from repro.scheduling.pipeline import implement

        implement(cd_to_dat())  # loads the native kernels
    elif workload == "execute":
        from repro.apps import cd_to_dat
        from repro.codegen.batched_vm import BatchedVM
        from repro.codegen.vm import SharedMemoryVM
        from repro.scheduling.pipeline import implement

        graph = cd_to_dat()
        plain = implement(graph)
        blocked = implement(graph, vectorize=True)
        SharedMemoryVM(graph, plain.lifetimes, plain.allocation).run(2)
        BatchedVM(graph, blocked.lifetimes, blocked.allocation).run(2)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
