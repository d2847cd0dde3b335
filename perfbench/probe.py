"""Set-up probe, run in a fresh interpreter by run.py.

Measures what a new process pays before its first result: `import arithsim`,
the `reference_table()` check and the workload's first checked op. Prints
one JSON line. Usage: python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (imports nothing arithsim needs)


def main(name: str, seed: int) -> None:
    workload = workloads.WORKLOADS[name]
    a, b = next(workloads.operand_stream(workload, seed))
    t0 = time.perf_counter()
    import arithsim

    t1 = time.perf_counter()
    table = arithsim.reference_table()
    t2 = time.perf_counter()
    workloads.check_reference_table(table)
    workloads.make_op(arithsim, workload)(a, b)
    t3 = time.perf_counter()
    if not os.path.abspath(arithsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"arithsim was imported from {arithsim.__file__}, not {SRC}")
    import json

    print(json.dumps({
        "setup_s": t3 - t0,
        "import_s": t1 - t0,
        "reference_table_us": (t2 - t1) * 1e6,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
