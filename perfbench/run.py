"""coordline benchmark entry point.

    python3 perfbench/run.py --workload mc-dsbs --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout. Prints a detail record and, as the
last line, one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Exits 2 without a result when the checkout
has no coordline sources.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# numpy reads these when it is first imported, so they are set before that
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "coordline" / "__init__.py").is_file():
        print(f"no coordline sources under {src}", file=sys.stderr)
        return 2
    os.environ.pop("COORDLINE_CAP", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import coordline
    if Path(coordline.__file__).resolve().parent != (src / "coordline").resolve():
        print(f"coordline was imported from {coordline.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")

    result, detail = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"result": result, "detail": detail}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (bench.OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
