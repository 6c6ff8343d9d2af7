"""Benchmark entry point.

    python3 perfbench/run.py --workload order-ladder --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the benchmark imports zamen from
``src/`` and writes only under ``perfbench/out/``.  The last line of standard
output is the JSON result; ``perfbench/README.md`` describes the workloads and
metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything imports numpy; the CLI subprocesses
# inherit the same environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("order-ladder", "class-ladder", "compact-studies")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zamen" / "__init__.py").is_file():
        print(f"error: no zamen sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_probe:
        from perfbench import workloads

        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from perfbench import bench

    return bench.main(args.workload, args.seed, args.seconds, args.trace, ROOT)


if __name__ == "__main__":
    sys.exit(main())
