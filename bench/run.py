"""triplay benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload cycle_default --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones, and the spans are written
under .bench_work/traces/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triplay" / "__init__.py").is_file():
        print(f"error: no triplay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
    report = workloads.measure(workload, args.seconds, bool(args.trace), WORK_DIR / "traces")
    result = report["result"]
    print(f"workload {report['workload']} seed {args.seed}: {report['iterations']} "
          f"iteration(s), artifact digest {report['digest']}")
    print("run_s per iteration: " + " ".join(f"{t:.4f}" for t in report["run_s"]))
    print(f"fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
