"""dcaec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stream_paper --seed 1 --seconds 15 --trace 0

Run from the root of a dcaec checkout; the benchmark imports the program from
its `src/`.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it give every figure with its sample count, the environment and
each correctness check.  Full reports and spans go to .perfbench_out/.
Exit status: 0 when every check passes, 1 when one fails, 2 when the
program or BENCHMARK.json cannot be found.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline_paper", "stream_paper", "train_desk")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of each timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="desk config and tiny inputs (smoke test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # BLAS reads these once, when numpy loads it; the report reads the
    # applied limit back from the library
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "dcaec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no dcaec sources under {src} or no {spec_path.name}; "
              "run from a dcaec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dcaec
    if Path(dcaec.__file__).resolve().parent != (src / "dcaec").resolve():
        print(f"error: imported dcaec from {dcaec.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    import workloads

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    scale = workloads.TINY if args.tiny else workloads.FULL
    out_dir = ROOT / ".perfbench_out"
    report = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), scale, out_dir)
    harness.print_report(report)
    result = harness.result_line(report, declared)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
