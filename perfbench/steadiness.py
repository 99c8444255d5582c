"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 [--workloads cli,tree-reuse]
                                    [--out perfbench/results/steadiness.json]

Runs each workload ``--runs`` times untraced, with seeds first-seed,
first-seed+1, ..., for the ``run_seconds`` of BENCHMARK.json. For every
end-to-end metric it reports the median and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. A spread above a third of the metric's bound is marked,
except for ``setup_s``, whose spread is not held to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--out", help="write the table as JSON here")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, steady = {}, True
    for name in names:
        values = {m: [] for m in bounds}
        walls = []
        for i in range(args.runs):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.first_seed + i), "--seconds", str(spec["run_seconds"]),
                    "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"{name} seed {args.first_seed + i}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {args.first_seed + i}: outputs failed their checks")
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        rows = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            held = m != "setup_s"
            ok = spread <= bounds[m] / 3 if held else True
            steady &= ok
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m], "within_third_of_bound": ok if held else None,
                       "values": vals}
            print(f"{name:14s} {m:12s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound {bounds[m]}  {'ok' if ok else 'WIDE'}", flush=True)
        table[name] = {"metrics": rows, "run_wall_s": walls,
                       "seeds": [args.first_seed + i for i in range(args.runs)]}
        print(f"{name:14s} run wall median {statistics.median(walls):.1f} s", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": args.runs, "run_seconds": spec["run_seconds"], "workloads": table},
                      fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
