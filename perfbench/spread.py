"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc_flux --seeds 1 2 3 4 5 [--seconds 24]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. Reads nothing but BENCHMARK.json and the runs' output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        record, out = (json.loads(ln) for ln in res.stdout.strip().splitlines()[-2:])
        failed += out["failed"] + (not out["correct"])
        row = {k: v["value"] for k, v in out["metrics"].items()}
        print(json.dumps({"seed": seed, "failed": out["failed"], **row,
                          "passes": record["passes"]}), flush=True)
        for k in values:
            values[k].append(row[k])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{args.workload:9s} {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
              f"spread {(q3 - q1) / med:6.3f}  bound {m['bound']}")
    print(f"{args.workload:9s} failed operations or incorrect runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
