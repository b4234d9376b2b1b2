"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 bench/steady.py --workloads check_family --seeds 1-5
    python3 bench/steady.py --seeds 1-10 --out bench/out/steady-a.json

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for each end-to-end metric its median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound and a third of it.  With
``--against`` an earlier ``--out`` file, it also prints how much worse each
median got since then, as a share of the earlier median, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write every run's result and the summary here as JSON")
    parser.add_argument("--against", help="an earlier --out file whose medians to compare with")
    args = parser.parse_args(argv)
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["summary"]

    runs, summary, steady = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct {result['correct']}",
                      file=sys.stderr)
            runs[workload].append({"seed": seed, **json.loads(lines[-2]), **result})
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            summary.setdefault(workload, {})[metric["name"]] = {"median": median, "spread": spread}
            print(f"{workload:14s} {metric['name']:16s} median {median:12.6f} {metric['unit']:6s}"
                  f" spread {spread:7.4f}  bound {metric['bound']:.3f}  bound/3 {metric['bound'] / 3:.4f}"
                  f"  {'ok' if ok else 'WIDE'}", flush=True)
            if earlier and metric["name"] in earlier.get(workload, {}):
                before = earlier[workload][metric["name"]]["median"]
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (median - before) / before
                ok = worse <= metric["bound"]
                steady &= ok
                print(f"{'':14s} {'':16s} earlier median {before:12.6f}  worse by {worse:7.4f}"
                      f"  bound {metric['bound']:.3f}  {'ok' if ok else 'DRIFT'}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
