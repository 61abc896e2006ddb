"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads search,verify,exact --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

For every workload and metric prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the median
(the spread the bounds in BENCHMARK.json are judged against).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="search,verify,exact")
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            runs.append(result)
        names = list(runs[0]["metrics"])
        report[workload] = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name in names
        }
        for name, s in report[workload].items():
            print(f"{workload:7s} {name:48s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", file=sys.stderr)
    text = json.dumps({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "workloads": report}, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
