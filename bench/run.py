"""graphonlab benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {search,verify,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
Each run starts fresh worker processes, one at a time, with every BLAS and
OpenMP thread variable set to 1: SETUP_PROBES processes that only set up (to
time set-up several times), the measuring one, then SETUP_PROBES more.  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Results, the machine description and (traced) spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("search", "verify", "exact")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args, env, extra, timeout) -> dict:
    """Start one worker, wait for it, and return its last stdout line as JSON."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ] + (["--tiny"] if args.tiny else []) + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, setups: list) -> dict:
    attempted = main["attempted"]
    return {
        "wall_s": {"value": main["wall_s"], "unit": "s"},
        "op_ms_p50": {"value": main["op_ms_p50"], "unit": "ms"},
        "op_ms_p90": {"value": main["op_ms_p90"], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "ok_frac": {"value": (attempted - main["failed"]) / attempted, "unit": "ratio"},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphonlab", "__init__.py")):
        print(f"no graphonlab source tree under {ROOT}/src", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = worker_env()
    setups = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(args, env, ["--setup-only"], RUN_LIMIT_S - (time.monotonic() - began))["setup_s"])

    # probes on both sides of the measuring run, so the median of set-up times
    # does not rest on one moment of a shared machine
    probe_setup()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans-out", os.path.join(OUT, f"spans-{tag}.csv")] if args.trace else []
    main_run = run_worker(args, env, extra, RUN_LIMIT_S - (time.monotonic() - began))
    setups.append(main_run["setup_s"])
    probe_setup()

    metrics = main_run["layers"] if args.trace else end_to_end(main_run, setups)
    summary = {
        "correct": main_run["failed"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    details = {k: v for k, v in main_run.items() if k != "layers"}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "threads": {var: "1" for var in THREAD_VARS},
              "setup_samples_s": setups, "run": details, **summary}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: details[k] for k in ("rounds", "op_samples", "per_label_ms_p50")}), file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
