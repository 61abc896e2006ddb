"""One workload run in one process; started by bench/run.py, which sets the
thread variables and PYTHONPATH first.

Prints one JSON object as its last stdout line.  With --setup-only it stops
after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def now() -> float:
    # CLOCK_MONOTONIC is shared by processes, so the launcher's spawn time and
    # this process's clock can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(op, tracer, op_id):
    """(seconds, result, error) of one call; error is None on success."""
    if tracer is not None:
        tracer.begin_op(op_id)
    start = now()
    try:
        result = op.call()
    except Exception:  # a raising operation counts as failed; keep measuring
        return now() - start, None, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.end_op()
    return now() - start, result, None


def _checked(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def measure(workload, seconds: float, trace: bool, tracer_factory=None):
    """Run rounds until `seconds` have passed (at least one round; at least
    one traced and one untraced when tracing).  Returns a dict of raw figures."""
    tracer = tracer_factory() if trace else None
    op_times, round_op_times, round_walls, traced_walls, labels = [], [], [], [], {}
    attempted = failed = 0
    deadline = now() + seconds
    r = 0
    while r < (2 if trace else 1) or now() < deadline:
        traced = trace and r % 2 == 1
        ops = workload.round_ops(r)
        results = []
        if traced:
            tracer.install()
        try:
            round_start = now()
            for op in ops:
                results.append(_run_op(op, tracer if traced else None, attempted + len(results)))
            wall = now() - round_start
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else round_walls).append(wall)
        slot_times = []
        for op, (dt, result, error) in zip(ops, results):
            attempted += 1
            ok = error is None and _checked(op, result)
            if error is not None:
                print(error, file=sys.stderr)
            slot_times.append(dt if ok else None)
            if not ok:
                failed += 1
                print(f"check failed: {op.label} n={op.n} round {r}", file=sys.stderr)
                continue
            if not traced:
                op_times.append(dt)
                labels.setdefault(op.label, []).append(dt)
        if not traced:
            round_op_times.append(slot_times)
        r += 1
    return {
        "tracer": tracer,
        "op_times": op_times,
        "round_op_times": round_op_times,
        "round_walls": round_walls,
        "traced_walls": traced_walls,
        "labels": labels,
        "attempted": attempted,
        "failed": failed,
    }


def fastest_per_slot(round_op_times: list) -> list:
    """Each operation's fastest time over the rounds: position i of a round is
    the same operation (same inputs, or inputs of the same cost) in every
    round.  Positions that failed in every round are left out."""
    slots = []
    for times in zip(*round_op_times):
        ok = [t for t in times if t is not None]
        if ok:
            slots.append(min(ok))
    return slots


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    start = now()
    importlib.import_module("graphonlab.cli")  # numpy and click included
    import_s = now() - start

    import workloads

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    workload.round_ops(0)  # input generation, as every round does before timing
    _, _, error = _run_op(workload.warmup, None, -1)
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    setup_s = now() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import Tracer, layer_metric_names, layer_metrics

    raw = measure(workload, args.seconds, bool(args.trace), Tracer)
    result = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "setup_s": setup_s,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine(),
        "rounds": len(raw["round_walls"]) + len(raw["traced_walls"]),
        "op_samples": len(raw["op_times"]),
        "round_walls_s": raw["round_walls"],
        "op_times_s": raw["op_times"],
        "per_label_ms_p50": {
            label: statistics.median(ts) * 1e3 for label, ts in sorted(raw["labels"].items())
        },
    }
    if not args.trace:
        # On a shared machine other tenants slow a run by up to 2x in windows
        # of seconds, but within most windows some operations still run at
        # full speed.  Each operation's fastest repetition estimates
        # its uncontended time, which varies far less between runs than a
        # median over rounds does.
        slots = fastest_per_slot(raw["round_op_times"])
        result["slot_times_s"] = slots
        result["wall_s"] = sum(slots)
        # failed operations have no latency; with fewer than two left, repeat or zero
        times_ms = [t * 1e3 for t in slots] or [0.0]
        deciles = statistics.quantiles(times_ms * 2 if len(times_ms) < 2 else times_ms, n=10, method="inclusive")
        result["op_ms_p50"], result["op_ms_p90"] = deciles[4], deciles[8]
    else:
        tracer = raw["tracer"]
        layers = layer_metrics(tracer, len(raw["traced_walls"]))
        layers["cli.import_s"] = import_s
        layers["trace.overhead_s"] = (
            statistics.median(raw["traced_walls"]) - statistics.median(raw["round_walls"])
        )
        result["layers"] = {name: {"value": layers[name], "unit": unit} for name, unit in layer_metric_names()}
        if args.spans_out:
            tracer.write_spans(args.spans_out, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
