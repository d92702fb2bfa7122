#!/usr/bin/env python3
"""Four-workload benchmark of the repro library (rationale: README.md).

Run every workload, each in a fresh process, and print each end-to-end
metric with its unit (exits non-zero when an output check fails)::

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Run one workload in this process; the last line of standard output is
the JSON result::

    python3 perfbench/run.py --workload pipeline --seed 2011 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
traced and untraced rounds, reports the per-layer metrics and writes
the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# One-thread BLAS/OpenMP pools; must be set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3



def _time(span):
    return ("total", span)


def _self(span):
    return ("self_time", span)


def _spans(span):
    return ("count", span)


def _pct(span, q):
    return ("pct", span, q)


#: How each per-layer metric is read from the traced rounds. Metrics not
#: listed here are counters the workload reads from the program's result
#: objects (``RoundResult.counts``). Every metric is reported on every
#: workload, 0 where its layer does not run. Times are seconds per round
#: of the timed phase, or per set-up for layers that only run in set-up;
#: counts are per round.
FROM_SPANS = {
    "synth.world_s": _time("synth.world"),
    "synth.stream_s": _time("synth.stream"),
    "crawler.run_s": _time("crawler.run"),
    "crawler.self_s": _self("crawler.run"),
    "api.service_s": _time("api.service"),
    "api.transport.calls": _spans("api.transport"),
    "api.transport.rtt_p50_ms": _pct("api.transport", 50),
    "api.transport.rtt_p95_ms": _pct("api.transport", 95),
    "api.transport.wait_s": _self("api.transport"),
    "datamodel.filter_s": _time("datamodel.filter"),
    "engine.build_s": _time("engine.build"),
    "reconstruct.table_s": _time("reconstruct.table"),
    "analysis.paper_s": _time("analysis.paper"),
    "engine.incremental.apply_s": _time("engine.incremental.apply"),
    "engine.incremental.apply_p95_ms": _pct("engine.incremental.apply", 95),
    "engine.incremental.flush_s": _time("engine.incremental.flush"),
    "analysis.trending.update_s": _time("analysis.trending.update"),
    "analysis.trending.update_p95_ms": _pct("analysis.trending.update", 95),
    "analysis.trending.query_s": _time("analysis.trending.query"),
    "analysis.trending.queries": _spans("analysis.trending.query"),
    "serving.planner.plan_s": _time("serving.planner.plan"),
    "serving.planner.plans": _spans("serving.planner.plan"),
    "serving.warm_s": _time("serving.warm"),
    "serving.serve_s": _time("serving.serve"),
    "serving.self_s": _self("serving.serve"),
    "placement.workload.trace_s": _time("placement.workload.trace"),
}

#: Computed from the whole traced run rather than from one layer.
TRACE_METRICS = ("trace.overhead", "trace.coverage", "trace.spans")


class Round(NamedTuple):
    seconds: float
    traced: bool
    result: object  # workloads.RoundResult
    spans: object  # tracing.SpanSummary of a traced round, else None
    peak_rss_mb: float


def load_spec() -> dict:
    """Workload and metric names with their units: ``BENCHMARK.json``
    at the repository root is the single list of them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _import_program():
    """Import the program from this checkout's ``src`` (never from an
    installed copy) plus this directory's modules, before any clock."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"program sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not {src}")
    import tracing
    import workloads

    return tracing, workloads


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool
) -> dict:
    tracing, workloads = _import_program()
    workload = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer() if trace else None
    spans_out = []
    clock = time.perf_counter

    setup_seconds, setup_summaries = [], []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            workload.close(state)
            state = None
        started = clock()
        state = workload.setup(seed, tracer or tracing.NULL)
        setup_seconds.append(clock() - started)
        if tracer is not None:
            spans = tracer.take()
            spans_out.extend(spans)
            setup_summaries.append(tracing.SpanSummary(spans))

    checks = {}
    attempted = failed = 0
    rounds = []
    try:
        # An untimed first round lets lazy set-up inside the program
        # finish and fixes the references later rounds must repeat.
        warm = workload.run_round(state, tracing.NULL)
        for label, ok in workload.check(state, warm).items():
            checks.setdefault(label, []).append(ok)

        timed = 0.0
        min_rounds = 2 if tracer is not None else 1
        while timed < seconds or len(rounds) < min_rounds:
            traced = tracer is not None and len(rounds) % 2 == 1
            started = clock()
            result = workload.run_round(
                state, tracer if traced else tracing.NULL
            )
            elapsed = clock() - started
            timed += elapsed
            summary = None
            if traced:
                spans = tracer.take()
                spans_out.extend(spans)
                summary = tracing.SpanSummary(spans)
            rss = peak_rss_mb()
            for label, ok in workload.check(state, result).items():
                checks.setdefault(label, []).append(ok)
            attempted += result.ops
            failed += result.op_failures
            rounds.append(Round(elapsed, traced, result, summary, rss))
    finally:
        workload.close(state)

    attempted += sum(len(oks) for oks in checks.values())
    failed += sum(oks.count(False) for oks in checks.values())
    failed_checks = sorted(
        label for label, oks in checks.items() if not all(oks)
    )
    for label in failed_checks:
        print(f"check failed: {label}", file=sys.stderr)

    if tracer is None:
        metrics = _end_to_end(setup_seconds, rounds)
    else:
        metrics = _per_layer(spec, setup_summaries, rounds)
        OUT_DIR.mkdir(exist_ok=True)
        tracing.Tracer.dump(OUT_DIR / f"spans-{name}-{seed}.jsonl", spans_out)
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def _end_to_end(setup_seconds, rounds) -> dict:
    latencies = []
    for r in rounds:
        latencies.extend(
            r.result.latencies_s if r.result.latencies_s is not None
            else [r.seconds]
        )
    return {
        "setup_s": statistics.median(setup_seconds),
        "items_per_s": sum(r.result.items for r in rounds)
        / sum(r.seconds for r in rounds),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
        "batch_p95_ms": percentile(latencies, 95) * 1e3,
    }


def _per_layer(spec, setup_summaries, rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    summaries = [r.spans for r in traced]

    def per_round(field, span):
        if any(span in getattr(s, field) for s in summaries):
            return statistics.mean(getattr(s, field)[span] for s in summaries)
        if any(span in getattr(s, field) for s in setup_summaries):
            return statistics.median(
                getattr(s, field)[span] for s in setup_summaries
            )
        return 0.0

    def pooled_ms(span, q):
        durations = [d for s in summaries for d in s.durations.get(span, ())]
        if not durations:
            for s in setup_summaries:
                durations.extend(s.durations.get(span, ()))
        return percentile(durations, q) * 1e3 if durations else 0.0

    metrics = {}
    for entry in spec["per_layer"]:
        metric = entry["name"]
        if metric in TRACE_METRICS:
            continue
        how = FROM_SPANS.get(metric)
        if how is None:
            metrics[metric] = statistics.mean(
                r.result.counts.get(metric, 0) for r in traced
            )
        elif how[0] == "pct":
            metrics[metric] = pooled_ms(how[1], how[2])
        else:
            metrics[metric] = per_round(*how)
    traced_s = [r.seconds for r in traced]
    metrics["trace.overhead"] = (
        statistics.median(traced_s)
        / statistics.median(r.seconds for r in untraced) - 1.0
    )
    metrics["trace.coverage"] = sum(s.top_level for s in summaries) / sum(
        traced_s
    )
    metrics["trace.spans"] = statistics.mean(
        sum(s.count.values()) for s in summaries
    )
    return metrics


def run_all(workload_names, seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; a table of every metric."""
    status = 0
    for name in workload_names:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exited with {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "CHECK FAILED"
        print(
            f"{name}: {verdict}; {result['failed']} of "
            f"{result['attempted']} operations failed"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    spec = load_spec()
    workload_names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(workload_names, args.seed, args.seconds, args.trace)
    result = run_workload(
        spec, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
