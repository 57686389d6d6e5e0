"""pmaxT benchmark driver: end-to-end or traced runs of the workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-exon36k --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn, each in a process
of its own; its last line then sums the counts and keys the metrics
``<workload>/<metric>``.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the set-up is repeated (``setup_s`` is the median), then client threads
send requests in a closed loop for ``--seconds`` seconds.  ``--trace 1``
splits the time in two halves — untraced, then with the layer wrappers of
:mod:`perfbench.tracing` installed — and prints every per-layer metric
plus the tracing overhead (traced minus untraced end-to-end values).  It
also times a one-rank pass of the workload's representative call for
``steal.parallel_efficiency``.

Either way a sample of requests is compared bit for bit against the
serial reference path after the timed phase; a mismatch, exception or
timeout counts as a failed operation.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Lines before it (prefixed ``#``)
give the host record, the same-run calibration and the sample counts.
Each run also leaves a record under ``.perfbench/runs/`` and, when
traced, its spans under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Put the program (``src/``) and this package on ``sys.path``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program is missing: no {src / 'repro'} "
                 "(run from the root of a repository checkout)")
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass
class Outcome:
    index: int
    perms: int
    latency_s: float
    done_at: float
    error: str | None = None
    #: Kept for sampled requests only, to check against the reference.
    request: Any = None
    result: Any = None


@dataclass
class Phase:
    start: float
    outcomes: list = field(default_factory=list)

    @property
    def ok(self) -> list:
        return [o for o in self.outcomes if o.error is None]

    @property
    def next_index(self) -> int:
        return 1 + max(o.index for o in self.outcomes)


def timed_phase(workload, seconds: float, first_index: int = 0) -> Phase:
    """Closed loop: each client sends its next request when one returns."""
    indices = itertools.count(first_index)
    phase = Phase(start=time.perf_counter())
    lock = threading.Lock()
    deadline = phase.start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            request = workload.request(next(indices))
            t0 = time.perf_counter()
            try:
                result, error = request.call(), None
            except Exception:  # a failed request is counted, not fatal
                result, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            outcome = Outcome(request.index, request.perms, t1 - t0, t1, error)
            if request.sample:
                outcome.request, outcome.result = request, result
            with lock:
                phase.outcomes.append(outcome)

    threads = [threading.Thread(target=client, name=f"client-{k}")
               for k in range(workload.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return phase


def end_to_end(phase: Phase) -> dict:
    """Throughput and latency of one phase (set-up and memory excluded)."""
    ok = phase.ok
    elapsed = max(o.done_at for o in phase.outcomes) - phase.start
    latencies_ms = [o.latency_s * 1e3 for o in phase.outcomes]
    return {
        "perms_per_s": sum(o.perms for o in ok) / elapsed,
        "jobs_per_s": len(ok) / elapsed,
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
    }


def verify(phases, same_result) -> tuple[int, int, list[str]]:
    """Check sampled requests against the serial reference path.

    Returns ``(attempted, failed, messages)``: every request of the timed
    phases is attempted; one fails on an exception, a timeout, or a
    sampled result that differs from its reference in any bit.
    """
    references: dict = {}
    attempted = failed = 0
    messages = []
    for phase in phases:
        for o in phase.outcomes:
            attempted += 1
            if o.error is not None:
                failed += 1
                messages.append(f"request {o.index} raised:\n{o.error}")
                continue
            req = o.request
            if req is None:
                continue
            try:
                if req.key not in references:
                    references[req.key] = req.reference()
                good = same_result(o.result, references[req.key])
            except Exception:  # a broken reference fails the request
                good = False
                messages.append(f"request {req.index}: reference raised:\n"
                                + traceback.format_exc(limit=3))
            if not good:
                failed += 1
                messages.append(f"request {req.index} differs from its "
                                "serial reference")
    return attempted, failed, messages


def parallel_efficiency(workload, repeats: int = 2) -> float:
    """One-rank time over 2 x the two-rank time of the same call (best of)."""
    two_rank, one_rank = workload.representative()

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t2 = best(two_rank)
    t1 = best(one_rank)
    return t1 / (2 * t2)


def layer_counters(before: dict, after: dict) -> dict:
    """Per-layer counter metrics from two workload snapshots."""
    d = {k: after[k] - before[k] for k in after}
    total = d["cache_hits"] + d["cache_misses"] + d["cache_extended"]
    counters = {
        "steal.blocks_stolen_per_job":
            d["blocks_stolen"] / d["steal_jobs"] if d["steal_jobs"] else 0.0,
        "mpi.bcast_bytes_per_job":
            d["bcast_array_bytes"] / d["jobs_run"] if d["jobs_run"] else 0.0,
        "session.spawns": after["spawns"],
        "session.rank_respawns": after["rank_respawns"],
        "cache.hits": d["cache_hits"],
        "cache.misses": d["cache_misses"],
        "cache.extended": d["cache_extended"],
        "cache.hit_ratio": d["cache_hits"] / total if total else 0.0,
    }
    for key in ("cache_answers", "jobs_rerouted", "jobs_failed"):
        if key in d:
            counters[f"serve.{key}"] = d[key]
    return counters


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale=None, workdir: Path | None = None, workload_hook=None) -> dict:
    """Run one workload; return the result object (and print nothing).

    ``workload_hook(workload)`` is called after the inputs are made (the
    benchmark's tests use it to plant a wrong reference).
    """
    from perfbench import host, layers, tracing
    from perfbench.workloads import WORKLOADS, Scale, same_result

    scale = scale if scale is not None else Scale()
    base = workdir if workdir is not None else ROOT / ".perfbench"
    work = base / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    notes: dict = {"host": host.host_record()}
    workload = WORKLOADS[workload_name](seed, scale, work)
    if workload_hook is not None:
        workload_hook(workload)
    try:
        setup_times = []
        for k in range(scale.setups):
            t0 = time.perf_counter()
            workload.open()
            setup_times.append(time.perf_counter() - t0)
            if k < scale.setups - 1:
                workload.close()
        if not trace:
            phase = timed_phase(workload, seconds)
            rss = host.vm_hwm_mib([os.getpid(), *workload.pids()])
            metrics = dict(end_to_end(phase),
                           setup_s=statistics.median(setup_times),
                           peak_rss_mb=rss)
            phases = [phase]
        else:
            untraced = timed_phase(workload, seconds / 2)
            efficiency = parallel_efficiency(workload)
            before = workload.snapshot()
            workload.job_counters()  # drop the untraced phase's jobs
            tracer = tracing.Tracer()
            with tracer:
                traced = timed_phase(workload, seconds / 2,
                                     first_index=untraced.next_index)
            counters = layer_counters(before, workload.snapshot())
            counters.update(workload.job_counters())
            counters["steal.parallel_efficiency"] = efficiency
            plain, timed = end_to_end(untraced), end_to_end(traced)
            for key in ("perms_per_s", "jobs_per_s", "latency_p50_ms",
                        "latency_p95_ms"):
                counters[f"trace.{key}_delta"] = timed[key] - plain[key]
            counters["trace.overhead_pct"] = 100.0 * (
                timed["latency_p50_ms"] - plain["latency_p50_ms"]
            ) / plain["latency_p50_ms"]
            metrics = tracing.layer_metrics(tracer.spans, counters)
            traces = base / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{workload_name}-seed{seed}.jsonl")
            phases = [untraced, traced]
        notes["host"]["blas_threads_per_rank"] = workload.sessions()[0].run(
            host.rank_blas_threads, worker_fn=host.rank_blas_threads)
        notes["requests"] = [len(p.outcomes) for p in phases]
        notes["setup_s_samples"] = setup_times
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, messages = verify(phases, same_result)
    notes["sampled"] = sum(o.request is not None for p in phases
                           for o in p.outcomes)
    notes["failures"] = messages
    wanted = layers.PER_LAYER if trace else layers.END_TO_END
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                        for m in wanted},
        },
        "notes": notes,
    }


def _stop_helpers() -> None:
    """Stop multiprocessing's resource tracker and reap every child."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    from perfbench.host import child_pids

    for pid in child_pids():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def report(workload: str, seed: int, trace: int, out: dict) -> None:
    """Print one run's notes and metrics (``#`` lines); keep its record."""
    notes, result = out["notes"], out["result"]
    for message in notes["failures"]:
        print(message, file=sys.stderr)
    print("# host " + json.dumps(notes["host"], sort_keys=True))
    print(f"# {workload} seed={seed} trace={trace}: "
          f"requests per phase {notes['requests']}, "
          f"{notes['sampled']} checked against the serial reference, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"set-ups (s) {[round(t, 4) for t in notes['setup_s_samples']]}")
    for name, metric in result["metrics"].items():
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}")
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = runs / f"{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(out, indent=1, default=str))


def run_all(names, args) -> dict:
    """Each workload in its own process (as a single run); combined result."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    _bootstrap()
    from perfbench.layers import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        final = run_all(WORKLOADS, args)
    else:
        try:
            out = run(args.workload, args.seed, args.seconds, bool(args.trace))
        finally:
            _stop_helpers()
        report(args.workload, args.seed, args.trace, out)
        final = out["result"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
