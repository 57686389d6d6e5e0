"""Metric catalogue: every metric the benchmark prints, and what it moves.

``END_TO_END`` are the user-visible metrics of an untraced run; every
workload prints all of them.  ``PER_LAYER`` are the numbers a traced run
derives from the span wrappers (see :mod:`perfbench.tracing`); each entry
names the program module it measures, the end-to-end metric it should
move and the workload on which that movement shows.  A per-layer metric
whose layer is idle on a workload prints 0 there (nothing was done).

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
checks that the two agree.

Modules left out: ``repro.cluster`` and ``repro.bench`` are the
paper-table simulator and regenerator, not the runtime; ``repro.cli`` and
``repro.sprint`` are thin wrappers over ``pmaxT``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("bulk-exon36k", "service-small", "reanalysis-6k")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Program module the metric measures (per-layer metrics only).
    layer: str = ""
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple = ()
    definition: str = ""


def _m(name, unit, better, definition, layer="", moves=()):
    return Metric(name, unit, better, layer, tuple(moves), definition)


BULK, SERVICE, REANALYSIS = WORKLOADS
P50, P95 = "latency_p50_ms", "latency_p95_ms"

END_TO_END = (
    _m("setup_s", "s", "lower",
       "median over the run's set-ups of: open the session or PoolManager, "
       "publish the datasets, finish the warm-up call"),
    _m("perms_per_s", "perm/s", "higher",
       "permutations computed per wall-second of the timed phase (cache "
       "hits count 0, an extension counts B_new - B_old)"),
    _m("jobs_per_s", "job/s", "higher",
       "requests completed per wall-second of the timed phase"),
    _m(P50, "ms", "lower", "median request latency, call to result"),
    _m(P95, "ms", "lower", "95th-percentile request latency"),
    _m("peak_rss_mb", "MiB", "lower",
       "VmHWM summed over the benchmark process and the session workers"),
)

PER_LAYER = (
    # -- repro.core.pmaxt: the paper's five sections, per pmaxT call ------
    _m("pmaxt.pre_processing_ms", "ms", "lower",
       "result.profile pre_processing, mean per call", "pmaxt",
       [(P50, SERVICE)]),
    _m("pmaxt.broadcast_parameters_ms", "ms", "lower",
       "result.profile broadcast_parameters, mean per call", "pmaxt",
       [(P50, SERVICE)]),
    _m("pmaxt.create_data_ms", "ms", "lower",
       "result.profile create_data, mean per call", "pmaxt",
       [(P50, SERVICE)]),
    _m("pmaxt.main_kernel_ms", "ms", "lower",
       "result.profile main_kernel, mean per call", "pmaxt",
       [("perms_per_s", BULK)]),
    _m("pmaxt.compute_pvalues_ms", "ms", "lower",
       "result.profile compute_pvalues, mean per call", "pmaxt",
       [(P50, SERVICE)]),
    _m("pmaxt.outside_sections_ms", "ms", "lower",
       "call wall time minus the five sections, mean per call", "pmaxt",
       [(P50, SERVICE), (P50, REANALYSIS)]),
    _m("pmaxt.observed_ms", "ms", "lower",
       "build_statistic + compute_observed on rank 0, mean per call",
       "pmaxt", [(P50, SERVICE)]),
    _m("pmaxt.main_kernel_unaccounted_ms", "ms", "lower",
       "main_kernel minus observed, rank-0 run_kernel and steal master "
       "overhead, mean per call (the accounting check)", "pmaxt"),
    # -- repro.core.kernel ------------------------------------------------
    _m("kernel.us_per_perm", "us/perm", "lower",
       "run_kernel time per permutation on rank 0", "kernel",
       [("perms_per_s", BULK)]),
    _m("kernel.self_us_per_perm", "us/perm", "lower",
       "run_kernel minus its wrapped children, per permutation", "kernel",
       [("perms_per_s", BULK)]),
    _m("kernel.workspace_bytes", "bytes", "lower",
       "largest KernelWorkspace.nbytes() a rank-0 run_kernel used",
       "kernel", [("peak_rss_mb", BULK)]),
    # -- repro.stats --------------------------------------------------------
    _m("stats.batch_us_per_perm", "us/perm", "lower",
       "TestStatistic.batch inside run_kernel, per permutation", "stats",
       [("perms_per_s", BULK)]),
    _m("stats.batch_share", "share", "lower",
       "TestStatistic.batch time over run_kernel time", "stats",
       [("perms_per_s", BULK)]),
    # -- repro.permute / repro.accel -----------------------------------------
    _m("permute.take_batch_us_per_perm", "us/perm", "lower",
       "PermutationGenerator.take_batch inside run_kernel, per permutation",
       "permute", [("perms_per_s", BULK)]),
    _m("accel.fill_encodings_us_per_perm", "us/perm", "lower",
       "NumpyEngine.fill_encodings inside run_kernel, per permutation",
       "accel", [("perms_per_s", BULK)]),
    # -- repro.core.adjust ----------------------------------------------------
    _m("adjust.side_adjust_us_per_perm", "us/perm", "lower",
       "side_adjust inside run_kernel, per permutation", "adjust",
       [("perms_per_s", BULK)]),
    _m("adjust.successive_maxima_us_per_perm", "us/perm", "lower",
       "successive_maxima inside run_kernel, per permutation", "adjust",
       [("perms_per_s", BULK)]),
    # -- repro.core.steal -------------------------------------------------------
    _m("steal.blocks_stolen_per_job", "count", "lower",
       "session.stats() blocks_stolen delta over steal_jobs delta", "steal",
       [("perms_per_s", BULK)]),
    _m("steal.master_overhead_ms", "ms", "lower",
       "run_steal_master span minus its run_kernel spans, mean per steal job",
       "steal", [("perms_per_s", BULK), (P50, SERVICE)]),
    _m("steal.parallel_efficiency", "ratio", "higher",
       "one-rank time over 2 x two-rank time of the workload's "
       "representative call", "steal", [("perms_per_s", BULK)]),
    # -- repro.mpi / repro.mpi.datasets / repro.mpi.session --------------------
    _m("mpi.bcast_bytes_per_job", "bytes", "lower",
       "session.stats() bcast_array_bytes delta per session job", "mpi",
       [("setup_s", SERVICE), (P95, SERVICE)]),
    _m("datasets.publish_ms", "ms", "lower",
       "DatasetRegistry.publish, mean per call", "datasets",
       [("setup_s", SERVICE), (P95, SERVICE)]),
    _m("datasets.publishes", "count", "lower",
       "DatasetRegistry.publish calls in the traced phase", "datasets",
       [("setup_s", SERVICE), (P95, SERVICE)]),
    _m("session.spawns", "count", "lower",
       "pool incarnations spawned (1 = the set-up spawn only)", "session"),
    _m("session.rank_respawns", "count", "lower",
       "single-rank respawns (any value above 0 is a fault signal)",
       "session"),
    # -- repro.core.checkpoint ---------------------------------------------------
    _m("cache.fingerprint_ms", "ms", "lower",
       "dataset_fingerprint, mean per call", "checkpoint",
       [(P50, SERVICE)]),
    _m("cache.lookup_ms", "ms", "lower",
       "ResultCache.lookup / lookup_array, mean per call", "checkpoint",
       [(P50, REANALYSIS), (P50, SERVICE)]),
    _m("cache.save_ms", "ms", "lower",
       "ResultCache.save / save_array, mean per call", "checkpoint",
       [(P50, SERVICE)]),
    _m("cache.hits", "count", "higher",
       "cache hits in the traced phase", "checkpoint",
       [(P50, REANALYSIS)]),
    _m("cache.misses", "count", "lower",
       "cache misses in the traced phase", "checkpoint",
       [(P95, REANALYSIS)]),
    _m("cache.extended", "count", "higher",
       "incremental-B extensions in the traced phase", "checkpoint",
       [("perms_per_s", REANALYSIS)]),
    _m("cache.hit_ratio", "ratio", "higher",
       "hits over hits + misses + extensions", "checkpoint",
       [(P50, REANALYSIS)]),
    _m("checkpoint.saves", "count", "lower",
       "CheckpointStore.save calls on rank 0 in the traced phase",
       "checkpoint", [(P95, REANALYSIS)]),
    _m("checkpoint.save_ms", "ms", "lower",
       "CheckpointStore.save, mean per call", "checkpoint",
       [(P95, REANALYSIS)]),
    # -- repro.serve ---------------------------------------------------------------
    _m("serve.queue_wait_ms", "ms", "lower",
       "ServiceJob started_at - submitted_at, mean per job", "serve",
       [(P95, SERVICE), ("jobs_per_s", SERVICE)]),
    _m("serve.run_ms", "ms", "lower",
       "ServiceJob finished_at - started_at, mean per job", "serve",
       [(P95, SERVICE), ("jobs_per_s", SERVICE)]),
    _m("serve.cache_answers", "count", "higher",
       "PoolManager.stats() cache_answers delta", "serve",
       [("jobs_per_s", SERVICE)]),
    _m("serve.jobs_rerouted", "count", "lower",
       "PoolManager.stats() jobs_rerouted delta", "serve",
       [(P95, SERVICE)]),
    _m("serve.jobs_failed", "count", "lower",
       "PoolManager.stats() jobs_failed delta", "serve",
       [("jobs_per_s", SERVICE)]),
    # -- repro.corr -------------------------------------------------------------------
    _m("corr.pcor_ms", "ms", "lower",
       "pcor as the service calls it, mean per call", "corr",
       [(P95, SERVICE)]),
    # -- the tracing itself --------------------------------------------------------------
    _m("trace.spans", "count", "lower", "spans recorded in the traced phase"),
    _m("trace.perms_per_s_delta", "perm/s", "higher",
       "traced minus untraced perms_per_s"),
    _m("trace.jobs_per_s_delta", "job/s", "higher",
       "traced minus untraced jobs_per_s"),
    _m("trace.latency_p50_ms_delta", "ms", "lower",
       "traced minus untraced latency_p50_ms"),
    _m("trace.latency_p95_ms_delta", "ms", "lower",
       "traced minus untraced latency_p95_ms"),
    _m("trace.overhead_pct", "%", "lower",
       "trace.latency_p50_ms_delta as a percentage of the untraced p50"),
)
