"""Multi-pool job manager: admission control, load balancing, health.

A :class:`PoolManager` owns N resident sessions (PR 3's
:class:`~repro.mpi.session.WorkerPoolSession` for process-type backends)
and schedules admitted jobs across them:

* **Bounded admission** — at most ``max_queue`` jobs wait; submissions
  beyond that raise :class:`~repro.errors.QueueFullError` so clients see
  backpressure instead of unbounded latency.
* **Priorities** — lower ``priority`` runs first, ties in admission
  order, via one shared binary heap all pool runners pull from.
* **Cache short-circuit** — with a ``cache_dir``, an exactly repeated
  pmaxT analysis is answered from the shared content-addressed
  :class:`~repro.core.checkpoint.ResultCache` at submission time, without
  ever occupying a pool (and every pool session shares the same cache
  object, so pool-computed results populate it for later requests).
* **Health + reroute** — a pool whose world crashes mid-job
  (:class:`~repro.errors.CommunicatorError`) is marked unhealthy and the
  job is rerouted to a pool that has not yet failed it; deterministic
  permutation results make the rerun bit-identical.  Input errors
  (:class:`~repro.errors.OptionError`/:class:`~repro.errors.DataError`)
  fail the job immediately — rerouting cannot fix a bad request.

Each pool is served by one runner thread executing jobs strictly one at a
time (the session contract), so ``pools`` bounds service concurrency.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any

import numpy as np

from ..core.pmaxt import _dataset_fp_for, lookup_cached, pmaxT
from ..corr import pcor
from ..corr.parallel import lookup_cached_pcor
from ..errors import (
    CommunicatorError,
    DataError,
    OptionError,
    QueueFullError,
    ServiceError,
)
from ..mpi.backends import open_session
from .jobs import JOB_KINDS, JobSpec, ServiceJob

__all__ = ["PoolManager"]

#: pmaxT/pcor keyword parameters a service request may set.  Everything
#: else (backend=, session=, comm=, cache=...) is the manager's business.
PMAXT_PARAMS = frozenset(
    {
        "test",
        "side",
        "fixed_seed_sampling",
        "B",
        "na",
        "nonpara",
        "seed",
        "chunk_size",
        "complete_limit",
        "dtype",
        "row_names",
        "schedule",
        "steal_block",
    }
)
PCOR_PARAMS = frozenset({"use", "na"})

#: Published-dataset handles memoised per pool (oldest evicted beyond this).
_MAX_HANDLES_PER_POOL = 8

#: Bytes the finished-job history may hold: each finished job is charged
#: its result's array bytes plus :data:`_JOB_BYTES`, and the oldest
#: finished jobs are forgotten first once the total exceeds this.
_HISTORY_BYTES = 64 << 20
#: Flat charge per finished job (its handle, spec and bookkeeping), which
#: also bounds how many result-less jobs (failed, cancelled) are kept.
_JOB_BYTES = 32 << 10


def _result_nbytes(result: Any, depth: int = 0) -> int:
    """Array bytes a job result keeps alive (arrays, lists, object fields)."""
    if isinstance(result, np.ndarray):
        return result.nbytes
    if depth >= 3:
        return 0
    if isinstance(result, (list, tuple)):
        items = result
    else:
        items = getattr(result, "__dict__", {}).values()
    return sum(_result_nbytes(item, depth + 1) for item in items)


class _Pool:
    """One resident session plus its scheduling/health bookkeeping."""

    def __init__(self, index: int, session):
        self.index = index
        self.session = session
        self.busy = False
        self.healthy = True
        self.consecutive_failures = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        #: dataset fingerprint -> PublishedDataset (per-pool registry).
        self.handles: dict[str, Any] = {}

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "busy": self.busy,
            "healthy": self.healthy,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "warm": getattr(self.session, "warm", True),
            "spawns": getattr(self.session, "spawns", 0),
            "rank_respawns": getattr(self.session, "rank_respawns", 0),
            "steal_jobs": getattr(self.session, "steal_jobs", 0),
            "blocks_stolen": getattr(self.session, "blocks_stolen", 0),
        }


class PoolManager:
    """Load-balance service jobs over ``pools`` resident sessions."""

    def __init__(
        self,
        backend: str | None = None,
        ranks: int = 2,
        *,
        pools: int = 2,
        max_queue: int = 16,
        blas_threads: int | None = None,
        idle_timeout: float | None = None,
        job_timeout: float | None = None,
        cache_dir: str | None = None,
        publish_datasets: bool = True,
    ):
        if int(pools) < 1:
            raise OptionError(f"pools must be >= 1, got {pools}")
        if int(max_queue) < 1:
            raise OptionError(f"max_queue must be >= 1, got {max_queue}")
        self.backend = backend
        self.ranks = int(ranks)
        self.max_queue = int(max_queue)
        self.default_timeout = job_timeout
        self.publish_datasets = publish_datasets
        self.cache = None
        if cache_dir is not None:
            from ..core.checkpoint import ResultCache

            self.cache = ResultCache(cache_dir)
        self._cond = threading.Condition()
        self._closed = False
        self._queue: list[tuple[int, int, ServiceJob]] = []
        self._seq = itertools.count(1)
        self._jobs: dict[str, ServiceJob] = {}
        # Finished job ids in finish order -> their charged bytes.
        self._finished: dict[str, int] = {}
        self._finished_bytes = 0
        self._started_at = time.monotonic()
        self.jobs_submitted = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_rerouted = 0
        self.cache_answers = 0
        self._pools: list[_Pool] = []
        self._runners: list[threading.Thread] = []
        try:
            for index in range(int(pools)):
                session = open_session(
                    backend,
                    ranks,
                    blas_threads=blas_threads,
                    idle_timeout=idle_timeout,
                    job_timeout=job_timeout,
                )
                # One shared cache across every pool: any pool's completed
                # run answers later identical submissions from disk.
                session.cache = self.cache
                self._pools.append(_Pool(index, session))
        except BaseException:
            for pool in self._pools:
                pool.session.close()
            raise
        for pool in self._pools:
            runner = threading.Thread(
                target=self._pool_main,
                args=(pool,),
                name=f"serve-pool-{pool.index}",
                daemon=True,
            )
            runner.start()
            self._runners.append(runner)

    # -- admission ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Admit one job (or answer it from the cache); returns its handle.

        Raises :class:`~repro.errors.QueueFullError` when ``max_queue``
        jobs are already waiting — the backpressure contract — and
        :class:`~repro.errors.ServiceError` on a closed manager or an
        unknown job kind.  Invalid analysis parameters surface when the
        job runs (its state becomes ``failed``), except the obviously
        malformed ones rejected here.
        """
        if spec.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {spec.kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
        self._check_params(spec)
        job = ServiceJob(f"job-{next(self._seq):06d}", spec)
        cached = self._try_cache(spec)
        with self._cond:
            if self._closed:
                raise ServiceError("the pool manager is closed")
            self.jobs_submitted += 1
            self._jobs[job.id] = job
            if cached is not None:
                self.cache_answers += 1
                self.jobs_done += 1
            elif len(self._queue) >= self.max_queue:
                self.jobs_submitted -= 1
                del self._jobs[job.id]
                raise QueueFullError(len(self._queue), self.max_queue)
            else:
                heapq.heappush(self._queue, (int(spec.priority), next(self._seq), job))
                self._cond.notify_all()
        if cached is not None:
            self._retire(job, cached)
            job._finish(cached, cached=True)
        return job

    def submit_pmaxt(
        self, X, classlabel, *, priority: int = 0, timeout: float | None = None, **params
    ) -> ServiceJob:
        """Admit one pmaxT analysis (see :func:`repro.pmaxT` for params)."""
        return self.submit(
            JobSpec(
                kind="pmaxt",
                data=X,
                labels=classlabel,
                params=params,
                priority=priority,
                timeout=timeout,
            )
        )

    def submit_pcor(
        self, X, *, priority: int = 0, timeout: float | None = None, **params
    ) -> ServiceJob:
        """Admit one parallel correlation job (see :func:`repro.pcor`)."""
        return self.submit(
            JobSpec(kind="pcor", data=X, params=params, priority=priority, timeout=timeout)
        )

    def job(self, job_id: str) -> ServiceJob | None:
        """Look a submitted job up by id (``None`` when unknown)."""
        with self._cond:
            return self._jobs.get(job_id)

    def _retire(self, job: ServiceJob, result: Any = None) -> None:
        """Charge a finishing job to the history and trim it to budget.

        Bounds the finished-job history by bytes so a long-lived service
        cannot grow with the jobs it completes.  The oldest finished jobs
        go first, the newest always stays reachable through :meth:`job`,
        and queued or running jobs are never in the history.  Runs just
        before the job turns terminal, so a caller that sees it done also
        sees the trimmed history.
        """
        with self._cond:
            if job.id not in self._jobs:
                return
            cost = _JOB_BYTES + _result_nbytes(result)
            self._finished[job.id] = cost
            self._finished_bytes += cost
            while self._finished_bytes > _HISTORY_BYTES and len(self._finished) > 1:
                oldest = next(iter(self._finished))
                self._finished_bytes -= self._finished.pop(oldest)
                del self._jobs[oldest]

    def _check_params(self, spec: JobSpec) -> None:
        allowed = {"pmaxt": PMAXT_PARAMS, "pcor": PCOR_PARAMS, "fn": frozenset()}[spec.kind]
        unknown = set(spec.params) - allowed
        if unknown:
            raise OptionError(
                f"unknown {spec.kind} parameter(s) "
                f"{', '.join(sorted(unknown))}; allowed: "
                f"{', '.join(sorted(allowed))}"
            )
        if spec.kind == "fn" and spec.fn is None:
            raise ServiceError("kind='fn' requires spec.fn")
        if spec.kind in ("pmaxt", "pcor") and spec.data is None:
            raise DataError(f"kind={spec.kind!r} requires spec.data")
        if spec.kind == "pmaxt" and spec.labels is None:
            raise DataError("kind='pmaxt' requires spec.labels")

    def _try_cache(self, spec: JobSpec):
        """Exact-hit short-circuit: answer from disk, touch no pool."""
        if self.cache is None:
            return None
        try:
            if spec.kind == "pmaxt":
                # Scheduling knobs never enter the cache key (the steal
                # plan is bit-identical to the static one by construction).
                params = {k: v for k, v in spec.params.items()
                          if k not in ("schedule", "steal_block")}
                return lookup_cached(self.cache, spec.data, spec.labels, **params)
            if spec.kind == "pcor":
                return lookup_cached_pcor(self.cache, spec.data, **spec.params)
        except (OptionError, DataError):
            return None  # invalid requests fail on the pool path instead
        return None

    # -- pool runners ------------------------------------------------------

    def _pool_main(self, pool: _Pool) -> None:
        while True:
            job = self._next_job(pool)
            if job is None:
                return
            if not job._start(pool.index):
                with self._cond:
                    pool.busy = False
                self._retire(job)
                continue  # cancelled while queued
            try:
                result = self._run_job(pool, job)
            except BaseException as exc:  # noqa: BLE001 - routed below
                self._job_failed(pool, job, exc)
            else:
                with self._cond:
                    pool.busy = False
                    pool.healthy = True
                    pool.consecutive_failures = 0
                    pool.jobs_done += 1
                    self.jobs_done += 1
                self._retire(job, result)
                job._finish(result)

    def _next_job(self, pool: _Pool) -> ServiceJob | None:
        """Block for the best queued job this pool may run; None on close."""
        with self._cond:
            while True:
                if self._closed:
                    return None
                taken = None
                skipped = []
                while self._queue:
                    item = heapq.heappop(self._queue)
                    if pool.index in item[2].not_pools:
                        skipped.append(item)
                        continue
                    taken = item[2]
                    break
                for item in skipped:
                    heapq.heappush(self._queue, item)
                if taken is not None:
                    pool.busy = True
                    return taken
                self._cond.wait()

    def _run_job(self, pool: _Pool, job: ServiceJob) -> Any:
        spec = job.spec
        timeout = spec.timeout if spec.timeout is not None else self.default_timeout
        if spec.kind == "fn":
            return pool.session.run(spec.fn, worker_fn=spec.worker_fn, timeout=timeout)
        X = spec.data
        classlabel = spec.labels
        if self.publish_datasets:
            X = self._published(pool, spec)
            # The handle carries the published labels; letting pmaxT
            # default to them reuses the publish-time fingerprint.
            classlabel = None
        if spec.kind == "pmaxt":
            return pmaxT(X, classlabel, session=pool.session, timeout=timeout, **spec.params)
        return pcor(X, session=pool.session, timeout=timeout, **spec.params)

    def _published(self, pool: _Pool, spec: JobSpec):
        """Publish the job's matrix into the pool's registry once.

        Repeated submissions of one dataset then move zero bytes per job
        (shared-memory segments for process-type pools); distinct datasets
        rotate through a small per-pool handle budget.
        """
        labels = spec.labels if spec.kind == "pmaxt" else None
        data = np.asarray(spec.data, dtype=np.float64)
        fp = _dataset_fp_for(data, labels)
        handle = pool.handles.get(fp)
        if handle is None:
            handle = pool.session.publish(data, labels)
            pool.handles[fp] = handle
            while len(pool.handles) > _MAX_HANDLES_PER_POOL:
                pool.handles.pop(next(iter(pool.handles)))
        return handle

    def _job_failed(self, pool: _Pool, job: ServiceJob, exc: BaseException) -> None:
        """Health bookkeeping + reroute decision for one failed run."""
        world_failure = isinstance(exc, CommunicatorError)
        with self._cond:
            pool.busy = False
            pool.jobs_failed += 1
            if world_failure:
                pool.consecutive_failures += 1
                pool.healthy = False
            job.not_pools.add(pool.index)
            reroute = (
                world_failure
                and not self._closed
                and len(job.not_pools) < len(self._pools)
                and len(self._queue) < self.max_queue
            )
            if reroute:
                self.jobs_rerouted += 1
                job._requeue()
                heapq.heappush(self._queue, (int(job.spec.priority), next(self._seq), job))
                self._cond.notify_all()
                return
            self.jobs_failed += 1
        self._retire(job)
        job._fail(exc)

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Service counters: occupancy, queue depth, cache traffic, jobs/s."""
        with self._cond:
            busy = sum(1 for p in self._pools if p.busy)
            healthy = sum(1 for p in self._pools if p.healthy)
            elapsed = max(time.monotonic() - self._started_at, 1e-9)
            stats: dict[str, Any] = {
                "backend": self._pools[0].session.backend_name,
                "ranks": self.ranks,
                "pools": len(self._pools),
                "pools_busy": busy,
                "pools_healthy": healthy,
                "occupancy": busy / len(self._pools),
                "queue_depth": len(self._queue),
                "max_queue": self.max_queue,
                "jobs_submitted": self.jobs_submitted,
                "jobs_done": self.jobs_done,
                "jobs_failed": self.jobs_failed,
                "jobs_rerouted": self.jobs_rerouted,
                "cache_answers": self.cache_answers,
                "jobs_per_s": self.jobs_done / elapsed,
                "uptime_s": elapsed,
                "rank_respawns": sum(
                    getattr(p.session, "rank_respawns", 0) for p in self._pools),
                "steal_jobs": sum(
                    getattr(p.session, "steal_jobs", 0) for p in self._pools),
                "blocks_stolen": sum(
                    getattr(p.session, "blocks_stolen", 0) for p in self._pools),
                "pool_details": [p.to_dict() for p in self._pools],
            }
            if self.cache is not None:
                stats.update(self.cache.stats())
                total = stats["cache_hits"] + stats["cache_misses"]
                stats["cache_hit_rate"] = stats["cache_hits"] / total if total else 0.0
            return stats

    def healthy(self) -> bool:
        """Liveness: open, with at least one healthy pool."""
        with self._cond:
            return not self._closed and any(p.healthy for p in self._pools)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel queued jobs, drain runners, close every pool; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            queued = [item[2] for item in self._queue]
            self._queue = []
            self._cond.notify_all()
        for job in queued:
            job.cancel()
        for runner in self._runners:
            if runner is not threading.current_thread():
                runner.join()
        for pool in self._pools:
            pool.session.close()

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"PoolManager(pools={len(self._pools)}, ranks={self.ranks}, "
            f"{state}, queued={self.queue_depth()}, done={self.jobs_done})"
        )
