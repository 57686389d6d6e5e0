"""Persistent backend sessions: resident SPMD worker pools.

The paper's SPRINT keeps one ``mpiexec`` allocation resident for the whole
R script: the R process is the master (rank 0) and the worker ranks wait
for it.  A :class:`BackendSession` is the Python analogue of that
allocation:

* :class:`WorkerPoolSession` (the ``processes``/``shm`` backends) is the
  one place that forks SPMD worker processes.  The calling process is
  rank 0 — the SPRINT master — and ``ranks - 1`` workers are forked
  **once**; successive SPMD jobs are dispatched to them as
  generation-tagged frames over the same per-rank queues the collectives
  use.  Communicators, queues and per-rank caches (see
  :func:`resident_cache`) stay warm across jobs; a crashed worker or a
  failed job tears the pool down and the next dispatch respawns it under a
  new generation tag, so stale frames can never be mistaken for live ones.
  While rank 0 waits, it checks worker health every 0.1 s, so a dead
  worker raises :class:`~repro.errors.WorkerDeadError` promptly.
  A one-shot ``backend=``/``ranks=`` call on these backends
  (:func:`~repro.mpi.processes.run_spmd_processes`,
  :func:`~repro.mpi.shm.run_spmd_shm`, ``Backend.run``) is a pool opened
  for that one job and closed afterwards: its workers are forked with the
  job in hand, so closures travel by fork and need no pickling.
* :class:`EphemeralSession` (the in-process backends and custom ones)
  launches a fresh world per job through ``Backend.run``.  For the
  in-process backends it still provides per-rank resident caches, so a
  threads session reuses kernel workspaces across calls too.

Dispatch contract
-----------------

``session.run(fn, worker_fn=None)`` runs ``fn(comm)`` on rank 0 (the
calling process — closures over local data are fine there) and
``worker_fn(comm)`` (default ``fn``) on every worker rank.  On a
:class:`WorkerPoolSession` the worker callable crosses a queue, so it must
be picklable — a module-level function or :func:`functools.partial` of
one; a one-shot pool forks its workers with the job in hand and has no
such restriction.  Jobs are SPMD:
every rank must execute the same collective sequence and return, leaving
no unconsumed traffic behind, before the session dispatches the next job.

Asynchronous submission
-----------------------

``session.submit(fn, ...) -> JobFuture`` is the non-blocking half of the
same contract: the job is queued to the session's dispatcher thread (one
per session, started lazily on first submit) and the returned
:class:`JobFuture` resolves when the job completes.  ``run()`` is exactly
``submit(...).result()``, so both paths share one dispatch pipeline and
one ordering: jobs execute strictly one at a time per session, lowest
``priority`` value first (ties in submission order).  A queued job can be
cancelled until the dispatcher picks it up; a running SPMD job cannot be
interrupted (its collectives span every rank), so ``cancel()`` on a
running job returns ``False`` — services that need hard deadlines pass
``timeout=``, which bounds the job and tears a pool down on expiry.

Per-rank resident caches
------------------------

While a session job runs, :func:`resident_cache` returns a dict private to
the calling rank that survives across jobs (it lives in the resident
worker process, or in the session object for rank 0 and thread worlds).
``pmaxT`` uses it to keep its :class:`~repro.core.kernel.KernelWorkspace`
warm: a second call of the same problem shape reuses the first call's
buffers instead of reallocating them.  Outside a session it returns
``None`` and callers fall back to per-call state.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import numbers
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable

from ..errors import CommunicatorError, OptionError, WorkerDeadError
from .blasctl import apply_worker_cap, auto_blas_cap, blas_thread_limit
from .comm import Communicator
from .processes import _DEFAULT_TIMEOUT, ProcessComm

__all__ = [
    "BackendSession",
    "EphemeralSession",
    "JobFuture",
    "WorkerPoolSession",
    "resident_cache",
]

SpmdFunction = Callable[[Communicator], Any]

#: Frame kinds a resident worker understands between jobs.  They share the
#: 4-tuple shape of the collective wire format, so a stale frame can never
#: be confused with either job framing (wrong kind) or a live collective
#: (workers only read these between jobs, when no collective is in flight).
_JOB_KIND = "session-job"
_STOP_KIND = "session-stop"

#: How often a blocked master re-checks worker health, and how often an
#: idle worker re-checks that its parent is still alive.
_HEALTH_POLL_S = 0.1
_ORPHAN_POLL_S = 1.0

_LOCAL = threading.local()


def resident_cache() -> dict | None:
    """The calling rank's session-resident cache, or ``None`` outside one.

    The dict persists for the lifetime of the session's worker pool (one
    per rank), so consumers can keep shape-keyed scratch state — kernel
    workspaces, warm buffers — alive across successive jobs.  Entries are
    the consumer's own business; the session never reads them.
    """
    return getattr(_LOCAL, "cache", None)


@contextmanager
def _cache_scope(cache: dict):
    """Expose ``cache`` through :func:`resident_cache` for the duration."""
    previous = getattr(_LOCAL, "cache", None)
    _LOCAL.cache = cache
    try:
        yield
    finally:
        _LOCAL.cache = previous


#: Lifecycle states of a :class:`JobFuture`.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

_JOB_TERMINAL = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})


class JobFuture:
    """Handle to one asynchronously submitted session job.

    Returned by :meth:`BackendSession.submit`.  The future resolves to the
    job's **rank-ordered result list** (the same value ``run()`` returns);
    a failure re-raises the job's exception from :meth:`result`.  States
    move ``queued -> running -> done | failed``, or ``queued ->
    cancelled`` when :meth:`cancel` wins the race against the dispatcher.
    """

    def __init__(self, job_id: int, priority: int = 0):
        #: Monotonic per-session job number (the session's submission tag;
        #: a :class:`WorkerPoolSession` additionally stamps every dispatch
        #: with its pool-generation tag on the wire).
        self.job_id = job_id
        #: Scheduling priority (lower runs first; ties in submit order).
        self.priority = priority
        self._cond = threading.Condition()
        self._state = JOB_QUEUED
        self._results: list[Any] | None = None
        self._error: BaseException | None = None

    # -- inspection --------------------------------------------------------

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    def done(self) -> bool:
        """True once the job reached a terminal state (incl. cancelled)."""
        with self._cond:
            return self._state in _JOB_TERMINAL

    def running(self) -> bool:
        with self._cond:
            return self._state == JOB_RUNNING

    def cancelled(self) -> bool:
        with self._cond:
            return self._state == JOB_CANCELLED

    # -- consumption -------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel the job if it has not started; returns success.

        A queued job is withdrawn (it will never run).  A running SPMD job
        cannot be interrupted — every rank is inside its collective
        sequence — so cancelling it returns ``False``; bound it with the
        ``timeout=`` passed at submission instead.
        """
        with self._cond:
            if self._state == JOB_QUEUED:
                self._state = JOB_CANCELLED
                self._cond.notify_all()
                return True
            return self._state == JOB_CANCELLED

    def result(self, timeout: float | None = None) -> list[Any]:
        """Block for the rank-ordered results (what ``run()`` returns).

        Raises the job's own exception if it failed, and
        :class:`~repro.errors.CommunicatorError` if the job was cancelled
        or ``timeout`` (seconds of *waiting*, distinct from the job's own
        execution deadline) expires first.
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._state in _JOB_TERMINAL, timeout
            ):
                raise CommunicatorError(
                    f"timed out waiting for session job {self.job_id} "
                    f"(state {self._state!r})"
                )
            if self._state == JOB_CANCELLED:
                raise CommunicatorError(
                    f"session job {self.job_id} was cancelled"
                )
            if self._error is not None:
                raise self._error
            return self._results  # type: ignore[return-value]

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The job's exception (``None`` on success); blocks like result."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._state in _JOB_TERMINAL, timeout
            ):
                raise CommunicatorError(
                    f"timed out waiting for session job {self.job_id}"
                )
            return self._error

    # -- dispatcher-side transitions ---------------------------------------

    def _start(self) -> bool:
        """Claim the job for execution; False when cancellation won."""
        with self._cond:
            if self._state != JOB_QUEUED:
                return False
            self._state = JOB_RUNNING
            return True

    def _finish(self, results: list[Any]) -> None:
        with self._cond:
            self._results = results
            self._state = JOB_DONE
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            self._error = error
            self._state = JOB_FAILED
            self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobFuture(job_id={self.job_id}, priority={self.priority}, "
            f"state={self.state!r})"
        )


class _QueuedJob:
    """Priority-queue entry: ordering key + the job payload."""

    __slots__ = ("order", "future", "fn", "worker_fn", "timeout")

    def __init__(self, order, future, fn, worker_fn, timeout):
        self.order = order
        self.future = future
        self.fn = fn
        self.worker_fn = worker_fn
        self.timeout = timeout

    def __lt__(self, other: "_QueuedJob") -> bool:
        return self.order < other.order


def _stop_item() -> _QueuedJob:
    """A dispatcher stop token that outranks every real job."""
    return _QueuedJob((float("-inf"), -1), None, None, None, None)


def _stop_dispatcher(jobs_q) -> None:
    """GC finalizer: wake the dispatcher so it can exit."""
    jobs_q.put(_stop_item())


def _dispatcher_main(session_ref, jobs_q) -> None:
    """Session dispatcher: execute queued jobs strictly one at a time.

    Holds only a weak reference to the session between jobs, so an
    abandoned (never-closed) session can still be garbage-collected — its
    finalizers reap the worker pool and enqueue the stop token that ends
    this thread.
    """
    while True:
        item = jobs_q.get()
        if item.future is None:
            return
        if not item.future._start():
            continue  # cancelled while queued
        session = session_ref()
        if session is None:  # pragma: no cover - GC race guard
            item.future._fail(
                CommunicatorError(
                    "session was garbage-collected before the job ran"
                )
            )
            return
        try:
            results = session._execute(item.fn, item.worker_fn, item.timeout)
        except BaseException as exc:  # noqa: BLE001 - shipped to the future
            item.future._fail(exc)
        else:
            item.future._finish(results)
        finally:
            del session


class BackendSession(ABC):
    """A context-managed SPMD world that outlives individual jobs."""

    #: Registry name of the backend this session runs on.
    backend_name: str = "?"
    #: Result cache attached by ``open_session(..., cache_dir=...)`` (a
    #: :class:`~repro.core.checkpoint.ResultCache`); ``pmaxT`` calls
    #: dispatched over this session consult it automatically.
    cache: Any = None
    #: Lazily created dataset registry backing :meth:`publish`.
    _datasets: Any = None

    def __init__(self) -> None:
        self._submit_lock = threading.Lock()
        self._submit_seq = 0
        self._jobs_q: queue_mod.PriorityQueue | None = None
        self._dispatcher: threading.Thread | None = None
        self._dispatcher_finalizer: weakref.finalize | None = None
        self._pending: list[JobFuture] = []

    @property
    @abstractmethod
    def ranks(self) -> int:
        """World size (master rank 0 included)."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed session cannot run."""

    @abstractmethod
    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        """Synchronously execute one SPMD job (dispatcher-thread side)."""

    @abstractmethod
    def close(self) -> None:
        """Tear the world down; idempotent."""

    # -- job submission ----------------------------------------------------

    def submit(
        self,
        fn: SpmdFunction,
        *,
        worker_fn: SpmdFunction | None = None,
        timeout: float | None = None,
        priority: int = 0,
    ) -> JobFuture:
        """Queue one SPMD job for asynchronous execution.

        ``fn(comm)`` runs on rank 0, ``worker_fn(comm)`` (default ``fn``)
        on every other rank — the dispatch contract of :meth:`run`.  Jobs
        execute strictly one at a time per session, lowest ``priority``
        first (ties in submission order), on the session's dispatcher
        thread.  ``timeout`` bounds the job's execution (collectives and
        result collection), not the wait for its turn; pass a timeout to
        :meth:`JobFuture.result` to bound the wait as well.  It must be
        ``None`` or a positive, finite number of seconds
        (:class:`~repro.errors.OptionError` otherwise).
        """
        _check_timeout(timeout)
        self._assert_open()
        with self._submit_lock:
            self._assert_open()
            self._ensure_dispatcher_locked()
            self._submit_seq += 1
            future = JobFuture(self._submit_seq, priority=int(priority))
            item = _QueuedJob(
                (int(priority), self._submit_seq), future, fn, worker_fn,
                timeout,
            )
            self._pending = [f for f in self._pending if not f.done()]
            self._pending.append(future)
            self._jobs_q.put(item)
        return future

    def run(
        self,
        fn: SpmdFunction,
        *,
        worker_fn: SpmdFunction | None = None,
        timeout: float | None = None,
    ) -> list[Any]:
        """Run one SPMD job; return rank-ordered results.

        ``fn(comm)`` runs on rank 0, ``worker_fn(comm)`` (default ``fn``)
        on every other rank.  See the module docstring for the dispatch
        contract.  This is exactly ``submit(...).result()``: the job joins
        the same queue as asynchronous submissions and blocks the caller
        until its turn completes.
        """
        return self.submit(fn, worker_fn=worker_fn, timeout=timeout).result()

    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is not None and self._dispatcher.is_alive():
            return
        self._jobs_q = queue_mod.PriorityQueue()
        thread = threading.Thread(
            target=_dispatcher_main,
            args=(weakref.ref(self), self._jobs_q),
            name=f"session-dispatch-{self.backend_name}",
            daemon=True,
        )
        thread.start()
        self._dispatcher = thread
        # An abandoned session must not leave the dispatcher spinning: GC
        # enqueues the stop token the moment the session object dies.
        self._dispatcher_finalizer = weakref.finalize(
            self, _stop_dispatcher, self._jobs_q
        )

    def _shutdown_dispatcher(self) -> None:
        """Cancel queued jobs, stop the dispatcher, wait for the in-flight
        job to finish (part of :meth:`close`)."""
        with self._submit_lock:
            jobs_q, thread = self._jobs_q, self._dispatcher
            pending, self._pending = self._pending, []
            self._jobs_q = None
            self._dispatcher = None
            if self._dispatcher_finalizer is not None:
                self._dispatcher_finalizer.detach()
                self._dispatcher_finalizer = None
        if jobs_q is None:
            return
        for future in pending:
            future.cancel()
        jobs_q.put(_stop_item())
        if thread is not None and thread is not threading.current_thread():
            thread.join()

    def worker_pids(self) -> list[int]:
        """PIDs of the resident worker processes (empty when in-process)."""
        return []

    # -- dataset registry --------------------------------------------------

    def publish(self, X: Any, labels: Any = None):
        """Publish a matrix once; pass the returned handle as later ``X``.

        The matrix (and any on-demand dtype/NA variants) is written into
        the session's dataset registry — shared-memory segments for
        process-type sessions, read-only arrays in-process — and
        subsequent ``pmaxT``/``pcor`` calls over this session accept the
        :class:`~repro.mpi.datasets.PublishedDataset` in place of the
        matrix, eliminating the per-call broadcast entirely.  Published
        segments live until :meth:`close` (or GC) and survive worker-pool
        respawns (a fresh pool simply re-maps them on first use).
        """
        self._assert_open()
        if self._datasets is None:
            from .datasets import DatasetRegistry

            self._datasets = DatasetRegistry(use_shm=self._publish_via_shm())
        return self._datasets.publish(X, labels)

    def _publish_via_shm(self) -> bool:
        """Whether :meth:`publish` writes shared-memory segments."""
        return False

    def _drop_datasets(self) -> None:
        """Unlink every published dataset (part of :meth:`close`)."""
        registry, self._datasets = self._datasets, None
        if registry is not None:
            registry.close()

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot: jobs, publishes, cache traffic, bytes resident."""
        stats: dict[str, Any] = {
            "backend": self.backend_name,
            "ranks": self.ranks,
            "closed": self.closed,
            "jobs_run": getattr(self, "jobs_run", 0),
            "publishes": 0,
            "datasets": 0,
            "published_bytes": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_extended": 0,
            "cache_evictions": 0,
        }
        if self._datasets is not None:
            stats["publishes"] = self._datasets.publishes
            stats["datasets"] = len(self._datasets)
            stats["published_bytes"] = self._datasets.bytes_resident()
        if self.cache is not None:
            stats.update(self.cache.stats())
        return stats

    def _assert_open(self) -> None:
        if self.closed:
            raise CommunicatorError(
                f"session on backend {self.backend_name!r} is closed"
            )

    def _sweep_cache(self) -> None:
        """Close-time cache sweep (no-op without configured limits)."""
        if self.cache is not None:
            try:
                self.cache.sweep()
            except OSError:  # pragma: no cover - cache dir went away
                pass

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        stats = self.stats()
        extras = [f"jobs={stats['jobs_run']}"]
        if stats["publishes"]:
            extras.append(
                f"published={stats['datasets']} "
                f"({stats['published_bytes']} B)")
        if self.cache is not None:
            extras.append(
                f"cache={stats['cache_hits']}h/{stats['cache_misses']}m/"
                f"{stats['cache_extended']}x")
        return (
            f"{type(self).__name__}(backend={self.backend_name!r}, "
            f"ranks={self.ranks}, {state}, {', '.join(extras)})"
        )


def _check_timeout(timeout: float | None) -> None:
    if timeout is not None and not (
        isinstance(timeout, numbers.Real)
        and not isinstance(timeout, bool)
        and 0 < timeout < math.inf
    ):
        raise OptionError(
            f"timeout must be a positive, finite number of seconds or "
            f"None, got {timeout!r}"
        )


def _check_blas_threads(blas_threads: int | None) -> int | None:
    if blas_threads is not None and int(blas_threads) < 0:
        raise OptionError(
            f"blas_threads must be >= 0 (0 disables capping), "
            f"got {blas_threads}"
        )
    return None if blas_threads is None else int(blas_threads)


class EphemeralSession(BackendSession):
    """A session that stands up a fresh world per job through ``Backend.run``.

    The session of the in-process backends (``serial``, ``threads``) and of
    custom ones; the ``processes``/``shm`` backends always run on a
    :class:`WorkerPoolSession`.  What it adds over a bare ``run_backend``
    call is the session interface (so every consumer has one dispatch
    path) and, for in-process backends, per-rank resident caches that
    survive across jobs.  ``blas_threads`` caps the calling process's
    BLAS pool for each job's duration.
    """

    def __init__(self, backend, ranks: int, *, blas_threads: int | None = None):
        super().__init__()
        self._backend = backend
        self._ranks = int(ranks)
        self._blas_threads = _check_blas_threads(blas_threads)
        # Worker processes are throwaway, so only in-process worlds can
        # meaningfully keep per-rank state warm across jobs.
        self._caches: list[dict] | None = (
            [{} for _ in range(self._ranks)] if backend.in_process else None
        )
        self._closed = False
        self.backend_name = backend.name
        self.jobs_run = 0

    @property
    def ranks(self) -> int:
        return self._ranks

    @property
    def closed(self) -> bool:
        return self._closed

    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        self._assert_open()
        job = self._compose(fn, worker_fn)
        results = self._run_capped(job, timeout)
        self.jobs_run += 1
        return results

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._shutdown_dispatcher()
        self._drop_datasets()
        self._sweep_cache()

    def _publish_via_shm(self) -> bool:
        # An out-of-process custom world inherits nothing between jobs, so
        # a published dataset must live in named shared memory for the
        # next job's ranks to find it; in-process worlds share the view.
        return not self._backend.in_process

    def _compose(
        self, fn: SpmdFunction, worker_fn: SpmdFunction | None
    ) -> SpmdFunction:
        if worker_fn is None:
            job = fn
        else:

            def job(comm: Communicator) -> Any:
                return fn(comm) if comm.rank == 0 else worker_fn(comm)

        caches = self._caches
        if caches is None:
            return job

        def cached_job(comm: Communicator) -> Any:
            with _cache_scope(caches[comm.rank]):
                return job(comm)

        return cached_job

    def _run_capped(self, job: SpmdFunction, timeout: float | None) -> list[Any]:
        backend, ranks, blas = self._backend, self._ranks, self._blas_threads
        # One shared pool: cap for the world's duration, restore after
        # (None and 0 both leave the pool alone here).
        if not blas:
            return backend.run(job, ranks, timeout=timeout)
        with blas_thread_limit(blas):
            return backend.run(job, ranks, timeout=timeout)


def _pool_worker(
    comm_cls,
    rank,
    size,
    inboxes,
    results_q,
    generation,
    job_timeout,
    blas_threads,
    parent_pid,
    start_opseq=0,
    job=None,
):  # pragma: no cover - runs in the child process
    """Resident worker main: serve job frames until stopped or orphaned.

    ``job`` is a one-shot pool's job, handed over by fork: it runs first,
    as sequence 0 of this generation, with no frame and no pickling.
    """
    apply_worker_cap(size, blas_threads)
    # The resident per-rank cache (see resident_cache()): created once per
    # pool incarnation, shared by every job this worker serves.
    _LOCAL.cache = {}
    comm = comm_cls(rank, size, inboxes, job_timeout)
    # A rank respawned into a live pool (single-rank fault recovery) must
    # join the survivors' collective numbering: every job leaves the
    # world's sequence numbers equal across ranks, so the master's value
    # at respawn time is the right starting point.
    comm._opseq = start_opseq
    if job is not None and not _serve_job(comm, results_q, generation, 0, job):
        return
    inbox = inboxes[rank]
    while True:
        try:
            frame = inbox.get(timeout=_ORPHAN_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return  # the session's process died without close()
            continue
        except (OSError, EOFError, ValueError):
            return  # queue torn down under us
        if not (isinstance(frame, tuple) and len(frame) == 4):
            continue
        kind, gen, seq, wire = frame
        if kind == _STOP_KIND:
            return
        if kind != _JOB_KIND or gen < generation:
            # Stale framing from a previous pool incarnation: drop it.
            # The comparison is drop-only-older because single-rank
            # respawns bump the generation without restarting the
            # survivors: an older worker must accept newer-generation
            # jobs, while a freshly respawned rank must drop the stale
            # frame of the job its predecessor died in.
            continue
        # Unpickled inside the job, so a bad frame fails like a bad job.
        if not _serve_job(comm, results_q, gen, seq, lambda c: pickle.loads(wire)(c)):
            return


def _serve_job(comm, results_q, gen, seq, job) -> bool:  # pragma: no cover
    """Run one job on a worker and ship its result; False = retire."""
    try:
        result = job(comm)
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        results_q.put(
            (
                gen,
                seq,
                comm.rank,
                False,
                (type(exc).__name__, str(exc), traceback.format_exc()),
            )
        )
        # The world's collective state is unknown after a failure; the
        # master tears the pool down, so this worker retires too.
        return False
    results_q.put((gen, seq, comm.rank, True, result))
    del result
    prune = getattr(comm, "_prune_attached", None)
    if prune is not None:
        # Release shared-memory mappings whose broadcast views died
        # with the job, so a long-lived worker cannot pin dead pages.
        prune()
    return True


#: Whether per-process state can be read from /proc (Linux — the only
#: platform the fork backends support anyway; elsewhere fall back to
#: ``Process.is_alive`` alone).
_HAVE_PROC = os.path.isdir("/proc")


def _proc_defunct(proc) -> bool:
    """Whether a worker process is dead for dispatch purposes.

    ``Process.is_alive`` alone misses a narrow window: a SIGKILLed
    worker's thread-group leader shows state ``Z`` in ``/proc`` (and can
    never serve another job) slightly *before* the whole thread group —
    queue feeders included — becomes waitable, during which ``waitpid``
    still reports it running.  Consulting the process state as well makes
    a kill visible the moment it is visible anywhere.
    """
    if not proc.is_alive():
        return True
    if not _HAVE_PROC:
        return False
    try:
        with open(f"/proc/{proc.pid}/stat") as fh:
            content = fh.read()
    except OSError:
        return True  # entry gone while is_alive hadn't caught up
    try:
        state = content.rsplit(")", 1)[1].split()[0]
    except IndexError:
        return False  # transient malformed read: not definitive
    return state in ("Z", "X", "x")


def _release_orphaned_reader_lock(q) -> None:
    """Free a queue reader lock orphaned by a SIGKILLed consumer.

    A pool inbox has exactly one consumer — its rank.  A worker killed
    while blocked in ``get()`` dies holding the queue's reader semaphore,
    and a rank respawned onto the same queue would deadlock on its first
    ``get``.  Try-acquire then release leaves the semaphore at exactly one
    available in both cases (already free, or held by the dead process);
    no live process can contend, because the old consumer is dead and the
    new one has not started.
    """
    lock = getattr(q, "_rlock", None)
    if lock is None:  # pragma: no cover - non-fork queue implementation
        return
    lock.acquire(block=False)
    try:
        lock.release()
    except ValueError:  # pragma: no cover - value already at maximum
        pass


def _join_or_kill(procs, timeout: float) -> None:
    """Join every process, escalating to SIGKILL on stragglers.

    After a terminate (or a graceful stop), anything still alive is
    forcibly reaped so the caller can safely close the queues.
    """
    for p in procs:
        p.join(timeout=timeout)
        if p.is_alive():  # terminated mid-flush; escalate
            p.kill()
            p.join(timeout=5)


def _reap_pool(procs, queues):
    """GC/atexit fallback: kill an unclosed pool and release its queues."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    _join_or_kill(procs, timeout=2.0)
    for q in queues:
        try:
            q.cancel_join_thread()
            q.close()
        except (OSError, ValueError):
            pass


class _WatchfulInbox:
    """Master-inbox wrapper that polls world health while blocking.

    The master runs its half of every job in the calling process, so a
    worker that dies mid-collective would otherwise leave it blocked until
    the full communicator timeout.  Wrapping only the master's own inbox,
    ``get`` waits in short slices and runs the session's health check
    between them — a dead or failed worker surfaces within
    ``_HEALTH_POLL_S`` instead.
    """

    def __init__(self, queue, health_check):
        self._queue = queue
        self._health = health_check

    def get(self, timeout: float | None = None):
        if timeout is None:
            while True:
                try:
                    return self._queue.get(timeout=_HEALTH_POLL_S)
                except queue_mod.Empty:
                    self._health()
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise queue_mod.Empty
            try:
                return self._queue.get(timeout=min(_HEALTH_POLL_S, remaining))
            except queue_mod.Empty:
                self._health()

    def get_nowait(self):
        """Non-blocking read (the steal master's ``poll_any`` path)."""
        return self._queue.get_nowait()

    def put(self, item) -> None:  # pragma: no cover - conformance only
        self._queue.put(item)


class WorkerPoolSession(BackendSession):
    """Persistent process-world session: spawn once, dispatch many jobs.

    The calling process is rank 0; ``ranks - 1`` resident workers are
    forked at first dispatch (and respawned under a new generation tag
    after a crash, a failed job, or an idle teardown).  A one-shot run is
    the same pool opened for one job (:meth:`_run_once`).  Parameters:

    comm_cls:
        Per-rank communicator class (:class:`~repro.mpi.processes.ProcessComm`
        or :class:`~repro.mpi.shm.ShmComm`).
    ranks:
        World size, master included.
    blas_threads:
        Per-rank BLAS cap applied at worker bootstrap, and to the master's
        pool for the duration of each job (``None`` = automatic
        ``cores // ranks``, ``0`` = uncapped).  The caller's environment
        is never changed.
    idle_timeout:
        Seconds of inactivity after which the pool is torn down (the
        session stays open; the next job respawns).  ``None`` = never.
    job_timeout:
        Communicator timeout and default per-job result deadline
        (``None`` = 300 s).
    """

    def __init__(
        self,
        comm_cls: type[ProcessComm],
        ranks: int,
        *,
        name: str | None = None,
        blas_threads: int | None = None,
        idle_timeout: float | None = None,
        job_timeout: float | None = None,
    ):
        if int(ranks) < 1:
            raise CommunicatorError(f"ranks must be >= 1, got {ranks}")
        _check_timeout(job_timeout)
        super().__init__()
        self._comm_cls = comm_cls
        self._ranks = int(ranks)
        self._blas_threads = _check_blas_threads(blas_threads)
        self._idle_timeout = idle_timeout
        self._job_timeout = _DEFAULT_TIMEOUT if job_timeout is None else float(job_timeout)
        self.backend_name = name if name is not None else comm_cls.__name__
        self._lock = threading.RLock()
        self._closed = False
        self._procs: list | None = None
        self._inboxes: list | None = None
        self._results_q = None
        self._result_buffer: list[tuple] = []
        self._master_comm: ProcessComm | None = None
        self._master_cache: dict = {}
        self._generation = 0
        self._next_seq = 0
        self._finalizer: weakref.finalize | None = None
        self._idle_timer: threading.Timer | None = None
        self._activity_seq = 0
        #: Pool incarnations spawned so far (1 after the first dispatch;
        #: each crash/idle respawn increments it).
        self.spawns = 0
        #: Successfully completed jobs.
        self.jobs_run = 0
        #: Single-rank respawns (fault-granular recovery: one worker died
        #: mid-steal, the survivors kept their warm state).
        self.rank_respawns = 0
        #: Jobs that ran under the work-stealing schedule.
        self.steal_jobs = 0
        #: Blocks served on demand (beyond the initial runs) across all
        #: steal jobs.
        self.blocks_stolen = 0
        #: Ranks whose mid-job death was acknowledged by the steal master
        #: (the job completed without them); respawned one at a time by
        #: the next dispatch instead of tearing the whole pool down.
        self._dead_ranks: set[int] = set()

    # -- introspection -----------------------------------------------------

    @property
    def ranks(self) -> int:
        return self._ranks

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def generation(self) -> int:
        """Current pool incarnation tag (bumped on every respawn)."""
        return self._generation

    @property
    def warm(self) -> bool:
        """True while a worker pool is resident."""
        return self._procs is not None

    def worker_pids(self) -> list[int]:
        with self._lock:
            if self._procs is None:
                return []
            return [p.pid for p in self._procs]

    def _publish_via_shm(self) -> bool:
        return True

    def stats(self) -> dict:
        stats = super().stats()
        stats["spawns"] = self.spawns
        stats["warm"] = self.warm
        stats["rank_respawns"] = self.rank_respawns
        stats["steal_jobs"] = self.steal_jobs
        stats["blocks_stolen"] = self.blocks_stolen
        comm = self._master_comm
        stats["bcast_array_bytes"] = (
            getattr(comm, "array_bytes", 0) if comm is not None else 0)
        return stats

    # -- dispatch ----------------------------------------------------------

    def _execute(
        self,
        fn: SpmdFunction,
        worker_fn: SpmdFunction | None,
        timeout: float | None,
    ) -> list[Any]:
        with self._lock:
            self._assert_open()
            self._activity_seq += 1
            self._cancel_idle_timer()
            try:
                return self._dispatch(fn, worker_fn, timeout)
            finally:
                self._schedule_idle_timer()

    def _dispatch(
        self, fn: SpmdFunction, worker_fn: SpmdFunction | None, timeout: float | None
    ) -> list[Any]:
        job = worker_fn if worker_fn is not None else fn
        try:
            wire = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CommunicatorError(
                f"session job is not picklable: {exc!r} (resident workers "
                "receive jobs over a queue, unlike the fork-based one-shot "
                "path — pass a module-level function or a functools.partial "
                "of one as worker_fn)"
            ) from exc
        self._ensure_pool()
        gen, seq = self._generation, self._next_seq
        self._next_seq += 1
        for dest in range(1, self._ranks):
            self._inboxes[dest].put((_JOB_KIND, gen, seq, wire))
        return self._run_job(fn, gen, seq, timeout)

    def _run_once(self, fn: SpmdFunction) -> list[Any]:
        """Run ``fn`` on every rank as this pool's only job, then close it.

        The one-shot path of the ``processes``/``shm`` backends.  The
        workers are forked with ``fn`` in hand, so a closure travels by
        fork and needs no pickling; rank 0 runs ``fn`` in the caller, and
        results and faults are collected as for a dispatched job, within
        the pool's ``job_timeout``.
        """
        try:
            with self._lock:
                self._spawn_pool(job=fn)
                return self._run_job(fn, self._generation, 0, None)
        finally:
            self.close()

    def _run_job(self, fn: SpmdFunction, gen: int, seq: int, timeout: float | None) -> list[Any]:
        """Run rank 0's half of job ``(gen, seq)``; collect the workers'."""
        results: list[Any] = [None] * self._ranks
        try:
            results[0] = self._run_master(fn)
            deadline = time.monotonic() + (
                self._job_timeout if timeout is None else timeout
            )
            collected = 0
            # Ranks whose death the steal master acknowledged mid-job
            # will never report a result; the job still completes (their
            # blocks were requeued), so they are not waited for.
            while collected < self._ranks - 1 - len(self._dead_ranks):
                egen, eseq, rank, ok, payload = self._take_result(deadline)
                if egen != gen or eseq != seq:
                    continue  # stale entry from a torn-down incarnation
                if not ok:
                    name, message, tb = payload
                    raise CommunicatorError(
                        f"session job failed on rank {rank} with {name}: "
                        f"{message}\n--- worker traceback ---\n{tb}"
                    )
                results[rank] = payload
                collected += 1
        except BaseException:
            # The world's collective state is unknown after any failure
            # (ranks may be blocked mid-collective): tear the pool down;
            # the next dispatch respawns it under a fresh generation.
            self._teardown_pool(graceful=False)
            raise
        self.jobs_run += 1
        return results

    def _run_master(self, fn: SpmdFunction) -> Any:
        cap = self._blas_threads
        if cap is None:
            cap = auto_blas_cap(self._ranks)
        with _cache_scope(self._master_cache):
            if cap > 0:
                with blas_thread_limit(cap):
                    return fn(self._master_comm)
            return fn(self._master_comm)

    def _take_result(self, deadline: float) -> tuple:
        while True:
            if self._result_buffer:
                return self._result_buffer.pop(0)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommunicatorError(
                    "timed out waiting for session job results"
                )
            try:
                return self._results_q.get(
                    timeout=min(_HEALTH_POLL_S, remaining)
                )
            except queue_mod.Empty:
                self._check_world_health()

    # -- health ------------------------------------------------------------

    def _check_world_health(self) -> None:
        """Raise if a worker failed or died; buffer early result frames.

        Runs between the master's collective poll slices (see
        :class:`_WatchfulInbox`) and between result-queue polls.  Draining
        the result queue first gives a clean failure report priority over
        the bare "worker died" diagnosis of the exit that follows it.
        """
        while True:
            try:
                self._result_buffer.append(self._results_q.get_nowait())
            except (queue_mod.Empty, OSError, ValueError, EOFError):
                break
        for entry in self._result_buffer:
            _gen, _seq, rank, ok, payload = entry
            if not ok:
                name, message, tb = payload
                raise CommunicatorError(
                    f"session job failed on rank {rank} with {name}: "
                    f"{message}\n--- worker traceback ---\n{tb}"
                )
        for rank, proc in enumerate(self._procs or [], start=1):
            if rank in self._dead_ranks:
                continue  # already acknowledged; the job continues without it
            if _proc_defunct(proc):
                raise WorkerDeadError(
                    rank,
                    f"pid {proc.pid} exited unexpectedly (exitcode "
                    f"{proc.exitcode}); a persistent session respawns it on "
                    "its next dispatch",
                )

    def _acknowledge_dead_rank(self, rank: int) -> None:
        """Steal-master hook: rank's death is handled, don't re-raise it."""
        self._dead_ranks.add(rank)

    def _note_steal_stats(self, stats: dict) -> None:
        """Steal-master hook: accumulate one steal job's statistics."""
        self.steal_jobs += 1
        self.blocks_stolen += int(stats.get("blocks_stolen", 0))

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> None:
        if self._procs is not None:
            defunct = {
                rank
                for rank, p in enumerate(self._procs, start=1)
                if _proc_defunct(p)
            }
            if not defunct:
                self._dead_ranks.clear()
                return
            if defunct <= self._dead_ranks:
                # Every dead rank died mid-steal and the master already
                # accounted for it (its blocks were requeued, the job
                # completed, no collective is half-finished): respawn only
                # those ranks.  Survivors keep their warm resident caches
                # and published-dataset attachments.
                for rank in sorted(defunct):
                    self._respawn_rank(rank)
                self._dead_ranks.clear()
                return
            # An unacknowledged death (kill between jobs, or outside the
            # steal loop): the control plane may hold the dead rank's
            # unconsumed frames mid-collective, so rebuild the whole world.
            self._teardown_pool(graceful=False)
        self._spawn_pool()

    def _respawn_rank(self, rank: int) -> None:
        """Replace one dead worker in a live pool (fault-granular respawn).

        The new process inherits the pool's queues — safe because the
        dead rank's death was acknowledged at a message boundary — under a
        bumped generation tag, so the stale job frame its predecessor died
        in is dropped on arrival.  Its collective sequence number starts
        at the master's current value (every completed job leaves the
        world's numbering equal across ranks).
        """
        ctx = mp.get_context("fork")
        old = self._procs[rank - 1]
        if old.is_alive():  # defunct-but-unreaped (Z state): finish it
            old.terminate()
        _join_or_kill([old], timeout=5.0)
        comm = self._master_comm
        # Frames the dead rank sent before dying may still sit in the
        # master's out-of-order stash; they belong to no live protocol.
        comm._stash = [m for m in comm._stash if m[1] != rank]
        # A rank killed while blocked in ``inbox.get()`` dies holding the
        # queue's reader lock; its successor reuses the queue.
        _release_orphaned_reader_lock(self._inboxes[rank])
        self._generation += 1
        p = ctx.Process(
            target=_pool_worker,
            args=(
                self._comm_cls,
                rank,
                self._ranks,
                self._inboxes,
                self._results_q,
                self._generation,
                self._job_timeout,
                self._blas_threads,
                os.getpid(),
                comm._opseq,
            ),
            name=f"spmd-pool-{self.backend_name}-{rank}",
            daemon=True,
        )
        p.start()
        # In-place replacement keeps the finalizer's list (registered at
        # spawn over this same object) current.
        self._procs[rank - 1] = p
        self.rank_respawns += 1

    def _spawn_pool(self, job: SpmdFunction | None = None) -> None:
        ctx = mp.get_context("fork")
        self._generation += 1
        gen = self._generation
        self._inboxes = [ctx.Queue() for _ in range(self._ranks)]
        self._results_q = ctx.Queue()
        self._result_buffer = []
        parent = os.getpid()
        procs = []
        for rank in range(1, self._ranks):
            p = ctx.Process(
                target=_pool_worker,
                args=(
                    self._comm_cls,
                    rank,
                    self._ranks,
                    self._inboxes,
                    self._results_q,
                    gen,
                    self._job_timeout,
                    self._blas_threads,
                    parent,
                ),
                kwargs={"job": job},
                name=f"spmd-pool-{self.backend_name}-{rank}",
                daemon=True,
            )
            p.start()
            procs.append(p)
        self._procs = procs
        master_inboxes = list(self._inboxes)
        master_inboxes[0] = _WatchfulInbox(
            self._inboxes[0], self._check_world_health
        )
        self._master_comm = self._comm_cls(
            0, self._ranks, master_inboxes, self._job_timeout
        )
        # Steal-scheduler hooks: the master-side loop acknowledges worker
        # deaths (enabling single-rank respawn instead of pool teardown)
        # and reports per-job steal statistics through the communicator.
        self._master_comm._acknowledge_dead = self._acknowledge_dead_rank
        self._master_comm._on_steal_stats = self._note_steal_stats
        self._dead_ranks = set()
        self.spawns += 1
        self._finalizer = weakref.finalize(
            self, _reap_pool, procs, [*self._inboxes, self._results_q]
        )

    def _teardown_pool(self, *, graceful: bool) -> None:
        procs, inboxes = self._procs, self._inboxes
        results_q = self._results_q
        self._procs = None
        self._inboxes = None
        self._results_q = None
        self._result_buffer = []
        self._master_comm = None
        self._dead_ranks = set()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if procs is None:
            return
        if graceful:
            for rank, p in enumerate(procs, start=1):
                if p.is_alive():
                    try:
                        inboxes[rank].put(
                            (_STOP_KIND, self._generation, 0, None)
                        )
                    except (OSError, ValueError):
                        pass
            for p in procs:
                p.join(timeout=5)
        for p in procs:
            if p.is_alive():
                p.terminate()
        _join_or_kill(procs, timeout=5.0)
        # The queues are never reused (a respawn builds fresh ones), so
        # drop them without flushing: a feeder blocked on the pipe of a
        # killed worker must not hang interpreter shutdown.
        for q in (*inboxes, results_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        if self._closed:
            return
        # Flag first so queued submissions stop; then drain the dispatcher
        # *before* taking the pool lock — a running job holds it, and
        # joining under the lock would deadlock against that job.
        self._closed = True
        self._shutdown_dispatcher()
        with self._lock:
            self._cancel_idle_timer()
            self._teardown_pool(graceful=True)
            # After the workers are gone: their mappings of published
            # segments are released, so the unlink frees the pages too.
            self._drop_datasets()
        self._sweep_cache()

    # -- idle teardown -----------------------------------------------------

    def _schedule_idle_timer(self) -> None:
        if self._idle_timeout is None or self._procs is None:
            return
        timer = threading.Timer(
            self._idle_timeout, self._idle_teardown, args=(self._activity_seq,)
        )
        timer.daemon = True
        timer.start()
        self._idle_timer = timer

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _idle_teardown(self, armed_seq: int) -> None:
        # cancel() cannot stop a timer whose callback has already started
        # and is blocked on the lock behind a running job — so the timer
        # carries the activity sequence it was armed under, and a firing
        # that lost the race (any job ran since) is a no-op instead of
        # tearing down a pool that was busy milliseconds ago.
        with self._lock:
            if self._closed or self._procs is None:
                return
            if armed_seq != self._activity_seq:
                return
            self._teardown_pool(graceful=True)
