"""The three benchmark workloads.

Each workload makes its inputs from the seed, opens the program the way
its users do (:meth:`Workload.open`, the timed set-up), and then hands
out numbered requests (:meth:`Workload.request`) that the runner's client
threads send in a closed loop.  Every request carries its serial
reference (``mt_maxT`` for pmaxT, ``cor`` for pcor), which the runner
compares bit for bit on a sample of requests after the timed phase.

* ``bulk-exon36k`` — one large analysis at a time: the paper's Table VI
  shape (36 612 x 76, Welch t, float64) published once into a warm
  2-rank ``shm`` session, no cache, ``schedule="auto"`` (steal).  The run
  is kernel-bound; the cache, publish and serve layers are idle.
* ``service-small`` — 2 closed-loop clients against a ``PoolManager``
  (1 pool x 2 ``shm`` ranks, result cache attached, as ``repro-maxt serve
  --cache-dir`` deploys it).  Many small distinct jobs (1 000 x 40,
  B = 1 000) over a rotating set of datasets, cycling the six statistics,
  with one request in six a ``pcor`` on fresh data: per-request overhead
  dominates and the cache only writes.
* ``reanalysis-6k`` — an analyst on the library API:
  ``pmaxT(handle, session=ses)`` on ``open_session("shm", 2, cache_dir=...)``
  at the paper's Tables I-V shape (6 102 x 76).  Each dataset runs a
  scripted cycle: cold run at B, exact repeats (cache hits), two B
  doublings (incremental extensions) with repeats, and one
  ``checkpoint_dir=`` run (static plan).  p50 tracks the cache read
  path, p95 compute and writes.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.corr import cor
from repro.data import (
    block_labels,
    multiclass_labels,
    paired_labels,
    paper_dataset,
    synthetic_expression,
    two_class_labels,
)
from repro.mpi import open_session
from repro.mpi.blasctl import blas_thread_limit, recommended_blas_threads
from repro.serve import PoolManager

RANKS = 2


@dataclass(frozen=True)
class Scale:
    """Problem sizes; the defaults are the benchmark, ``TINY`` its tests."""

    #: Rows of the bulk matrix (``None``: the paper's exon-36k dataset).
    bulk_genes: int | None = None
    bulk_B: int = 512
    service_genes: int = 1_000
    service_samples: int = 40
    service_B: int = 1_000
    service_datasets: int = 4
    #: Rows of the reanalysis matrices (``None``: microarray-6k).
    reanalysis_genes: int | None = None
    reanalysis_B: int = 500
    reanalysis_datasets: int = 8
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5
    #: Per-request deadline in seconds (expiry is a failed operation).
    timeout: float = 120.0


TINY = Scale(bulk_genes=300, bulk_B=64, service_genes=120, service_B=100,
             service_datasets=2, reanalysis_genes=200, reanalysis_B=64,
             reanalysis_datasets=2, setups=1, timeout=60.0)


@dataclass
class Request:
    index: int
    #: Permutations this request computes (0 for cache hits and pcor).
    perms: int
    call: Callable[[], Any]
    #: The serial reference path computing the same answer.
    reference: Callable[[], Any]
    #: Requests with equal keys share one reference computation.
    key: tuple
    #: Whether the runner checks this request against its reference.
    sample: bool


def same_result(got, want) -> bool:
    """Bit-for-bit equality of two pmaxT results or two matrices."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and np.array_equal(got, want, equal_nan=True))
    return (got is not None and int(got.nperm) == int(want.nperm)
            and np.array_equal(got.teststat, want.teststat, equal_nan=True)
            and np.array_equal(got.rawp, want.rawp, equal_nan=True)
            and np.array_equal(got.adjp, want.adjp, equal_nan=True)
            and np.array_equal(got.order, want.order))


def _on_rank_budget(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under the BLAS budget of one session rank.

    OpenBLAS splits a large GEMM's sums differently across thread counts,
    so the serial reference (and the one-rank efficiency pass) runs with
    the thread budget each rank has: the comparison is then of the same
    arithmetic.
    """
    def call():
        with blas_thread_limit(recommended_blas_threads(RANKS)):
            return fn(*args, **kwargs)
    return call


def _serial_maxt(X, labels, **kwargs):
    return _on_rank_budget(repro.mt_maxT, X, labels, **kwargs)


class Workload:
    """Base class: inputs, lifecycle, requests and counter snapshots."""

    name = ""
    #: Closed-loop client threads.
    clients = 1

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = int(seed)
        self.scale = scale
        self.workdir = Path(workdir)
        self.session = None
        self.opens = 0
        self.make_inputs()

    def _seed(self, *parts: int) -> int:
        """A pmaxT permutation seed derived from the workload seed."""
        return int(np.random.default_rng([self.seed, *parts]).integers(1, 2**31))

    def make_inputs(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        """Set-up: open the program, publish, finish the warm-up call."""
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def sessions(self) -> list:
        return [self.session] if self.session is not None else []

    def pids(self) -> list[int]:
        return [pid for s in self.sessions() for pid in s.worker_pids()]

    def cache(self):
        return None

    def snapshot(self) -> dict:
        """Cumulative counters; the runner differences two snapshots."""
        keys = ("jobs_run", "steal_jobs", "blocks_stolen", "bcast_array_bytes",
                "spawns", "rank_respawns")
        snap = {k: 0 for k in keys}
        for s in self.sessions():
            stats = s.stats()
            for k in keys:
                snap[k] += stats.get(k, 0)
        cache = self.cache()
        stats = cache.stats() if cache is not None else {}
        for k in ("cache_hits", "cache_misses", "cache_extended"):
            snap[k] = stats.get(k, 0)
        return snap

    def job_counters(self) -> dict:
        """Per-layer values only the workload can read (service jobs)."""
        return {}

    def representative(self) -> tuple[Callable, Callable]:
        """``(two_rank, one_rank)`` calls of one typical analysis."""
        raise NotImplementedError

    def _serial(self, X, labels, **kwargs) -> Callable:
        return _on_rank_budget(repro.pmaxT, X, labels, **kwargs)


class BulkExon36k(Workload):
    name = "bulk-exon36k"

    def make_inputs(self) -> None:
        s = self.scale
        if s.bulk_genes is None:
            self.X, self.labels, _ = paper_dataset("exon-36k", seed=self.seed)
        else:
            self.X, _ = synthetic_expression(s.bulk_genes, 76, n_class1=38,
                                             seed=self.seed)
            self.labels = two_class_labels(38, 38)

    def open(self) -> None:
        self.session = open_session("shm", RANKS)
        self.handle = self.session.publish(self.X, self.labels)
        repro.pmaxT(self.handle, session=self.session, B=64,
                    seed=self._seed(1, self.opens), timeout=self.scale.timeout)
        self.opens += 1

    def request(self, i: int) -> Request:
        B, seed = self.scale.bulk_B, self._seed(2, i)
        return Request(
            index=i, perms=B,
            call=lambda: repro.pmaxT(self.handle, session=self.session, B=B,
                                     seed=seed, timeout=self.scale.timeout),
            reference=_serial_maxt(self.X, self.labels, B=B, seed=seed),
            key=(B, seed), sample=(i == 0))

    def representative(self):
        B, seed = self.scale.bulk_B, self._seed(3)
        return (lambda: repro.pmaxT(self.handle, session=self.session, B=B,
                                    seed=seed, timeout=self.scale.timeout),
                self._serial(self.X, self.labels, B=B, seed=seed))


#: The six statistics and the label design each needs (40 columns).
STATISTICS = ("t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf")


def _design(test: str, n: int) -> np.ndarray:
    if test == "f":
        return multiclass_labels([n - 2 * (n // 3), n // 3, n // 3])
    if test == "pairt":
        return paired_labels(n // 2)
    if test == "blockf":
        return block_labels(n // 4, 4)
    return two_class_labels(n // 2, n - n // 2)


class ServiceSmall(Workload):
    name = "service-small"
    clients = 2

    def make_inputs(self) -> None:
        s = self.scale
        self.datasets = [
            synthetic_expression(s.service_genes, s.service_samples,
                                 n_class1=s.service_samples // 2,
                                 seed=self._seed(10, d))[0]
            for d in range(s.service_datasets)]
        self.designs = {t: _design(t, s.service_samples) for t in STATISTICS}
        self.manager = None
        #: (queued, running) seconds of each finished service job.
        self._waits: list = []
        self._jobs_lock = threading.Lock()

    def open(self) -> None:
        self.cache_dir = self.workdir / f"service-cache-{self.opens}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.manager = PoolManager("shm", RANKS, pools=1,
                                   cache_dir=str(self.cache_dir),
                                   job_timeout=self.scale.timeout)
        job = self.manager.submit_pmaxt(
            self.datasets[0], self.designs["t"], B=self.scale.service_B,
            seed=self._seed(11, self.opens))
        job.result(timeout=self.scale.timeout)
        self.opens += 1

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
            self.manager = None

    def sessions(self) -> list:
        # The manager owns its pools' sessions; the benchmark reads their
        # counters and worker pids from outside.
        if self.manager is None:
            return []
        return [pool.session for pool in self.manager._pools]

    def cache(self):
        return self.manager.cache if self.manager is not None else None

    def snapshot(self) -> dict:
        snap = super().snapshot()
        stats = self.manager.stats()
        for k in ("cache_answers", "jobs_rerouted", "jobs_failed"):
            snap[k] = stats[k]
        return snap

    def job_counters(self) -> dict:
        with self._jobs_lock:
            waits, self._waits = self._waits, []
        if not waits:
            return {}
        queued, running = zip(*waits)
        return {"serve.queue_wait_ms": 1e3 * float(np.mean(queued)),
                "serve.run_ms": 1e3 * float(np.mean(running))}

    def _submit(self, submit: Callable):
        def call():
            job = submit()
            try:
                return job.result(timeout=self.scale.timeout)
            finally:
                # Keep the job's timestamps only: holding the job would
                # keep its result alive and inflate peak_rss_mb.
                if job.started_at is not None and job.finished_at is not None:
                    with self._jobs_lock:
                        self._waits.append(
                            (job.started_at - job.submitted_at,
                             job.finished_at - job.started_at))
        return call

    def request(self, i: int) -> Request:
        s = self.scale
        cycle, slot = divmod(i, 6)
        sample = i < 12 or i % 50 == 0
        if slot == 5:
            # pcor on fresh data: identical bytes would be a cache hit.
            X = np.random.default_rng([self.seed, 12, i]).standard_normal(
                (s.service_genes, s.service_samples))
            return Request(
                index=i, perms=0,
                call=self._submit(lambda: self.manager.submit_pcor(X)),
                reference=_on_rank_budget(cor, X), key=("pcor", i),
                sample=sample)
        k = cycle * 5 + slot
        test = STATISTICS[k % len(STATISTICS)]
        X = self.datasets[cycle % len(self.datasets)]
        labels = self.designs[test]
        seed = self._seed(13, i)
        return Request(
            index=i, perms=s.service_B,
            call=self._submit(lambda: self.manager.submit_pmaxt(
                X, labels, test=test, B=s.service_B, seed=seed)),
            reference=_serial_maxt(X, labels, test=test, B=s.service_B,
                                   seed=seed),
            key=("pmaxt", i), sample=sample)

    def representative(self):
        s = self.scale
        X, labels, seed = self.datasets[0], self.designs["t"], self._seed(14)
        # A fresh seed per two-rank call keeps it a cold run, not a hit.
        seeds = iter(range(seed, seed + 1_000))

        def two_rank():
            return self.manager.submit_pmaxt(
                X, labels, B=s.service_B, seed=next(seeds)).result(
                    timeout=s.timeout)
        return two_rank, self._serial(X, labels, B=s.service_B, seed=seed)


#: One dataset's scripted cycle: (kind, B multiplier).
REANALYSIS_CYCLE = (
    ("cold", 1), ("hit", 1), ("hit", 1), ("hit", 1), ("hit", 1),
    ("extend", 2), ("hit", 2), ("hit", 2),
    ("extend", 4), ("hit", 4), ("hit", 4),
    ("checkpoint", 1),
)


class Reanalysis6k(Workload):
    name = "reanalysis-6k"

    def make_inputs(self) -> None:
        s = self.scale
        self.datasets = []
        for d in range(s.reanalysis_datasets):
            if s.reanalysis_genes is None:
                X, labels, _ = paper_dataset("microarray-6k",
                                             seed=self._seed(20, d))
            else:
                X, _ = synthetic_expression(s.reanalysis_genes, 76,
                                            n_class1=38, seed=self._seed(20, d))
                labels = two_class_labels(38, 38)
            self.datasets.append((X, labels))

    def open(self) -> None:
        self.cache_dir = self.workdir / f"reanalysis-cache-{self.opens}"
        self.checkpoint_dir = self.workdir / f"reanalysis-ckpt-{self.opens}"
        for d in (self.cache_dir, self.checkpoint_dir):
            shutil.rmtree(d, ignore_errors=True)
        self.session = open_session("shm", RANKS, cache_dir=str(self.cache_dir))
        self.handles = [self.session.publish(X, labels)
                        for X, labels in self.datasets]
        repro.pmaxT(self.handles[0], session=self.session, B=64,
                    seed=self._seed(21, self.opens), timeout=self.scale.timeout)
        self.opens += 1

    def cache(self):
        return self.session.cache if self.session is not None else None

    def request(self, i: int) -> Request:
        B0 = self.scale.reanalysis_B
        cycle, step = divmod(i, len(REANALYSIS_CYCLE))
        kind, mult = REANALYSIS_CYCLE[step]
        d = cycle % len(self.datasets)
        X, labels = self.datasets[d]
        handle = self.handles[d]
        B, seed = B0 * mult, self._seed(22, cycle)
        extra: dict = {}
        perms = {"cold": B, "hit": 0, "extend": B - B // 2}.get(kind, B)
        if kind == "checkpoint":
            seed = self._seed(23, cycle)
            extra = dict(checkpoint_dir=str(self.checkpoint_dir),
                         checkpoint_interval=max(1, B0 // 4))
        return Request(
            index=i, perms=perms,
            call=lambda: repro.pmaxT(handle, session=self.session, B=B,
                                     seed=seed, timeout=self.scale.timeout,
                                     **extra),
            reference=_serial_maxt(X, labels, B=B, seed=seed),
            key=(d, B, seed), sample=(cycle == 0))

    def representative(self):
        (X, labels), handle = self.datasets[0], self.handles[0]
        B, seed = self.scale.reanalysis_B, self._seed(24)
        # A fresh seed per two-rank call keeps it a cold run, not a hit.
        seeds = iter(range(seed, seed + 1_000))
        return (lambda: repro.pmaxT(handle, session=self.session, B=B,
                                    seed=next(seeds),
                                    timeout=self.scale.timeout),
                self._serial(X, labels, B=B, seed=seed))


WORKLOADS = {w.name: w for w in (BulkExon36k, ServiceSmall, Reanalysis6k)}
