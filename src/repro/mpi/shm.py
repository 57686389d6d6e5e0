"""Shared-memory SPMD world: OS processes, zero-copy array collectives.

The paper's Tables I–V put the "create data" broadcast second only to the
kernel in pmaxT's time budget, and :class:`~repro.mpi.processes.ProcessComm`
pays it in full: every broadcast pickles the matrix and pushes it through a
per-rank pipe — one serialise and one copy *per worker*.  :class:`ShmComm`
keeps the process world's true memory isolation for the control plane (the
same queues, barriers and sequence numbers as ``ProcessComm``) but moves
numpy arrays through ``multiprocessing.shared_memory`` segments:

* :meth:`ShmComm.bcast_array` — the root copies the array **once** into a
  shared segment and broadcasts only ``(name, shape, dtype)``; every worker
  maps the segment and returns a read-only zero-copy view.  Cost is one
  memcpy total instead of one pickle-pipe-unpickle round per worker.
* :meth:`ShmComm.reduce_array` — each contributor writes its vector into a
  shared segment; the root accumulates directly out of the mapped buffers
  in rank order (bit-identical to every other backend) with no pickling.

Lifecycle: every collective ends with a rendezvous after which the
creator unlinks its segment immediately — workers keep their (already
established) mappings for as long as the returned views live, since POSIX
keeps a mapping valid after the name is gone.  No named segment outlives
the collective that created it, so even a rank killed by the failure-path
teardown cannot strand one.

The returned broadcast views are marked read-only: ranks genuinely share
the pages, so a scribble would be visible world-wide — the same hazard the
thread world has, made explicit here.
"""

from __future__ import annotations

import sys
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Callable

import numpy as np

from .comm import Communicator, ReduceOp, SUM
from .processes import (
    _DEFAULT_TIMEOUT,
    _from_wire,
    _to_wire,
    ProcessComm,
    run_spmd_processes,
)

__all__ = ["ShmComm", "run_spmd_shm", "SHM_THRESHOLD_BYTES"]

#: Payloads smaller than this ride the queue wire format instead: a shared
#: segment costs a few shm_open/mmap/unlink syscalls per rank plus a
#: rendezvous, which only pays for itself once the pickle-and-pipe cost it
#: replaces is bigger.  256 KiB is comfortably past the crossover measured
#: in ``benchmarks/bench_backend_broadcast.py``.
SHM_THRESHOLD_BYTES = 1 << 18


_ATTACH_LOCK = threading.Lock()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without messaging the resource tracker.

    Only a segment's creator may be registered.  Before Python 3.13
    attaching registers the name too, and forked ranks share their
    creator's tracker, so an attach-then-unregister cycle would delete the
    creator's own registration and its later unlink would make the
    tracker print a ``KeyError`` traceback.  Older interpreters therefore
    skip exactly this name's registration while attaching.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - newer interpreters
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register

    def register_others(rname: str, rtype: str) -> None:
        if rname.lstrip("/") != name.lstrip("/"):
            register(rname, rtype)

    with _ATTACH_LOCK:
        resource_tracker.register = register_others
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


class ShmComm(ProcessComm):
    """Process-world communicator with shared-memory array collectives."""

    def __init__(self, rank: int, size: int, inboxes, timeout: float = _DEFAULT_TIMEOUT):
        super().__init__(rank, size, inboxes, timeout)
        self._attached: list[shared_memory.SharedMemory] = []

    # -- array collectives --------------------------------------------------------

    def _share(self, arr: np.ndarray) -> tuple[shared_memory.SharedMemory, tuple]:
        """Copy ``arr`` into a fresh shared segment; return it + metadata."""
        arr = np.ascontiguousarray(arr)
        segment = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)
        view[...] = arr
        return segment, (segment.name, arr.shape, arr.dtype.str)

    def _map(self, meta: tuple) -> tuple[shared_memory.SharedMemory, np.ndarray]:
        """Attach a peer's segment and return a read-only ndarray view."""
        name, shape, dtype = meta
        segment = _attach(name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        view.flags.writeable = False
        return segment, view

    def bcast_array(self, arr, root: int = 0, *, dtype=None):
        self._check_root(root)
        if self.size == 1:
            if dtype is None:
                return np.ascontiguousarray(arr)
            return np.ascontiguousarray(arr, dtype=np.dtype(dtype))
        # Only the root knows the payload size, so the route travels in the
        # message: small arrays go over the queue wire (same format as
        # ProcessComm), large ones as a shared segment.  The closing
        # barrier of the segment route makes the broadcast a rendezvous
        # (like the thread world's): every worker has mapped the segment
        # before any rank moves on, so the root cannot reach teardown —
        # which unlinks the name — while a slow worker is still attaching.
        # Mappings taken before the unlink stay valid while the view lives.
        if self._rank == root:
            # Dtype-aware wire: the cast happens *before* the route choice,
            # so a float32 run both ships half the bytes and picks its
            # route from the true payload size.
            if dtype is None:
                arr = np.ascontiguousarray(arr)
            else:
                arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
            if arr.nbytes < SHM_THRESHOLD_BYTES:
                self.array_bytes += arr.nbytes * (self.size - 1)
                self.bcast(("wire", *_to_wire(arr)), root=root)
                return arr
            # The segment route moves the payload once (root memcpy into
            # the segment), regardless of world size.
            self.array_bytes += arr.nbytes
            segment, meta = self._share(arr)
            try:
                self.bcast(("shm", *meta), root=root)
                self.barrier()
                # Every worker holds a mapping now, and mappings survive
                # the unlink — so the name is reclaimed immediately rather
                # than at teardown.
            finally:
                # Unlink even when the collective fails mid-way (a peer
                # died; the barrier raised).  The root of a persistent
                # session is a long-lived service process, so a segment
                # left for the resource tracker's at-exit sweep would pin
                # matrix-sized shared memory until the service restarts.
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
            return arr
        route, *rest = self.bcast(None, root=root)
        if route == "wire":
            return _from_wire(*rest)
        self._prune_attached()
        segment, view = self._map(tuple(rest))
        self._attached.append(segment)
        self.barrier()
        return view

    def reduce_array(self, arr, op: ReduceOp = SUM, root: int = 0):
        self._check_root(root)
        arr = np.ascontiguousarray(arr)
        if self.size == 1:
            return np.array(arr, copy=True)
        if arr.nbytes < SHM_THRESHOLD_BYTES:
            # SPMD: every rank sees the same shape/dtype, so all take the
            # same route.  The queue wire wins below the crossover.
            return super().reduce_array(arr, op=op, root=root)
        if self._rank != root:
            segment, meta = self._share(arr)
            try:
                self.gather(meta, root=root)
                # The closing barrier guarantees the root has finished
                # reading; the creator then reclaims its own segment.
                self.barrier()
            finally:
                # As in bcast_array: reclaim the name on the failure path
                # too, so a contributor that survives a failed collective
                # (e.g. a session worker whose peer died) strands nothing.
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
            return None
        metas = self.gather(None, root=root)
        acc: np.ndarray | None = None
        for rank, meta in enumerate(metas):
            if rank == root:
                contribution, segment = arr, None
            else:
                segment, contribution = self._map(meta)
            if acc is None:
                acc = np.array(contribution, copy=True)
            else:
                acc = op(acc, contribution)
            if segment is not None:
                del contribution
                segment.close()
        self.barrier()
        return acc

    # -- lifecycle ---------------------------------------------------------------

    def _prune_attached(self) -> None:
        """Release mappings whose views are gone.

        Without this, a job that broadcasts repeatedly over one world would
        pin every broadcast's pages until teardown.  ``close`` raises
        :class:`BufferError` while a live view still exports the buffer, so
        exactly the mappings still in use survive the sweep.
        """
        still_referenced = []
        for segment in self._attached:
            try:
                segment.close()
            except BufferError:
                still_referenced.append(segment)
        self._attached = still_referenced


def run_spmd_shm(
    fn: Callable[[Communicator], Any],
    size: int,
    timeout: float = _DEFAULT_TIMEOUT,
    blas_threads: int | None = None,
) -> list[Any]:
    """Run ``fn(comm)`` on ``size`` ranks with shared-memory arrays.

    Identical contract to :func:`~repro.mpi.processes.run_spmd_processes`
    (a one-job worker pool: rank 0 in the caller, workers forked with
    ``fn`` in hand, rank-ordered results, the same per-rank
    ``blas_threads`` cap) but each rank receives a :class:`ShmComm`, so
    ``bcast_array`` and ``reduce_array`` move numpy data through shared
    memory instead of pickled queue payloads.
    """
    return run_spmd_processes(
        fn, size, timeout=timeout, comm_cls=ShmComm, blas_threads=blas_threads
    )
