"""Process-based SPMD world (real OS processes, like MPI ranks).

SPRINT's ranks are OS processes, not threads.  :class:`ProcessComm` is the
per-rank communicator of that world: collectives are routed through
per-rank queues with rank 0 acting as the coordinator of a star topology
— semantically equivalent to (if slower than) MPI's trees, and entirely
adequate for the control-plane volumes pmaxT moves (options, the dataset
broadcast, two count vectors).

Trade-offs versus :class:`~repro.mpi.threads.ThreadComm`:

* true memory isolation — a rank cannot scribble on another's arrays, so
  this backend catches sharing bugs the thread world can't;
* payloads are pickled, so large broadcasts pay serialisation (the paper's
  "create data" section, honestly);
* requires the ``fork`` start method for closures to travel (the default
  on Linux).

Every process world is a :class:`~repro.mpi.session.WorkerPoolSession`,
the one place that forks worker ranks: as in SPRINT, the calling process
is rank 0 (the master) and the other ranks are forked workers.
:func:`run_spmd_processes` is the one-shot form — a pool opened for one
job and closed afterwards, its workers forked with the job in hand so
closures travel by fork.  Callers that dispatch many jobs against the same
rank count keep the pool open instead (:func:`~repro.mpi.backends.
open_session`), so workers, queues and per-rank caches stay resident.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
from typing import Any, Callable

import numpy as np

from ..errors import CommunicatorError
from .comm import Communicator, ReduceOp, SUM

__all__ = ["ProcessComm", "run_spmd_processes"]

_DEFAULT_TIMEOUT = 300.0


def _to_wire(arr: np.ndarray) -> tuple:
    """Encode a contiguous array as the queue wire format.

    One tuple shared by every process-world array collective, so the
    format can only change in one place.
    """
    return (arr.dtype.str, arr.shape, arr.tobytes())


def _from_wire(dtype: str, shape: tuple, buf: bytes) -> np.ndarray:
    """Decode the wire format; the result views the immutable buffer."""
    out = np.frombuffer(buf, dtype=np.dtype(dtype)).reshape(shape)
    out.flags.writeable = False
    return out


class ProcessComm(Communicator):
    """Per-rank communicator backed by multiprocessing queues.

    ``inboxes[r]`` carries every message addressed to rank ``r`` as
    ``(kind, source, tag, payload)`` tuples.  Collectives are star-shaped:
    non-root ranks exchange with the coordinator (rank 0 for barriers,
    the operation's ``root`` otherwise) using reserved kinds, so user
    point-to-point traffic and collective traffic cannot be confused.
    """

    #: Session hooks attached to the master-rank communicator by
    #: :class:`~repro.mpi.session.WorkerPoolSession`; the work-stealing
    #: scheduler reads them via ``getattr``.  ``None`` on worker ranks.
    _acknowledge_dead: Callable[[int], None] | None = None
    _on_steal_stats: Callable[[dict], None] | None = None

    def __init__(self, rank: int, size: int, inboxes, timeout: float = _DEFAULT_TIMEOUT):
        self._rank = rank
        self._size = size
        self._inboxes = inboxes
        self._timeout = timeout
        self._stash: list[tuple] = []  # out-of-order messages
        #: Root-side tally of array-broadcast payload bytes shipped to
        #: workers (``nbytes`` x receivers per ``bcast_array``).  The
        #: dataset registry's acceptance test reads it to prove that a
        #: published matrix crosses the wire zero times per call.
        self.array_bytes = 0
        # Collective sequence number.  Every rank executes the same
        # collective sequence (SPMD), so numbering the operations keeps
        # back-to-back collectives of the same kind from racing: a fast
        # rank's gather #2 payload can arrive while the root is still
        # collecting gather #1, and must not be consumed by it.
        self._opseq = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- plumbing ---------------------------------------------------------------

    def _put(self, dest: int, kind: str, tag: int, payload: Any) -> None:
        if not 0 <= dest < self._size:
            raise CommunicatorError(f"dest {dest} out of range [0, {self._size})")
        self._inboxes[dest].put((kind, self._rank, tag, payload))

    def _get(self, kind: str, source: int | None, tag: int) -> Any:
        """Receive the next matching message, stashing non-matching ones."""
        for i, msg in enumerate(self._stash):
            k, src, t, payload = msg
            if k == kind and t == tag and (source is None or src == source):
                del self._stash[i]
                return src, payload
        while True:
            try:
                msg = self._inboxes[self._rank].get(timeout=self._timeout)
            except queue_mod.Empty:
                raise CommunicatorError(
                    f"rank {self._rank} timed out waiting for {kind} "
                    f"(source={source}, tag={tag})"
                ) from None
            k, src, t, payload = msg
            if k == kind and t == tag and (source is None or src == source):
                return src, payload
            self._stash.append(msg)

    # -- collectives ---------------------------------------------------------------

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        if self._rank == root:
            if self._size > 1:
                # Pre-pickle once: each queue put then ships opaque bytes
                # (one serialisation instead of one per worker), and an
                # unpicklable payload raises *here* instead of failing
                # silently in the queue's feeder thread — which would
                # leave every worker blocked waiting for a broadcast that
                # never arrives.
                try:
                    wire = pickle.dumps(obj,
                                        protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    raise CommunicatorError(
                        f"bcast payload is not picklable for the process "
                        f"world: {exc!r} (module-level functions travel; "
                        "lambdas and local closures do not)") from exc
                for dest in range(self._size):
                    if dest != root:
                        self._put(dest, "bcast", seq, wire)
            return obj
        _, payload = self._get("bcast", root, seq)
        return pickle.loads(payload)

    def gather(self, obj: Any, root: int = 0):
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        if self._rank == root:
            out: list[Any] = [None] * self._size
            out[root] = obj
            for _ in range(self._size - 1):
                src, payload = self._get("gather", None, seq)
                out[src] = payload
            return out
        self._put(root, "gather", seq, obj)
        return None

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        gathered = self.gather(value, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for other in gathered[1:]:
            acc = op(acc, other)
        return acc

    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        result = self.reduce(value, op=op, root=0)
        return self.bcast(result, root=0)

    # -- array-aware collectives ---------------------------------------------------

    def bcast_array(self, arr, root: int = 0, *, dtype=None):
        """Broadcast an array as ``(dtype, shape, bytes)`` instead of an object.

        The wire format guarantees the payload is a single contiguous buffer
        (ndarray pickling of a strided array would first densify it on every
        send) and reconstruction on the receivers is a plain frombuffer-copy
        rather than object unpickling.  The data still crosses the queue pipe
        once per worker — :class:`~repro.mpi.shm.ShmComm` is the backend that
        removes that copy entirely.

        ``dtype`` (root-side) casts the payload before it hits the wire, so
        a float32 compute run ships float32 bytes — half the pipe traffic —
        instead of casting after a float64 transfer.
        """
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        if self._rank == root:
            if dtype is None:
                arr = np.ascontiguousarray(arr)
            else:
                arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
            wire = _to_wire(arr)
            self.array_bytes += arr.nbytes * (self._size - 1)
            for dest in range(self._size):
                if dest != root:
                    self._put(dest, "bcast-arr", seq, wire)
            return arr
        _, wire = self._get("bcast-arr", root, seq)
        return _from_wire(*wire)

    def reduce_array(self, arr, op: ReduceOp = SUM, root: int = 0):
        """Reduce arrays with streaming, in-place accumulation at the root.

        Unlike the generic ``reduce`` (a gather holding all ``size`` payloads
        at once), the root folds each contribution into the accumulator as
        soon as its turn in rank order comes up, bounding peak memory at
        ~two vectors regardless of world size.
        """
        self._check_root(root)
        seq = self._opseq
        self._opseq += 1
        arr = np.ascontiguousarray(arr)
        if self._rank != root:
            self._put(root, "reduce-arr", seq, _to_wire(arr))
            return None
        pending: dict[int, tuple] = {}
        acc: np.ndarray | None = None
        for nxt in range(self._size):
            if nxt == root:
                contribution = arr
            else:
                while nxt not in pending:
                    src, wire = self._get("reduce-arr", None, seq)
                    pending[src] = wire
                contribution = _from_wire(*pending.pop(nxt))
            if acc is None:
                acc = np.array(contribution, copy=True)
            else:
                acc = op(acc, contribution)
        return acc

    def barrier(self) -> None:
        # two-phase star barrier through rank 0
        seq = self._opseq
        self._opseq += 1
        if self._rank == 0:
            for _ in range(self._size - 1):
                self._get("barrier-in", None, seq)
            for dest in range(1, self._size):
                self._put(dest, "barrier-out", seq, None)
        else:
            self._put(0, "barrier-in", seq, None)
            self._get("barrier-out", 0, seq)

    # -- point-to-point ----------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._put(dest, "p2p", tag, obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self._size:
            raise CommunicatorError(
                f"source {source} out of range [0, {self._size})"
            )
        _, payload = self._get("p2p", source, tag)
        return payload

    def recv_any(self, tag: int = 0) -> tuple[int, Any]:
        src, payload = self._get("p2p", None, tag)
        return src, payload

    def poll_any(self, tag: int = 0) -> tuple[int, Any] | None:
        """Non-blocking any-source receive.

        Checks the stash first, then drains the inbox without blocking,
        stashing anything that is not a matching point-to-point frame (a
        collective payload drained here must survive for the collective
        that expects it).
        """
        for i, msg in enumerate(self._stash):
            k, src, t, payload = msg
            if k == "p2p" and t == tag:
                del self._stash[i]
                return src, payload
        while True:
            try:
                msg = self._inboxes[self._rank].get_nowait()
            except (queue_mod.Empty, OSError, ValueError, EOFError):
                return None
            k, src, t, payload = msg
            if k == "p2p" and t == tag:
                return src, payload
            self._stash.append(msg)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self._size:
            raise CommunicatorError(f"root {root} out of range [0, {self._size})")


def run_spmd_processes(
    fn: Callable[[Communicator], Any],
    size: int,
    timeout: float = _DEFAULT_TIMEOUT,
    comm_cls: type[ProcessComm] = ProcessComm,
    blas_threads: int | None = None,
) -> list[Any]:
    """Run ``fn(comm)`` on ``size`` ranks; return rank-ordered results.

    A :class:`~repro.mpi.session.WorkerPoolSession` opened for this one
    job: rank 0 runs ``fn`` in the caller, the ``size - 1`` worker ranks
    are forked with ``fn`` in hand (plain functions and closures are fine
    on Linux; nothing is pickled), and the pool is closed afterwards.  An
    exception on rank 0 propagates with its own type; a failing worker
    raises a :class:`CommunicatorError` carrying its traceback, and a dead
    one a :class:`~repro.errors.WorkerDeadError` within the session's
    health-poll interval.

    ``timeout`` bounds every collective and the result collection.
    ``comm_cls`` selects the per-rank communicator (default
    :class:`ProcessComm`; :func:`~repro.mpi.shm.run_spmd_shm` passes
    :class:`~repro.mpi.shm.ShmComm`).  ``blas_threads`` caps each rank's
    BLAS threadpool while ``fn`` runs: ``None`` (default) applies the
    automatic ``max(1, cores // size)`` anti-oversubscription cap, an
    explicit integer forces that budget, and ``0`` leaves the pool
    untouched (see :mod:`repro.mpi.blasctl`).
    """
    from .session import WorkerPoolSession

    pool = WorkerPoolSession(comm_cls, size, blas_threads=blas_threads, job_timeout=timeout)
    return pool._run_once(fn)
