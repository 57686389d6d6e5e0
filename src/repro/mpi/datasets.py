"""Publish-once dataset registry: broadcast a matrix zero times per call.

The paper's Tables I–V show the "create data" broadcast is pmaxT's
second-largest cost, and the session layer still pays it on *every* warm
call: the resident workers are long-lived, but the matrix crosses the
world (one shm memcpy, or one pickle per worker) each time.  For the
paper's dominant workload — many analyses over the *same* expression
matrix — that is pure waste.

A :class:`DatasetRegistry` removes it.  ``session.publish(X, labels=...)``
writes the matrix into a named ``multiprocessing.shared_memory`` segment
**exactly once** and returns a small :class:`PublishedDataset` handle.
Subsequent ``pmaxT``/``pcor`` calls accept the handle in place of the
matrix: the master resolves it to its resident read-only view, broadcasts
only the segment's ``(name, shape, dtype)`` descriptor (a few dozen
bytes), and each worker maps the segment by name — memoised in its
session-resident cache, so a warm worker re-maps nothing at all.

Variants
--------
The registry materialises per-``(dtype, na)`` *variants* of the published
matrix lazily, so the bytes a consumer sees are identical to what the
broadcast wire would have carried:

* ``("float64", None, False)`` — the base variant: contiguous float64,
  NA codes kept raw (every rank's statistic NaN-ifies them, the
  pre-registry behaviour).  This is also what ``pcor`` consumes.
* ``("float32", na, False)`` — NA codes become NaN *before* the cast
  (``MT_NA_NUM`` is not float32-representable), matching pmaxT's
  float32 wire exactly.
* ``(dtype, na, True)`` — the ``nonpara = "y"`` wire: NA codes become
  NaN, then the row-wise average-rank transform (computed on the same
  dtype the per-rank transform would see) replaces the data, missing
  cells staying NaN.  A published ``nonpara`` run maps this shared
  pre-ranked segment and its ranks skip the per-rank re-rank entirely —
  the transform runs once per publish, not once per rank per call.

Lifecycle
---------
Segments are owned by the publishing process.  They are unlinked by
``session.close()`` (via :meth:`DatasetRegistry.close`), by garbage
collection of an unclosed registry (a ``weakref.finalize`` per published
dataset), and survive worker-pool respawns untouched — a respawned
worker's resident cache is empty, so it simply re-maps on first use.
Every unlink is guarded by the publishing PID: a forked child (one-shot
worlds inherit the registry's address space) exiting must not reclaim
the parent's live segments.

Worker-side attachments never register with the
``multiprocessing.resource_tracker`` (see :func:`repro.mpi.shm._attach`):
only the publisher owns a segment, so a worker's exit can never unlink it
out from under the session.
"""

from __future__ import annotations

import os
import secrets
import threading
import weakref
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..errors import DataError
from .session import resident_cache
from .shm import _attach

__all__ = [
    "PublishedDataset",
    "DatasetRegistry",
    "attach_published_view",
]

#: Route descriptor broadcast in place of the matrix: segment name, array
#: shape, numpy dtype string.  Same triple as the shm collective metadata.
SegmentRoute = tuple


def _unlink_segments(owner_pid: int, segments: list) -> None:
    """Finalizer: unlink segments, but only in the process that made them.

    ``segments`` is the record's live mutable list (lazily created
    variants append to it), so the finalizer registered at publish time
    covers variants materialised later.  The PID guard matters: one-shot
    fork worlds inherit the registry, and a child's interpreter shutdown
    must close its inherited mappings without unlinking the names the
    parent still serves.
    """
    mine = os.getpid() == owner_pid
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # a view still exports the buffer; OS reclaims
            pass
        if mine:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
    segments.clear()


class _DatasetRecord:
    """Publisher-side state of one published dataset (master only)."""

    def __init__(self, use_shm: bool, base: np.ndarray, labels: np.ndarray | None):
        self.use_shm = use_shm
        self.labels = labels
        self.owner_pid = os.getpid()
        self.closed = False
        self._lock = threading.Lock()
        #: (dtype, na, rank) -> (route | None, read-only view)
        self._variants: dict[tuple, tuple] = {}
        #: Live segments, shared with the GC finalizer (see module doc).
        self._segments: list = []
        self._store("float64", None, False, base)
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self.owner_pid, self._segments)

    @property
    def base(self) -> np.ndarray:
        """The float64 base variant (NA codes raw)."""
        return self._variants[("float64", None, False)][1]

    def nbytes(self) -> int:
        return sum(int(v.nbytes) for _, v in self._variants.values())

    def _store(self, dtype: str, na: float | None, rank: bool,
               arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.dtype(dtype))
        if self.use_shm:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes))
            view: np.ndarray = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=segment.buf)
            view[...] = arr
            view.flags.writeable = False
            self._segments.append(segment)
            route = (segment.name, arr.shape, arr.dtype.str)
        else:
            view = arr
            view.flags.writeable = False
            route = None
        self._variants[(dtype, na, rank)] = (route, view)

    def variant(self, dtype: str, na: float | None,
                rank: bool = False) -> tuple:
        """Resolve (materialising lazily) the ``(route, view)`` variant."""
        key = (dtype, None if na is None else float(na), bool(rank))
        with self._lock:
            if self.closed:
                raise DataError(
                    "published dataset has been closed (its session was "
                    "closed or the dataset unpublished); re-publish it")
            if key not in self._variants:
                if dtype not in ("float64", "float32"):
                    raise DataError(  # pragma: no cover - future dtypes
                        f"no published variant for dtype={dtype!r}")
                from ..stats.na import row_ranks, to_nan, valid_mask

                if rank:
                    # Matches the per-rank nonpara="y" transform exactly:
                    # NA codes -> NaN, cast to the wire dtype (the dtype
                    # the per-rank transform would have ranked), then
                    # row-wise average ranks with missing cells kept NaN.
                    src = to_nan(self.base, key[1])
                    if dtype == "float32":
                        src = np.ascontiguousarray(src, dtype=np.float32)
                    ranked = np.where(valid_mask(src), row_ranks(src), np.nan)
                    self._store(dtype, key[1], True, ranked)
                else:
                    if dtype != "float32":  # pragma: no cover - defensive
                        raise DataError(
                            f"no published variant for dtype={dtype!r}")
                    # Matches pmaxT's float32 wire: NA codes -> NaN before
                    # the cast (the code is not float32-representable).
                    self._store(dtype, key[1], False,
                                to_nan(self.base, key[1]))
            return self._variants[key]

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._variants = {}
            self._finalizer.detach()
            _unlink_segments(self.owner_pid, self._segments)


class PublishedDataset:
    """Handle to a matrix published into a session's dataset registry.

    Pass it to ``pmaxT``/``pcor`` in place of ``X``.  The handle pickles
    to an inert descriptor (workers receive the data by mapping the
    published segment, never through the handle), so it is cheap to ship
    inside broadcast command frames — e.g. a ``run_sprint`` master script
    calling ``master.call("pmaxT", handle, None, ...)``.

    ``labels`` published alongside the matrix become the default
    ``classlabel`` of a ``pmaxT(handle)`` call.
    """

    def __init__(self, record: _DatasetRecord, fingerprint: str, shape: tuple, nbytes: int):
        self.dataset_id = secrets.token_hex(6)
        self.fingerprint = fingerprint
        self.shape = tuple(shape)
        self.nbytes = int(nbytes)
        self.labels = record.labels
        self._record: _DatasetRecord | None = record

    # -- master-side resolution -------------------------------------------

    def _live_record(self) -> _DatasetRecord:
        record = self._record
        if record is None:
            raise DataError(
                "this PublishedDataset handle is inert (it was pickled out "
                "of the publishing process); only the publishing session's "
                "master rank can resolve it")
        return record

    def resolve(self, dtype: str = "float64", na: float | None = None,
                *, rank: bool = False) -> tuple:
        """Master-side: ``(data_view, route)`` for the requested variant.

        ``route`` is ``None`` for in-process registries (the view itself
        is shared) and a segment descriptor otherwise; workers turn the
        descriptor into their own mapping via
        :func:`attach_published_view`.  ``rank=True`` resolves the
        pre-ranked ``nonpara`` wire (NaN-ified then row-rank-transformed;
        see the module's *Variants* section).
        """
        route, view = self._live_record().variant(dtype, na, rank)
        return view, route

    def base_data(self) -> np.ndarray:
        """Master-side: the float64 base variant (for fingerprinting)."""
        return self._live_record().base

    def close(self) -> None:
        """Unpublish: unlink this dataset's segments now."""
        if self._record is not None:
            self._record.close()

    @property
    def closed(self) -> bool:
        record = self._record
        return record is None or record.closed

    # -- pickling: the handle travels, the record does not ----------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_record"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else (
            "inert" if self._record is None else "live")
        return (
            f"PublishedDataset(id={self.dataset_id}, shape={self.shape}, "
            f"{self.nbytes} bytes, fingerprint={self.fingerprint[:12]}…, "
            f"{state})"
        )


class DatasetRegistry:
    """Session-owned collection of published datasets.

    ``use_shm=True`` (process-type sessions) publishes into named shared
    memory; ``use_shm=False`` (in-process worlds) keeps plain read-only
    arrays — the broadcast is already zero-copy there, publishing just
    adds the fingerprint and the stable variant transforms.
    """

    def __init__(self, *, use_shm: bool):
        self.use_shm = use_shm
        self._records: dict[str, _DatasetRecord] = {}
        self._lock = threading.Lock()
        #: Total publish() calls over the registry's lifetime.
        self.publishes = 0

    def publish(self, X: Any, labels: Any = None) -> PublishedDataset:
        """Write ``X`` (and remember ``labels``) once; return the handle."""
        from ..core.checkpoint import dataset_fingerprint

        # Snapshot semantics: publish copies, so later caller-side
        # mutation cannot desynchronise the fingerprint from the bytes
        # the workers map (and the registry never freezes a user array).
        base = np.array(X, dtype=np.float64, order="C", copy=True)
        if base.ndim != 2:
            raise DataError(
                f"published dataset must be a 2-D matrix, got shape "
                f"{base.shape}")
        labels_arr = None
        if labels is not None:
            labels_arr = np.array(labels, dtype=np.int64, copy=True)
            labels_arr.flags.writeable = False
        fingerprint = dataset_fingerprint(base, labels_arr)
        record = _DatasetRecord(self.use_shm, base, labels_arr)
        handle = PublishedDataset(record, fingerprint, base.shape, record.nbytes())
        with self._lock:
            self._records[handle.dataset_id] = record
            self.publishes += 1
        return handle

    def unpublish(self, handle: PublishedDataset) -> None:
        """Drop one dataset and unlink its segments."""
        with self._lock:
            record = self._records.pop(handle.dataset_id, None)
        if record is not None:
            record.close()

    def bytes_resident(self) -> int:
        """Bytes currently held by live published variants."""
        with self._lock:
            return sum(r.nbytes() for r in self._records.values() if not r.closed)

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Unlink every published segment; idempotent."""
        with self._lock:
            records, self._records = list(self._records.values()), {}
        for record in records:
            record.close()


def attach_published_view(route: SegmentRoute) -> np.ndarray:
    """Worker-side: map a published segment; return a read-only view.

    Mappings are memoised in the rank's session-resident cache (see
    :func:`repro.mpi.session.resident_cache`) keyed by segment name, so a
    warm worker maps each published dataset exactly once per pool
    incarnation; outside a session the mapping lives for the (short)
    worker lifetime.  Attachments never register with the resource
    tracker — a worker exiting must never unlink the publisher's segment.
    """
    name, shape, dtype = route
    cache = resident_cache()
    if cache is None:
        # No session (a custom world): memoise per-process instead; the
        # mapping's lifetime is bounded by the process's.
        cache = _FALLBACK_ATTACHMENTS
        key: Any = name
    else:
        key = ("published_segment", name)
    cached = cache.get(key)
    if cached is not None:
        return cached[1]
    try:
        segment = _attach(name)
    except FileNotFoundError:
        raise DataError(
            f"published dataset segment {name!r} no longer exists (the "
            "publishing session was closed or the dataset unpublished)"
        ) from None
    view: np.ndarray = np.ndarray(
        shape, dtype=np.dtype(dtype), buffer=segment.buf)
    view.flags.writeable = False
    # Keep the segment object alive alongside the view: dropping it while
    # the view exports the buffer would raise BufferError at GC time.
    cache[key] = (segment, view)
    return view


#: Per-process attachment memo used outside sessions (see above).
_FALLBACK_ATTACHMENTS: dict = {}
