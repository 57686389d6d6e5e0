"""The NumPy reference engine — and the one host permutation pipeline.

Scoring: :attr:`NumpyEngine.xp` is the :mod:`numpy` module itself, so the
statistic kernels execute the exact reference arithmetic.

Encoding: :meth:`NumpyEngine.fill_encodings` is the only producer of
fixed-seed encodings.  Each random generator owns a host instance and
fills every batch (and every single ``at()`` row) through it, whatever
engine scores the batch.  The reference construction for a label
permutation is ``labels[np.argsort(keys)]`` — an indirect sort plus a
gather, both cache-hostile at kernel batch sizes.  This engine replaces them with a
**value-packed direct sort** that is bit-identical to the reference:

* every 64-bit key has its low ``nbits`` bits overwritten with the label
  value of its column (``comb = (key & HI) | label``);
* one in-place ``np.sort`` orders the packed words — a branch-light SIMD
  value sort, ~2x faster than ``argsort`` at these shapes — after which
  the sorted low bits *are* the permuted labels, extracted with one mask
  into the caller's int64 buffer (no gather pass at all);
* correctness needs the packed ordering to equal the full-key ordering,
  which holds unless two keys collide in their top ``64 - nbits`` bits.
  A collision is detected exactly from the sorted array (some adjacent
  pair differs only below bit ``nbits``) and the affected chunk is
  recomputed through the reference ``argsort`` path — probability
  ~``rows * width^2 / 2^(65-nbits)`` per chunk, i.e. never in practice,
  but the rescue keeps the path *provably* bit-identical rather than
  probabilistically so.

The pipeline runs in row chunks small enough to keep the pack / sort /
check / extract passes in the outer cache, with each chunk's raw-key
generation fused in so the keys are sorted while still cache-hot.  On
glibc hosts the allocator is additionally tuned (``mallopt(M_MMAP_MAX,
0)``) so the multi-megabyte key buffers are served from the reusable
heap instead of fresh ``mmap`` regions — set ``REPRO_ACCEL_MALLOC=0``
to leave malloc alone.

Sign vectors keep the reference low-bit construction, chunk-fused; block
shuffles run the same value-pack sort per ``k``-wide block group.  Inputs
the packed sort cannot take — a single column or ``k = 1`` blocks (no
adjacent pair for the collision check), label values too wide to pack —
are filled by the :mod:`repro.permute.keystream` reference functions
themselves.
"""

from __future__ import annotations

import os

import numpy as np

from ..permute import keystream
from .base import ArrayOps

__all__ = ["KeystreamSpec", "NumpyEngine", "SORT_CHUNK_ROWS"]

#: Rows per fused pack/sort/extract chunk.  512 rows x a few hundred
#: uint64 columns keeps the chunk's working set inside L2 on common
#: hosts; the win over whole-batch passes is ~10% at B=10000.
SORT_CHUNK_ROWS: int = 512

#: Label values must fit in this many packed low bits; wider designs
#: (absurd class counts) are filled by the reference functions.
_MAX_PACK_BITS: int = 16

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


class KeystreamSpec:
    """What a fixed-seed random generator's keystream encodes.

    One frozen description of the permutation family — enough to
    reproduce encodings ``[start, start + count)`` from the Philox raw
    keys alone.

    Attributes
    ----------
    kind:
        ``"labels"`` (uniform relabellings), ``"signs"`` (fair sign
        vectors) or ``"blocks"`` (within-block shuffles).
    seed:
        The keystream seed.
    width:
        Encoding row width (``n`` columns or ``npairs``).
    labels:
        The observed label vector for ``kind="labels"`` (read-only int64).
    blocks:
        The ``(nblocks, k)`` block label layout for ``kind="blocks"``.
    """

    __slots__ = ("kind", "seed", "width", "labels", "blocks")

    def __init__(self, kind: str, seed: int, width: int,
                 labels: np.ndarray | None = None,
                 blocks: np.ndarray | None = None):
        self.kind = kind
        self.seed = int(seed)
        self.width = int(width)
        self.labels = labels
        self.blocks = blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KeystreamSpec(kind={self.kind!r}, seed={self.seed}, "
                f"width={self.width})")


_allocator_tuned = False


def _tune_allocator() -> None:
    """Keep large sort buffers heap-resident on glibc (best effort).

    glibc serves allocations past ``M_MMAP_THRESHOLD`` with fresh
    ``mmap`` regions that are unmapped on free — every batch then pays
    the page-fault round trip again.  ``mallopt(M_MMAP_MAX, 0)`` routes
    them through the reusable brk heap instead (the same ``ctypes``
    pattern :mod:`repro.mpi.blasctl` uses to reach OpenBLAS).
    """
    global _allocator_tuned
    if _allocator_tuned or os.environ.get("REPRO_ACCEL_MALLOC") == "0":
        _allocator_tuned = True
        return
    _allocator_tuned = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(ctypes.c_int(-4), ctypes.c_int(0))  # M_MMAP_MAX = 0
    except Exception:  # pragma: no cover - non-glibc hosts
        pass


def _pack_bits(values: np.ndarray) -> int:
    """Low bits needed to pack the label values, or 0 when unpackable."""
    vmin = int(values.min())
    vmax = int(values.max())
    if vmin < 0:
        return 0
    nbits = max(1, int(vmax).bit_length())
    return nbits if nbits <= _MAX_PACK_BITS else 0


class NumpyEngine(ArrayOps):
    """The host reference engine (always available)."""

    name = "numpy"
    is_device = False

    def __init__(self):
        _tune_allocator()
        # Chunk scratch, grown to the widest spec served; plus per-spec
        # packing state cached by spec identity (specs are built once per
        # generator and hold read-only arrays).
        self._comb: np.ndarray | None = None
        self._adj: np.ndarray | None = None
        self._packed: dict[int, tuple] = {}

    # -- scratch --------------------------------------------------------------

    def _chunk_scratch(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        if self._comb is None or self._comb.shape[1] < width:
            self._comb = np.empty((SORT_CHUNK_ROWS, width), dtype=np.uint64)
            self._adj = np.empty((SORT_CHUNK_ROWS, max(1, width - 1)),
                                 dtype=np.uint64)
        return self._comb, self._adj

    def _pack_state(self, spec: KeystreamSpec) -> tuple | None:
        """Packing constants for ``spec``, or ``None`` when unpackable."""
        cached = self._packed.get(id(spec))
        if cached is not None and cached[0] is spec:
            return cached[1]
        values = spec.labels if spec.kind == "labels" else spec.blocks
        nbits = _pack_bits(values)
        # The adjacency collision check needs at least one adjacent pair
        # per sorted group: two columns, or blocks of k >= 2.
        if values.shape[-1] < 2 or nbits == 0:
            self._packed[id(spec)] = (spec, None)
            return None
        low = np.uint64((1 << nbits) - 1)
        hi = np.uint64(((1 << nbits) - 1) ^ int(_U64_MAX))
        packed_row = values.reshape(-1).astype(np.uint64)
        # The tie sentinel: adjacent sorted words whose xor minus one is
        # below this differ only in packed bits — a key collision.
        sentinel = np.uint64((1 << nbits) - 1)
        state = (low, hi, packed_row, sentinel)
        self._packed[id(spec)] = (spec, state)
        return state

    # -- encoding -------------------------------------------------------------

    def fill_encodings(self, spec: KeystreamSpec, start: int, count: int,
                       out: np.ndarray) -> None:
        """Write encodings for keystream indices ``[start, start + count)``.

        ``out`` is the caller's host ``(count, width)`` int64 view; the
        rows are bit-identical to the :mod:`repro.permute.keystream`
        reference functions for the same indices.
        """
        if count <= 0:
            return
        if spec.kind == "signs":
            self._fill_signs(spec, start, count, out)
            return
        state = self._pack_state(spec)
        if state is None:
            # Nothing to pack: the reference construction fills the rows.
            if spec.kind == "labels":
                out[:count] = keystream.label_permutations(
                    spec.seed, start, count, spec.labels)
            else:
                out[:count] = keystream.block_permutations(
                    spec.seed, start, count, spec.blocks)
        elif spec.kind == "labels":
            self._fill_labels(spec, state, start, count, out)
        else:
            self._fill_blocks(spec, state, start, count, out)

    def _fill_signs(self, spec: KeystreamSpec, start: int, count: int,
                    out: np.ndarray) -> None:
        width = spec.width
        for s in range(0, count, SORT_CHUNK_ROWS):
            c = min(SORT_CHUNK_ROWS, count - s)
            keys = keystream.raw_keys(spec.seed, start + s, c, width)
            dest = out[s:s + c]
            np.bitwise_and(keys.view(np.int64), np.int64(1), out=dest)
            np.left_shift(dest, 1, out=dest)
            np.subtract(dest, 1, out=dest)

    def _fill_labels(self, spec: KeystreamSpec, state: tuple, start: int,
                     count: int, out: np.ndarray) -> None:
        low, hi, labels_u64, sentinel = state
        width = spec.width
        comb_full, adj_full = self._chunk_scratch(width)
        out_u64 = out.view(np.uint64)
        for s in range(0, count, SORT_CHUNK_ROWS):
            c = min(SORT_CHUNK_ROWS, count - s)
            keys = keystream.raw_keys(spec.seed, start + s, c, width)
            comb = comb_full[:c, :width]
            np.bitwise_and(keys, hi, out=comb)
            np.bitwise_or(comb, labels_u64, out=comb)
            comb.sort(axis=1)
            adj = adj_full[:c, :width - 1]
            np.bitwise_xor(comb[:, 1:], comb[:, :-1], out=adj)
            np.subtract(adj, _ONE, out=adj)
            np.bitwise_and(comb, low, out=out_u64[s:s + c])
            if adj.min() < sentinel:
                # A top-bits key collision in this chunk: the packed order
                # may disagree with the full-key order, so recompute the
                # chunk through the reference argsort construction.
                out[s:s + c] = spec.labels[np.argsort(keys, axis=1)]

    def _fill_blocks(self, spec: KeystreamSpec, state: tuple, start: int,
                     count: int, out: np.ndarray) -> None:
        low, hi, blocks_u64, sentinel = state
        nblocks, k = spec.blocks.shape
        width = spec.width
        comb_full, _ = self._chunk_scratch(width)
        adj3_full = self._block_adj(nblocks, k)
        out_u64 = out.view(np.uint64)
        for s in range(0, count, SORT_CHUNK_ROWS):
            c = min(SORT_CHUNK_ROWS, count - s)
            keys = keystream.raw_keys(spec.seed, start + s, c, width)
            comb = comb_full[:c, :width]
            np.bitwise_and(keys, hi, out=comb)
            np.bitwise_or(comb, blocks_u64, out=comb)
            comb3 = comb.reshape(c, nblocks, k)
            comb3.sort(axis=2)
            adj3 = adj3_full[:c]
            np.bitwise_xor(comb3[:, :, 1:], comb3[:, :, :-1], out=adj3)
            np.subtract(adj3, _ONE, out=adj3)
            np.bitwise_and(comb, low, out=out_u64[s:s + c])
            if adj3.min() < sentinel:
                out[s:s + c] = keystream.block_permutations(
                    spec.seed, start + s, c, spec.blocks)

    def _block_adj(self, nblocks: int, k: int) -> np.ndarray:
        needed = (SORT_CHUNK_ROWS, nblocks, k - 1)
        adj = getattr(self, "_adj3", None)
        if adj is None or adj.shape[1] < nblocks or adj.shape[2] < k - 1:
            adj = np.empty(needed, dtype=np.uint64)
            self._adj3 = adj
        return adj[:, :nblocks, :k - 1]
