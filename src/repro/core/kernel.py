"""The pmaxT computational kernel.

This is the code the paper's "Main kernel" column times: given a statistic
bound to the dataset, a permutation generator forwarded to a chunk
``[start, start + count)``, and the observed significance ordering, it
accumulates the two count vectors the maxT p-values are built from.

The counts are plain sums over permutations, so per-block results combine
by elementwise addition — how the master folds every rank's contribution
into the world totals (Steps 4–5 of the paper's parallel algorithm).

Permutations are processed in batches (default 64): the generator emits a
``(nb, width)`` encoding block, the statistic scores it with a handful of
GEMMs, and the successive-maxima/counting step is pure vectorized NumPy.
Batching is the main optimization over the paper's one-permutation-at-a-time
C loop and is what lets a NumPy implementation approach compiled speed.

Workspace discipline
--------------------

At kernel scale the batch loop's cost is dominated by memory traffic, and
a naively vectorized batch allocates a dozen ``(m, nb)`` float temporaries
— each one an ``mmap`` + page-fault round trip at typical sizes.  A
:class:`KernelWorkspace` removes that: it owns a reusable encoding buffer,
a pooled set of named statistic scratch matrices
(:class:`~repro.stats.base.WorkBuffers`), and the ordered-scores/flag
buffers of the counting step, so after the first batch warms the pool the
loop performs **no floating-point ``(m, nb)`` allocations at all** — every
GEMM runs with ``out=``, the side adjustment and successive maxima happen
in place, and the comparisons land in a reused boolean buffer.

Workspace lifetime rules:

* one workspace serves one ``(stat, chunk_size)`` problem shape; it may be
  reused across any number of :func:`run_kernel` calls with the same shape
  (the checkpointing driver does exactly that, and a rank running under a
  persistent :class:`~repro.mpi.session.BackendSession` keeps one resident
  across whole ``pmaxT`` calls via
  :func:`~repro.mpi.session.resident_cache` — the session/backend layer
  owns its lifetime there);
* the matrices returned by ``stat.batch(..., work=...)`` and the
  workspace's views are valid **only until the next batch** touches the
  pool — the kernel consumes them immediately and so must any other caller;
* a workspace is single-threaded state: give each rank/thread its own
  (they are cheap: ~``(m x chunk)`` times a dozen buffers, the same
  footprint the allocating path paid *per batch*);
* ``run_kernel(workspace=None)`` builds a private one per call, so casual
  callers get the fast path automatically.

Bit-identity: the pooled loop performs the identical floating-point
operations in the identical order as the allocating loop, so kernel counts
with and without a workspace are bit-identical (pinned by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PermutationError
from ..permute.base import PermutationGenerator
from ..stats.base import TestStatistic, WorkBuffers
from .adjust import side_adjust, significance_order, successive_maxima

__all__ = ["KernelCounts", "KernelWorkspace", "ObservedScores",
           "compute_observed", "run_kernel", "DEFAULT_CHUNK",
           "TIE_TOLERANCE", "TIE_TOLERANCE_F32", "tie_tolerance"]

#: Default permutation batch size for the vectorized kernel.  64 keeps the
#: per-batch working set (~a dozen ``m x 64`` matrices) inside the outer
#: cache levels on typical hosts; measurements in
#: ``benchmarks/bench_kernel_hotpath.py`` show larger chunks *lose* time to
#: cache misses once ``m`` is in the thousands.
DEFAULT_CHUNK: int = 64

#: Relative tolerance for the ``permuted >= observed`` counting comparison.
#:
#: Permutations that tie the observed statistic *exactly* in real arithmetic
#: (the re-drawn identity labelling, class-swapped labellings under
#: ``side="abs"``, all-flipped sign vectors, ...) evaluate to values that can
#: differ from the observed score by an ulp or two, and — unlike multtest's
#: scalar C loop — the batched BLAS arithmetic here is not bit-identical
#: across batch shapes, so a strict ``>=`` would make counts depend on how
#: the permutation sequence is chunked.  Counting ``s* >= s - tol`` with
#: ``tol = TIE_TOLERANCE * max(1, |s|)`` makes exact ties count reliably and
#: the counts invariant to chunking/partitioning: BLAS noise is ~1e-12
#: relative, three orders of magnitude below the margin, while genuinely
#: distinct statistics differ by far more than 1e-9 on continuous data.
TIE_TOLERANCE: float = 1e-9

#: The float32 compute mode's counterpart: single-precision GEMM noise is
#: ~1e-6 relative, so the tie margin widens accordingly (still far below
#: the gap between genuinely distinct statistics on continuous data).
TIE_TOLERANCE_F32: float = 1e-4


def tie_tolerance(dtype) -> float:
    """The counting tie tolerance for a compute dtype."""
    return TIE_TOLERANCE_F32 if np.dtype(dtype) == np.float32 \
        else TIE_TOLERANCE


@dataclass
class KernelCounts:
    """Additive per-rank kernel output.

    Attributes
    ----------
    raw:
        ``#{b in chunk : s*_i,b >= s_i}`` per row, original row order.
    adjusted:
        ``#{b in chunk : u_(i),b >= s_(i)}`` per row, significance order.
    nperm:
        Number of permutations this accumulator has seen.
    """

    raw: np.ndarray
    adjusted: np.ndarray
    nperm: int = 0

    @classmethod
    def zeros(cls, m: int) -> "KernelCounts":
        return cls(raw=np.zeros(m, dtype=np.int64),
                   adjusted=np.zeros(m, dtype=np.int64), nperm=0)

    def __iadd__(self, other: "KernelCounts") -> "KernelCounts":
        self.raw += other.raw
        self.adjusted += other.adjusted
        self.nperm += other.nperm
        return self

    def merged(self, others) -> "KernelCounts":
        """A new accumulator equal to ``self`` plus every element of ``others``."""
        out = KernelCounts(raw=self.raw.copy(), adjusted=self.adjusted.copy(),
                           nperm=self.nperm)
        for o in others:
            out += o
        return out


class KernelWorkspace:
    """Reusable buffers for the batched kernel (see the module docstring).

    Parameters
    ----------
    m, width:
        Problem shape: hypothesis rows and encoding width.
    chunk_size:
        Maximum batch size the workspace will serve; smaller tail batches
        are served as leading-slice views.
    dtype:
        Compute dtype of the statistic this workspace will partner.
    engine:
        Optional :class:`~repro.accel.base.ArrayOps` compute engine.  The
        statistic pool binds to it (GEMMs run on its arrays) and the
        encoding buffer grows to an engine super-batch so batched
        keystream sorts amortise their setup.
    engine_batch:
        Rows per engine super-batch; defaults to the engine's own
        ``batch_rows``.  Ignored without an engine.
    """

    def __init__(self, m: int, width: int, chunk_size: int,
                 dtype=np.float64, engine=None, engine_batch: int | None = None):
        if chunk_size <= 0:
            raise PermutationError(
                f"chunk_size must be positive, got {chunk_size}")
        self.m = int(m)
        self.width = int(width)
        self.chunk_size = int(chunk_size)
        self.dtype = np.dtype(dtype)
        self.engine = engine
        if engine is None:
            self.engine_batch = 0
            enc_rows = self.chunk_size
        else:
            rows = engine.batch_rows if engine_batch is None else int(engine_batch)
            self.engine_batch = max(rows, self.chunk_size)
            enc_rows = self.engine_batch
        #: Encoding buffer handed to ``generator.take_batch(out=...)``.
        self.enc = np.empty((enc_rows, self.width), dtype=np.int64)
        #: Named statistic scratch pool threaded through ``stat.batch``.
        self.pool = WorkBuffers(engine)
        #: Host landing buffer for engine-native score batches.  Needed
        #: whenever the pool's arrays are not plain ndarrays (torch-CPU
        #: included), since the counting step below is host NumPy.
        self.host_scores = (
            np.empty((self.m, self.chunk_size), dtype=self.dtype)
            if engine is not None and engine.xp is not np else None)
        self._ordered = np.empty((self.m, self.chunk_size), dtype=self.dtype)
        self._flags = np.empty((self.m, self.chunk_size), dtype=bool)

    @classmethod
    def for_stat(cls, stat: TestStatistic, chunk_size: int = DEFAULT_CHUNK,
                 engine=None,
                 engine_batch: int | None = None) -> "KernelWorkspace":
        """A workspace matching one bound statistic's problem shape."""
        return cls(stat.m, stat.width, chunk_size, stat.compute_dtype,
                   engine=engine, engine_batch=engine_batch)

    def compatible_with(self, stat: TestStatistic, chunk_size: int,
                        engine=None, engine_batch: int | None = None) -> bool:
        """Whether this workspace can serve ``stat`` at ``chunk_size``."""
        if not (self.m == stat.m and self.width == stat.width
                and self.chunk_size >= chunk_size
                and self.dtype == stat.compute_dtype):
            return False
        mine = None if self.engine is None else self.engine.name
        theirs = None if engine is None else engine.name
        if mine != theirs:
            return False
        if engine is not None:
            rows = engine.batch_rows if engine_batch is None else int(engine_batch)
            if self.engine_batch < max(rows, chunk_size):
                return False
        return True

    def ordered(self, nb: int) -> np.ndarray:
        """The ``(m, nb)`` ordered-scores buffer for one batch."""
        return self._ordered[:, :nb]

    def flags(self, nb: int) -> np.ndarray:
        """The ``(m, nb)`` boolean comparison buffer for one batch."""
        return self._flags[:, :nb]

    def nbytes(self) -> int:
        """Current footprint (encoding + counting buffers + warm pool)."""
        return (self.enc.nbytes + self._ordered.nbytes + self._flags.nbytes
                + self.pool.nbytes())


@dataclass
class ObservedScores:
    """Observed statistics and the derived significance ordering.

    Every rank computes this locally from the broadcast dataset (one extra
    permutation's worth of work) so the kernel can compare its chunk's
    permuted scores against the same thresholds the master uses.
    """

    #: Raw observed statistics, original row order (NaN = untestable).
    stats: np.ndarray
    #: Side-adjusted observed scores, original row order (``-inf`` = untestable).
    scores: np.ndarray
    #: Significance ordering: original row index at each ordered position.
    order: np.ndarray
    #: Side-adjusted scores in significance order.
    scores_ordered: np.ndarray
    #: Untestable-row mask, original row order.
    untestable: np.ndarray = field(repr=False, default=None)

    @property
    def m(self) -> int:
        return int(self.stats.size)


def compute_observed(stat: TestStatistic, side: str) -> ObservedScores:
    """Score the observed labelling and derive the significance ordering."""
    observed = stat.observed()
    scores = side_adjust(observed, side)
    order = significance_order(scores)
    return ObservedScores(
        stats=observed,
        scores=scores,
        order=order,
        scores_ordered=scores[order],
        untestable=~np.isfinite(scores),
    )


def run_kernel(
    stat: TestStatistic,
    generator: PermutationGenerator,
    observed: ObservedScores,
    side: str,
    start: int,
    count: int,
    chunk_size: int = DEFAULT_CHUNK,
    first_is_observed: bool | None = None,
    workspace: KernelWorkspace | None = None,
    engine=None,
    engine_batch: int | None = None,
) -> KernelCounts:
    """Accumulate maxT counts over permutations ``[start, start + count)``.

    The generator is reset and *forwarded* (``skip``) to ``start`` — the
    operation the paper added to the serial generators' interface — and then
    consumed in batches.

    Untestable rows (observed statistic undefined) are excluded from the
    null maxima: their permuted scores are forced to ``-inf`` so a broken
    row cannot inflate the adjusted p-values of testable rows.

    The observed permutation (index 0) is accounted for *analytically*: under
    the observed labelling ``s* = s`` exactly, so it contributes 1 to every
    raw count and — because the successive maxima along a non-increasing
    ordering reproduce the ordered scores — 1 to every adjusted count.
    Scoring it numerically instead would make the counts hostage to
    last-ulp BLAS differences between batch shapes; the analytic treatment
    is both exact and the direct translation of the paper's "the first
    permutation only needs to be taken into account once by the master".

    ``workspace`` is an optional :class:`KernelWorkspace` (reused across
    calls by the checkpoint driver); with ``None`` a private one is built,
    so every caller gets the allocation-free batch loop.  Counts are
    bit-identical either way.

    ``engine`` is an optional :class:`~repro.accel.base.ArrayOps` compute
    engine (already resolved; see :func:`repro.accel.resolve_engine`).
    When the generator is counter-based and the engine accelerates its
    keystream family, encodings are prefilled in engine super-batches of
    ``engine_batch`` rows (default: the engine's ``batch_rows``) and the
    statistic GEMMs route through the engine's array namespace.  The
    numpy engine performs the reference arithmetic, so its counts are
    bit-identical to an engine-less run; device engines are bit-identical
    on the permutation stream and tie-tolerance-equal on counts.
    """
    if chunk_size <= 0:
        raise PermutationError(f"chunk_size must be positive, got {chunk_size}")
    m = observed.m
    counts = KernelCounts.zeros(m)
    if count == 0:
        return counts
    if start + count > generator.nperm:
        raise PermutationError(
            f"chunk [{start}, {start + count}) exceeds the generator's "
            f"nperm={generator.nperm}"
        )
    if first_is_observed is None:
        # The default covers on-the-fly generators addressed by global
        # index; stored per-rank slices must say explicitly whether their
        # first row is the observed labelling.
        first_is_observed = start == 0
    if first_is_observed:
        counts.raw += 1
        counts.adjusted += 1
        counts.nperm += 1
        start, count = start + 1, count - 1
        if count == 0:
            return counts
    generator.reset()
    generator.skip(start)

    if workspace is None or not workspace.compatible_with(
            stat, chunk_size, engine=engine, engine_batch=engine_batch):
        workspace = KernelWorkspace.for_stat(stat, chunk_size, engine=engine,
                                             engine_batch=engine_batch)
    ops = workspace.engine
    # Always (re)attach so a generator shared across calls cannot keep a
    # stale engine; attach returns False for stream/stored generators.
    attach = getattr(generator, "attach_engine", None)
    accelerated = bool(attach(ops)) if attach is not None else False

    order = observed.order
    untestable = observed.untestable
    any_untestable = bool(untestable.any())
    # Tie-tolerant thresholds (see TIE_TOLERANCE / TIE_TOLERANCE_F32).
    # -inf stays -inf.
    rel = tie_tolerance(stat.compute_dtype)
    with np.errstate(invalid="ignore"):
        tol = rel * np.maximum(np.abs(observed.scores), 1.0)
        tol[~np.isfinite(tol)] = 0.0
    threshold = (observed.scores - tol)[:, None]            # original order
    threshold = threshold.astype(stat.compute_dtype, copy=False)
    threshold_ordered = threshold[order]                    # significance order

    # Engine super-batches: prefill many chunks' encodings with one
    # fill_encodings call (one keystream pass + one batched sort), then
    # serve the scoring loop leading slices of the prefetched block.
    superbatch = workspace.engine_batch if accelerated else 0
    enc_source: np.ndarray | None = None
    enc_off = enc_avail = 0

    remaining = count
    while remaining > 0:
        nb = min(chunk_size, remaining)
        if superbatch:
            if enc_avail == 0:
                fill = min(superbatch, remaining)
                enc_source = generator.take_batch(fill, out=workspace.enc)
                enc_off, enc_avail = 0, fill
            # A super-batch that is not a multiple of chunk_size leaves a
            # short tail; serve it as a short chunk rather than reading
            # past the prefetched rows.
            nb = min(nb, enc_avail)
            enc = enc_source[enc_off:enc_off + nb]
            enc_off += nb
            enc_avail -= nb
        else:
            enc = generator.take_batch(nb, out=workspace.enc)
        perm_stats = stat.batch(enc, work=workspace.pool)   # (m, nb)
        if workspace.host_scores is not None:
            perm_stats = ops.to_host(perm_stats,
                                     out=workspace.host_scores[:, :nb])
        scores = side_adjust(perm_stats, side, out=perm_stats)
        if any_untestable:
            scores[untestable, :] = -np.inf
        ge = np.greater_equal(scores, threshold, out=workspace.flags(nb))
        counts.raw += np.count_nonzero(ge, axis=1)
        u = np.take(scores, order, axis=0, out=workspace.ordered(nb))
        successive_maxima(u, out=u)
        np.greater_equal(u, threshold_ordered, out=ge)
        counts.adjusted += np.count_nonzero(ge, axis=1)
        counts.nperm += nb
        remaining -= nb
    return counts
