"""``pmaxT`` — the parallel permutation testing function.

Implements the six steps of the paper's Section 3.2 on top of the
:mod:`repro.mpi` communicator abstraction:

* **Step 1** — the master validates the input parameters and normalises
  them (``pre processing``).
* **Step 2** — the parameters are broadcast; scalar options travel as a
  compact tuple, implementing the paper's future-work note 3 (strings
  replaced by scalar codes before the broadcast)
  (``broadcast parameters``).
* **Step 3** — the input matrix and class labels are broadcast and
  transformed to the layout the kernel expects, and a global sum confirms
  every rank finished allocation (``create data``).
* **Step 4** — every rank runs the job's *block plan* through one
  executor (:mod:`repro.core.steal`): the static plan gives each rank its
  Figure-2 chunk as a single block, the steal plan carves the range into
  small blocks that finished ranks steal.  Each rank's counts ride the
  executor's messages to the master, and its block ledger audits the
  cover (``main kernel``).
* **Step 5** — the master computes the raw and adjusted p-values from the
  world-total counts it already holds (``compute p-values``).
* **Step 6** — buffers are released (Python's GC makes this implicit).

The five timed sections correspond one-to-one to the columns of the paper's
Tables I–V; the timings are recorded in the result's
:class:`~repro.core.profile.SectionProfile`.

Every rank calls :func:`pmaxT` (SPMD style).  Worker ranks may pass
``X=None``: they receive the data from the master's broadcast, mirroring the
SPRINT architecture where only the master evaluates the user's R script.
The master returns the :class:`~repro.core.result.MaxTResult`; workers
return ``None``.

Execution backends
------------------

:func:`pmaxT` is substrate-agnostic: the data broadcast uses the
communicator's ``bcast_array``, so each backend moves arrays its own best
way (shared address space for ``serial``/``threads``, pickled queues for
``processes``, zero-copy shared-memory segments for ``shm``), and the
block executor needs point-to-point ``send``/``recv`` plus any-source
``recv_any``/``poll_any`` in multi-rank worlds.  Callers pick the
substrate either by running their own SPMD world and passing ``comm=``,
or — the convenience path — by naming a registered backend::

    result = pmaxT(X, labels, B=10_000, backend="shm", ranks=8)

``backend`` accepts any name in
:func:`repro.mpi.backends.available_backends`; registering a custom
:class:`~repro.mpi.backends.Backend` (see :mod:`repro.mpi`) makes it
usable here, in ``pcor`` and in the CLI without touching this module.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import DataError, OptionError
from ..mpi import Communicator, SUM, SerialComm
from ..mpi.datasets import PublishedDataset, attach_published_view
from ..mpi.session import BackendSession, resident_cache
from ..permute import DEFAULT_COMPLETE_LIMIT, DEFAULT_SEED
from ..stats import MT_NA_NUM
from ..stats.na import to_nan
from .adjust import pvalues_from_counts, side_adjust, significance_order
from .kernel import (
    DEFAULT_CHUNK,
    KernelCounts,
    KernelWorkspace,
    compute_observed,
    run_kernel,
)
from .options import MaxTOptions, build_generator, build_statistic, validate_options
from .partition import block_plan
from .profile import SectionProfile, SectionTimer
from .result import MaxTResult
from .steal import (
    DEFAULT_STEAL_BLOCK,
    STEAL_TAG_BASE,
    injected_delay,
    run_steal_master,
    run_steal_worker,
)

__all__ = ["lookup_cached", "pmaxT"]

# Scalar encodings for the string options (paper future-work note 3: string
# parameters replaced by integers before the broadcast).
_TEST_CODES = {"t": 0, "t.equalvar": 1, "wilcoxon": 2, "f": 3, "pairt": 4,
               "blockf": 5}
_TEST_NAMES = {v: k for k, v in _TEST_CODES.items()}
_SIDE_CODES = {"abs": 0, "upper": 1, "lower": 2}
_SIDE_NAMES = {v: k for k, v in _SIDE_CODES.items()}
_DTYPE_CODES = {"float64": 0, "float32": 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}
# Engine names travel as scalar codes too; a custom-registered engine
# (no code) falls back to its literal name on the wire.
_ENGINE_CODES = {"auto": 0, "numpy": 1, "torch": 2, "cupy": 3}
_ENGINE_NAMES = {v: k for k, v in _ENGINE_CODES.items()}


def _pack_options(o: MaxTOptions) -> tuple:
    """Encode the validated options as a flat scalar tuple for broadcast."""
    return (
        _TEST_CODES[o.test],
        _SIDE_CODES[o.side],
        1 if o.fixed_seed_sampling == "y" else 0,
        o.B,
        o.na,
        1 if o.nonpara == "y" else 0,
        o.seed,
        o.chunk_size,
        o.complete_limit,
        o.nperm,
        1 if o.complete else 0,
        1 if o.store else 0,
        _DTYPE_CODES[o.dtype],
        _ENGINE_CODES.get(o.engine, o.engine),
        o.engine_batch,
    )


def _unpack_options(t: tuple) -> MaxTOptions:
    """Inverse of :func:`_pack_options`."""
    engine = t[13]
    return MaxTOptions(
        test=_TEST_NAMES[t[0]],
        side=_SIDE_NAMES[t[1]],
        fixed_seed_sampling="y" if t[2] else "n",
        B=int(t[3]),
        na=float(t[4]),
        nonpara="y" if t[5] else "n",
        seed=int(t[6]),
        chunk_size=int(t[7]),
        complete_limit=int(t[8]),
        nperm=int(t[9]),
        complete=bool(t[10]),
        store=bool(t[11]),
        dtype=_DTYPE_NAMES[t[12]],
        engine=_ENGINE_NAMES[engine] if isinstance(engine, int) else engine,
        engine_batch=int(t[14]),
    )


# Per-process steal-epoch counter: every steal job gets a fresh
# point-to-point tag (shipped to workers in the Step-2 broadcast), so a
# frame sent by a rank that died mid-job can never be mistaken for a
# message belonging to a later job on the same persistent world.
_STEAL_EPOCH = itertools.count(1)


def _resolve_schedule(schedule: str, steal_block: int | None,
                      options: MaxTOptions, checkpoint_dir: str | None,
                      world_size: int) -> tuple:
    """Master-side plan choice (Step 1): ``(block_size, tag)``.

    ``block_size`` is ``None`` for the static Figure-2 plan, else the
    steal plan's block size; ``tag`` is the job's point-to-point tag.
    ``auto`` steals whenever it can: a multi-rank world, no stored
    permutations (stored mode materialises one contiguous slice per
    rank) and no checkpointing (one checkpoint file per chunk).  The
    counts are bit-identical either way — the plan decides who computes
    each block, never what is computed.
    """
    if schedule not in ("auto", "static", "steal"):
        raise OptionError(
            f"schedule must be 'auto', 'static' or 'steal', got {schedule!r}")
    if steal_block is not None and int(steal_block) < 1:
        raise OptionError(f"steal_block must be >= 1, got {steal_block}")
    tag = STEAL_TAG_BASE + next(_STEAL_EPOCH) % 0x100000
    if schedule == "static":
        return (None, tag)
    blocked = []
    if options.store:
        blocked.append("stored permutations")
    if checkpoint_dir is not None:
        blocked.append("checkpointing")
    if world_size <= 1:
        blocked.append("a one-rank world")
    if blocked:
        if schedule == "steal":
            raise OptionError(
                f"schedule='steal' is incompatible with {', '.join(blocked)}")
        return (None, tag)
    block_size = int(steal_block) if steal_block is not None \
        else DEFAULT_STEAL_BLOCK
    return (block_size, tag)


@dataclass
class _RangeCounts:
    """Master-side return of a ranged run (``return_counts=True``).

    Carries exactly what the result cache needs to extend an entry: the
    observed statistics (for a consistency check against the cached
    ones) and the world-total counts over the requested permutation
    range, ``adjusted`` in significance order.
    """

    teststat: np.ndarray
    counts: KernelCounts
    nranks: int
    profile: SectionProfile | None = None


def _session_worker(comm: Communicator, checkpoint_dir: str | None = None,
                    checkpoint_interval: int = 2_048) -> MaxTResult | None:
    """Worker-rank pmaxT under a persistent session.

    Module-level (hence picklable) counterpart of the launch closure:
    worker ranks need no data or options of their own — both arrive via
    the master's Step 2/3 broadcasts — only the local checkpoint knobs.
    """
    return _pmaxt_run(None, None, comm=comm, checkpoint_dir=checkpoint_dir,
                      checkpoint_interval=checkpoint_interval)


def pmaxT(
    X=None,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    comm: Communicator | None = None,
    backend: str | None = None,
    ranks: int | None = None,
    session: BackendSession | None = None,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    engine: str = "auto",
    engine_batch: int = 0,
    blas_threads: int | None = None,
    row_names: list[str] | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 2_048,
    cache=None,
    cache_dir: str | None = None,
    timeout: float | None = None,
    schedule: str = "auto",
    steal_block: int | None = None,
) -> MaxTResult | None:
    """Parallel Westfall–Young maxT permutation test (SPMD entry point).

    ``X`` also accepts a :class:`~repro.mpi.datasets.PublishedDataset`
    handle from ``session.publish(X, labels)``: the matrix then never
    crosses the wire — workers map the published shared-memory segment
    read-only — and ``classlabel`` defaults to the published labels.

    ``cache``/``cache_dir`` enable the content-addressed result cache
    (see :class:`~repro.core.checkpoint.ResultCache`): an identical
    repeated analysis is answered from disk without computing anything,
    and a request for a **larger** ``B`` of a cached analysis computes
    only the new permutations ``[B_old, B_new)`` — bit-identical to a
    cold run at ``B_new``, because permutation ``k`` of the
    counter-based generators is independent of the total count.
    Resolution order: ``cache`` (a ResultCache object) > ``cache_dir`` >
    the session's cache (``open_session(..., cache_dir=...)``).  The raw
    SPMD path (``comm=``) bypasses the cache: every rank is inside the
    world there, so no single rank can orchestrate lookups.

    ``timeout`` bounds the launched job's execution in seconds on the
    ``backend=``/``ranks=``/``session=`` paths (expiry raises
    :class:`~repro.errors.CommunicatorError` and, under a session, tears
    the worker pool down for respawn); ignored with ``comm=``.

    ``schedule`` selects the block plan the executor runs: ``"static"``
    is the paper's Figure-2 plan (one contiguous chunk per rank, fixed up
    front, nothing to steal), ``"steal"`` carves the range into small
    blocks that finished ranks steal from stragglers via the master, and
    ``"auto"`` (default) steals whenever the job allows it — multi-rank,
    no stored permutations, no checkpointing.  Both plans run on the same
    executor, so a worker that dies mid-job under a session is recovered
    either way (its blocks are requeued, only that rank is respawned).
    Results are bit-identical across schedules; ``steal_block`` tunes the
    permutations-per-block granularity (default 256).  Neither knob
    enters the result-cache key, for exactly that reason.

    ``engine`` picks the array-module compute engine for the hot path
    (see :mod:`repro.accel`): ``"auto"`` (default) resolves to the best
    engine the host can drive — a CUDA-backed ``cupy``/``torch`` when
    present, the bit-identical batched ``numpy`` reference otherwise.
    ``engine_batch`` sets the rows per engine super-batch (0 = the
    engine's default).  Like the schedule, the engine never enters the
    result-cache key: permutation streams are bit-identical across
    engines and counts int64-exact.
    """
    if isinstance(X, PublishedDataset) and classlabel is None:
        classlabel = X.labels
    resolved_cache = cache
    if resolved_cache is None and cache_dir is not None:
        from .checkpoint import ResultCache

        resolved_cache = ResultCache(cache_dir)
    if resolved_cache is None and session is not None:
        resolved_cache = session.cache
    run_kwargs = dict(
        test=test, side=side, fixed_seed_sampling=fixed_seed_sampling,
        B=B, na=na, nonpara=nonpara, seed=seed, chunk_size=chunk_size,
        complete_limit=complete_limit, dtype=dtype,
        engine=engine, engine_batch=engine_batch,
        blas_threads=blas_threads, row_names=row_names,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        timeout=timeout,
        schedule=schedule, steal_block=steal_block,
    )
    if resolved_cache is None or comm is not None:
        return _pmaxt_run(X, classlabel, comm=comm, backend=backend,
                          ranks=ranks, session=session, **run_kwargs)
    return _pmaxt_cached(resolved_cache, X, classlabel, backend=backend,
                         ranks=ranks, session=session, **run_kwargs)


def _result_from_counts(teststat: np.ndarray, counts: KernelCounts,
                        options: MaxTOptions,
                        row_names: list[str] | None,
                        nranks: int) -> MaxTResult:
    """Rebuild a full result from observed statistics + total counts.

    The significance order and the untestable mask are deterministic
    functions of the stored statistics (``side_adjust`` then a stable
    argsort), so a cache hit reproduces the original run's p-values
    bit-identically without touching the data.
    """
    teststat = np.asarray(teststat)
    scores = side_adjust(teststat, options.side)
    order = significance_order(scores)
    rawp, adjp = pvalues_from_counts(
        counts.raw, counts.adjusted, order, counts.nperm,
        untestable=~np.isfinite(scores),
    )
    return MaxTResult(
        teststat=teststat, rawp=rawp, adjp=adjp, order=order,
        nperm=int(counts.nperm), test=options.test, side=options.side,
        complete=options.complete, nranks=nranks, row_names=row_names,
        counts=counts,
    )


def _dataset_fp_for(X, classlabel) -> str:
    """Content fingerprint of ``(X, classlabel)`` for result-cache keys.

    A :class:`~repro.mpi.datasets.PublishedDataset` paired with its own
    labels reuses the fingerprint computed once at publish time; any
    other combination hashes the underlying bytes.
    """
    from .checkpoint import dataset_fingerprint

    handle = X if isinstance(X, PublishedDataset) else None
    if handle is not None and classlabel is handle.labels:
        return handle.fingerprint
    source = handle.base_data() if handle is not None else X
    return dataset_fingerprint(source, classlabel)


def _validated_options(classlabel, run_kwargs) -> MaxTOptions:
    return validate_options(
        classlabel,
        test=run_kwargs["test"], side=run_kwargs["side"],
        fixed_seed_sampling=run_kwargs["fixed_seed_sampling"],
        B=run_kwargs["B"], na=run_kwargs["na"],
        nonpara=run_kwargs["nonpara"], seed=run_kwargs["seed"],
        chunk_size=run_kwargs["chunk_size"],
        complete_limit=run_kwargs["complete_limit"],
        dtype=run_kwargs["dtype"],
        engine=run_kwargs["engine"],
        engine_batch=run_kwargs["engine_batch"],
    )


def lookup_cached(
    cache,
    X,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    engine: str = "auto",
    engine_batch: int = 0,
    row_names: list[str] | None = None,
) -> MaxTResult | None:
    """Answer a pmaxT call from ``cache`` alone, or return ``None``.

    The exact-hit half of the cache orchestration, exposed so a service
    front-end can short-circuit an identical repeated analysis without
    occupying a worker pool: on a hit the rebuilt
    :class:`~repro.core.result.MaxTResult` is bit-identical to what
    :func:`pmaxT` would return (and ``cache.hits`` is bumped); a miss or
    a partial entry (smaller cached ``B``) returns ``None`` and leaves
    the counters alone — route those through :func:`pmaxT`, which also
    handles the incremental extension.
    """
    from .checkpoint import result_cache_key

    if isinstance(X, PublishedDataset) and classlabel is None:
        classlabel = X.labels
    if X is None or classlabel is None:
        raise DataError("the master rank must supply X and classlabel")
    options = validate_options(
        classlabel, test=test, side=side,
        fixed_seed_sampling=fixed_seed_sampling, B=B, na=na,
        nonpara=nonpara, seed=seed, chunk_size=chunk_size,
        complete_limit=complete_limit, dtype=dtype,
        engine=engine, engine_batch=engine_batch,
    )
    key = result_cache_key(_dataset_fp_for(X, classlabel), options)
    entry = cache.lookup(key, options.nperm)
    if entry is None or entry.nperm != options.nperm:
        return None
    cache.hits += 1
    return _result_from_counts(
        entry.teststat, entry.counts, options, row_names,
        nranks=int(entry.meta.get("nranks", 1)))


def _pmaxt_cached(cache, X, classlabel, *, backend, ranks, session,
                  **run_kwargs) -> MaxTResult:
    """Cache orchestration: hit -> rebuild, partial -> extend, miss -> run."""
    from .checkpoint import result_cache_key

    if X is None or classlabel is None:
        raise DataError("the master rank must supply X and classlabel")
    options = _validated_options(classlabel, run_kwargs)
    key = result_cache_key(_dataset_fp_for(X, classlabel), options)
    row_names = run_kwargs["row_names"]
    launch = dict(backend=backend, ranks=ranks, session=session)

    entry = cache.lookup(key, options.nperm)
    if entry is not None and entry.nperm == options.nperm:
        cache.hits += 1
        return _result_from_counts(
            entry.teststat, entry.counts, options, row_names,
            nranks=int(entry.meta.get("nranks", 1)))

    meta = {
        "test": options.test, "side": options.side,
        "dtype": options.dtype, "seed": options.seed,
        "complete": options.complete,
        "n": int(np.asarray(classlabel).size),
    }
    if entry is not None and not options.complete:
        # Incremental-B extension: the cached entry covers permutation
        # indices [0, B_old); compute only [B_old, B_new) and sum — the
        # counter-based keystream makes the union bit-identical to a
        # cold run at B_new.
        ext = _pmaxt_run(X, classlabel,
                         perm_range=(entry.nperm, options.nperm),
                         return_counts=True, **launch, **run_kwargs)
        if not np.array_equal(ext.teststat, entry.teststat,
                              equal_nan=True):
            raise DataError(
                "result-cache entry does not match this problem: the "
                "observed statistics differ (stale or corrupted cache "
                f"directory {cache.directory}); clear it and re-run")
        combined = KernelCounts(
            raw=entry.counts.raw + ext.counts.raw,
            adjusted=entry.counts.adjusted + ext.counts.adjusted,
            nperm=entry.counts.nperm + ext.counts.nperm,
        )
        cache.extensions += 1
        meta["nranks"] = ext.nranks
        meta["m"] = int(entry.teststat.size)
        cache.save(key, options.nperm, entry.teststat, combined, meta)
        result = _result_from_counts(entry.teststat, combined, options,
                                     row_names, nranks=ext.nranks)
        result.profile = ext.profile
        return result

    cache.misses += 1
    result = _pmaxt_run(X, classlabel, **launch, **run_kwargs)
    meta["nranks"] = result.nranks
    meta["m"] = result.m
    cache.save(key, options.nperm, result.teststat, result.counts, meta)
    return result


def _resolve_run_engine(options: MaxTOptions):
    """This rank's compute engine for one run, session-resident when possible.

    Under a persistent session each rank keeps one
    :class:`~repro.accel.base.ArrayOps` instance warm across whole pmaxT
    calls (engines hold reusable sort scratch and, on device engines,
    cached constant uploads); outside a session a fresh instance is built
    per call.  The cache is keyed by the *requested* spec so switching
    ``engine=`` or ``engine_batch=`` between calls re-resolves.
    """
    from ..accel import resolve_engine

    batch = options.engine_batch or None
    cache = resident_cache()
    if cache is None:
        return resolve_engine(options.engine, batch_rows=batch)
    spec = (options.engine, batch)
    resident = cache.get("compute_engine")
    if resident is None or resident[0] != spec:
        cache["compute_engine"] = (spec, resolve_engine(options.engine,
                                                        batch_rows=batch))
    return cache["compute_engine"][1]


def _published_rank_wire(options: MaxTOptions) -> bool:
    """Whether a published-dataset run should map the pre-ranked variant.

    True for ``nonpara="y"`` runs whose statistic is not itself rank
    based — Wilcoxon ranks internally either way (the per-rank transform
    would be skipped too), so it keeps the plain wire.
    """
    from ..stats.registry import STATISTICS

    cls = STATISTICS.get(options.test)
    return (options.nonpara == "y" and cls is not None
            and not getattr(cls, "_rank_based", False))


def _resident_workspace(stat, chunk_size: int, engine=None,
                        engine_batch: int | None = None
                        ) -> KernelWorkspace | None:
    """This rank's session-resident kernel workspace, if one is available.

    Under a persistent session each rank keeps one
    :class:`~repro.core.kernel.KernelWorkspace` warm across whole pmaxT
    calls; outside a session there is no resident cache and the kernel
    builds a private workspace per call.
    """
    cache = resident_cache()
    if cache is None:
        return None
    workspace = cache.get("kernel_workspace")
    if not (isinstance(workspace, KernelWorkspace)
            and workspace.compatible_with(stat, chunk_size, engine=engine,
                                          engine_batch=engine_batch)):
        workspace = KernelWorkspace.for_stat(stat, chunk_size, engine=engine,
                                             engine_batch=engine_batch)
        cache["kernel_workspace"] = workspace
    return workspace


def _run_blocks(comm, options: MaxTOptions, data, labels, stat, observed,
                range_start: int, range_stop: int, plan: tuple,
                checkpoint_dir: str | None,
                checkpoint_interval: int) -> KernelCounts | None:
    """Step 4: run this job's block plan on every rank.

    Builds the plan over ``[range_start, range_stop)`` (static or steal,
    see :func:`~repro.core.partition.block_plan`), runs the block
    protocol (:mod:`repro.core.steal`) and returns the world-total counts
    on the master (``None`` on workers); the counts travel on the
    protocol's messages.  They are int64 count sums, so any block-to-rank
    assignment and accumulation order is bit-identical — the invariant
    the golden tests pin across schedules and skew patterns.
    """
    from ..mpi.blasctl import apply_elastic_cap, get_blas_threads, set_blas_threads
    from ..mpi.processes import ProcessComm

    block_size, tag = plan
    blocks, runs = block_plan(range_start, range_stop, comm.size, block_size)
    # Stored mode materialises each block's own slice; the other
    # generators seek to any permutation index, so one serves every block.
    generator = None if options.store else build_generator(options, labels)
    ops = _resolve_run_engine(options)
    engine_batch = options.engine_batch or None
    # Under a session, each rank owns a resident KernelWorkspace that
    # survives across pmaxT calls (counts are bit-identical with or
    # without one — pinned by tests).  The checkpoint driver manages its
    # own workspace, so nothing is parked in the cache on that path.
    workspace = None if checkpoint_dir is not None else _resident_workspace(
        stat, options.chunk_size, engine=ops, engine_batch=engine_batch)
    delay = injected_delay(comm.rank)

    def compute_block(block):
        if options.store:
            # The stored generator replays its slice with local indices.
            gen = build_generator(options, labels,
                                  store_slice=(block.start, block.count))
            start = 0
        else:
            gen, start = generator, block.start
        kernel_args = dict(start=start, count=block.count,
                           chunk_size=options.chunk_size,
                           first_is_observed=(block.start == 0),
                           engine=ops, engine_batch=engine_batch)
        if checkpoint_dir is None:
            counts = run_kernel(stat, gen, observed, options.side,
                                workspace=workspace, **kernel_args)
        else:
            from .checkpoint import (
                CheckpointStore,
                problem_fingerprint,
                run_kernel_resumable,
            )

            # Checkpointed runs use the static plan, where block ``r`` is
            # rank ``r``'s Figure-2 chunk: the file is ``rank<r>.npz``
            # whichever rank computes it, so a survivor that takes over a
            # dead rank's chunk resumes its progress.
            store = CheckpointStore(checkpoint_dir, rank=block.bid)
            counts = run_kernel_resumable(
                stat, gen, observed, options.side, store=store,
                fingerprint=problem_fingerprint(
                    data, labels, options, block.start, block.count),
                interval=checkpoint_interval, **kernel_args)
            store.clear()
        if delay > 0:
            time.sleep(delay * block.count)
        return counts

    def merge(acc, contribution):
        if acc is None:
            # Fresh accumulator arrays: a worker abandons (never mutates)
            # whatever it last sent, and the master must not fold peers'
            # contributions into an object a sender might still hold (the
            # threads backend passes messages by reference).
            return KernelCounts(raw=contribution.raw.copy(),
                                adjusted=contribution.adjusted.copy(),
                                nperm=contribution.nperm)
        acc += contribution
        return acc

    # Elastic BLAS re-caps: grants/stops carry a freshly snapshotted
    # number of still-busy ranks, and each process-world rank re-caps its
    # pool to match — widening as peers go idle (the tail of a skewed job
    # uses the whole host), narrowing back down to its starting cap when
    # a later snapshot reports more busy ranks again (a death requeue
    # refilling the pool).  In-process worlds share one BLAS pool, so
    # they skip this.
    recap = None
    elastic: dict = {"current": None, "touched": False, "original": None}
    if isinstance(comm, ProcessComm):
        def recap(nactive: int) -> None:
            if not elastic["touched"]:
                elastic["touched"] = True
                elastic["original"] = elastic["current"] = get_blas_threads()
            elastic["current"] = apply_elastic_cap(
                nactive, elastic["current"], floor=elastic["original"])

    try:
        if comm.is_master:
            # Sub-block polling only under a steal plan: a stored slice or
            # a checkpointed chunk is always computed by one call.
            acc, ledger, stats = run_steal_master(
                comm, blocks, runs, compute_block, merge, tag=tag,
                recap=recap,
                poll_unit=None if block_size is None else options.chunk_size)
            ledger.assert_exact_cover(range_start, range_stop)
            on_stats = getattr(comm, "_on_steal_stats", None)
            if on_stats is not None and block_size is not None:
                on_stats(stats)
            return acc
        run_steal_worker(comm, blocks, runs[comm.rank], compute_block,
                         merge, tag=tag, recap=recap)
        return None
    finally:
        if (elastic["touched"] and elastic["original"] is not None
                and elastic["current"] != elastic["original"]):
            set_blas_threads(elastic["original"])


def _pmaxt_run(
    X=None,
    classlabel=None,
    test: str = "t",
    side: str = "abs",
    fixed_seed_sampling: str = "y",
    B: int = 10_000,
    na: float = MT_NA_NUM,
    nonpara: str = "n",
    *,
    comm: Communicator | None = None,
    backend: str | None = None,
    ranks: int | None = None,
    session: BackendSession | None = None,
    seed: int = DEFAULT_SEED,
    chunk_size: int = DEFAULT_CHUNK,
    complete_limit: int = DEFAULT_COMPLETE_LIMIT,
    dtype: str = "float64",
    engine: str = "auto",
    engine_batch: int = 0,
    blas_threads: int | None = None,
    row_names: list[str] | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 2_048,
    perm_range: tuple | None = None,
    return_counts: bool = False,
    timeout: float | None = None,
    schedule: str = "auto",
    steal_block: int | None = None,
) -> MaxTResult | _RangeCounts | None:
    """The SPMD algorithm (cache-free half of :func:`pmaxT`).

    The interface is identical to :func:`~repro.core.maxt.mt_maxT` — the
    paper's headline usability claim — plus ``comm``, the MPI-substrate
    communicator.  With ``comm=None`` (or a one-rank world) this runs the
    serial algorithm, profiled into the same five sections.

    Alternatively pass ``backend=`` (a registered execution-backend name:
    ``"serial"``, ``"threads"``, ``"processes"``, ``"shm"``, or a custom
    registration) and ``ranks=`` to have pmaxT stand up the SPMD world
    itself and return the master's result directly — a one-line parallel
    run with no explicit world management.  ``backend`` and ``comm`` are
    mutually exclusive.

    For repeated calls, pass ``session=`` (from
    :func:`repro.mpi.open_session`) instead: the session's resident
    worker pool serves every call warm — no process spawns after the
    first, and each rank reuses its resident
    :class:`~repro.core.kernel.KernelWorkspace` across calls of the same
    problem shape.  Results are identical to every other launch path.

    On worker ranks ``X`` and ``classlabel`` may be ``None``; the data
    arrives via the master's broadcast.  The result is returned on the
    master; workers receive ``None``.

    ``dtype`` selects the statistic compute precision: ``"float64"``
    (default) or ``"float32"`` (~2x BLAS throughput at ~1e-5 relative
    accuracy; the kernel's tie tolerance widens accordingly).

    ``blas_threads`` caps each rank's BLAS threadpool.  The
    ``processes``/``shm`` worker bootstrap already auto-caps at
    ``max(1, cores // ranks)`` (the oversubscription fix); pass an
    explicit value to override it, or ``0`` to disable capping.  On the
    ``backend=``/``ranks=`` path the cap is scoped to the launched world;
    on the ``comm=`` (user-managed SPMD) path it caps the calling rank's
    own pool and persists for that rank's lifetime.

    ``checkpoint_dir`` enables the fault-tolerance extension (paper
    future-work item 1): each rank periodically persists its partial counts
    and a re-run of the identical call resumes from the last checkpoint
    instead of restarting its chunk — see :mod:`repro.core.checkpoint`.

    The output is **identical to the serial output** for any rank count
    and schedule: every block plan tiles the permutation range exactly
    (the master's ledger checks it), and the skippable generators
    reproduce the serial permutation sequence for any block.
    """
    if backend is not None or ranks is not None or session is not None:
        from ..mpi.backends import launch_master

        def _job(world_comm: Communicator) -> MaxTResult | _RangeCounts | None:
            return _pmaxt_run(
                X if world_comm.is_master else None,
                classlabel if world_comm.is_master else None,
                test=test, side=side,
                fixed_seed_sampling=fixed_seed_sampling, B=B, na=na,
                nonpara=nonpara, comm=world_comm, seed=seed,
                chunk_size=chunk_size, complete_limit=complete_limit,
                dtype=dtype, engine=engine, engine_batch=engine_batch,
                row_names=row_names,
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=checkpoint_interval,
                perm_range=perm_range, return_counts=return_counts,
                schedule=schedule, steal_block=steal_block,
            )

        # The worker-rank half for a persistent session (jobs cross a
        # queue there, so the callable must be picklable): everything but
        # the checkpoint knobs arrives via the Step 2/3 broadcasts.
        worker = partial(_session_worker, checkpoint_dir=checkpoint_dir,
                         checkpoint_interval=checkpoint_interval)
        return launch_master(backend, ranks, _job, comm=comm,
                             session=session, worker_fn=worker,
                             caller="pmaxT", blas_threads=blas_threads,
                             timeout=timeout)

    if comm is None:
        comm = SerialComm()
    if blas_threads is not None and int(blas_threads) < 0:
        raise OptionError(
            f"blas_threads must be >= 0 (0 disables capping), "
            f"got {blas_threads}")
    if blas_threads is not None and blas_threads != 0:
        # SPMD path (or plain serial call): cap this rank's own pool.  The
        # backend=/ranks= path above handles capping via launch_master.
        from ..mpi.blasctl import set_blas_threads

        set_blas_threads(blas_threads)
    master = comm.is_master
    timer = SectionTimer()

    # -- Step 1: master-side pre-processing --------------------------------
    payload = None
    handle: PublishedDataset | None = None
    data = labels = route = None
    pre_ranked = False
    with timer.section("pre_processing"):
        if master:
            if isinstance(X, PublishedDataset):
                handle = X
                if classlabel is None:
                    classlabel = handle.labels
            if X is None or classlabel is None:
                raise DataError("the master rank must supply X and classlabel")
            options = validate_options(
                classlabel,
                test=test,
                side=side,
                fixed_seed_sampling=fixed_seed_sampling,
                B=B,
                na=na,
                nonpara=nonpara,
                seed=seed,
                chunk_size=chunk_size,
                complete_limit=complete_limit,
                dtype=dtype,
                engine=engine,
                engine_batch=engine_batch,
            )
            if handle is not None:
                # Published dataset: resolve the variant whose bytes
                # match this run's broadcast wire exactly (float64 keeps
                # NA codes raw; float32 NaN-ifies them before the cast).
                # A nonpara run resolves the shared pre-ranked variant —
                # the rank transform runs once per publish, and every
                # rank skips its per-call re-rank.
                pre_ranked = _published_rank_wire(options)
                if pre_ranked:
                    data, route = handle.resolve(
                        options.dtype, options.na, rank=True)
                else:
                    data, route = handle.resolve(
                        options.dtype,
                        options.na if options.dtype == "float32" else None)
            plan = _resolve_schedule(schedule, steal_block, options,
                                     checkpoint_dir, comm.size)
            payload = (_pack_options(options), route, perm_range,
                       bool(return_counts), plan, pre_ranked)

    # -- Step 2: broadcast scalar parameters --------------------------------
    with timer.section("broadcast_parameters"):
        packed, route, perm_range, return_counts, plan, pre_ranked = \
            comm.bcast(payload, root=0)
        options = _unpack_options(packed)
        if perm_range is None:
            perm_range = (0, options.nperm)
        range_start, range_stop = int(perm_range[0]), int(perm_range[1])
        if not 0 <= range_start < range_stop <= options.nperm:
            raise DataError(
                f"invalid permutation range {perm_range!r} for "
                f"nperm={options.nperm}")

    # -- Step 3: broadcast + transform the input data ------------------------
    with timer.section("create_data"):
        if master and handle is None:
            if options.dtype == "float64":
                # Zero-copy for contiguous float64 input; NA codes travel
                # as-is and every rank's statistic NaN-ifies them (the
                # pre-session behaviour, kept bit- and fingerprint-
                # identical).
                data = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
            else:
                # float32 wire: the NA code must become NaN *before* the
                # cast — MT_NA_NUM is not float32-representable, so a
                # cast-first wire would round the code away and the
                # statistics would miss the missing cells.  The per-rank
                # to_nan stays idempotent on the NaN-ified result.
                data = to_nan(X, options.na)
        if master:
            labels = np.ascontiguousarray(np.asarray(classlabel,
                                                     dtype=np.int64))
        if route is not None:
            # The matrix was published once into named shared memory:
            # nothing to broadcast.  The master already holds its view;
            # each worker maps the segment by name, memoised in its
            # session-resident cache — a warm worker moves zero bytes.
            if not master:
                data = attach_published_view(route)
        else:
            # Array-aware collectives: the backend moves the matrix its
            # own best way (zero-copy segments on "shm", pickled queues
            # on "processes", the shared address space in-process).  The
            # wire is dtype-aware: a float32 compute run ships float32
            # bytes — half the "create data" traffic — rather than
            # casting after transfer.
            data = comm.bcast_array(data, root=0, dtype=options.dtype)
        labels = comm.bcast_array(labels, root=0)
        # Global sum synchronises all ranks and confirms allocation
        # succeeded everywhere (the paper's Step 3 "global sum").
        ready = comm.allreduce(1, op=SUM)
        if ready != comm.size:  # pragma: no cover - defensive
            raise DataError("not all ranks completed data creation")

    # -- Step 4: every rank runs the job's block plan ------------------------
    with timer.section("main_kernel"):
        stat = build_statistic(options, data, labels, pre_ranked=pre_ranked)
        observed = compute_observed(stat, options.side)
        totals = _run_blocks(comm, options, data, labels, stat, observed,
                             range_start, range_stop, plan, checkpoint_dir,
                             checkpoint_interval)

    # -- Step 5: compute p-values from the master's world totals -------------
    result: MaxTResult | _RangeCounts | None = None
    with timer.section("compute_pvalues"):
        if master:
            if return_counts:
                # The caller (the result cache) sums these with a prior
                # run's counts; p-values are computed once at the end.
                result = _RangeCounts(teststat=observed.stats, counts=totals,
                                      nranks=comm.size)
            else:
                rawp, adjp = pvalues_from_counts(
                    totals.raw, totals.adjusted, observed.order,
                    options.nperm, untestable=observed.untestable,
                )
                result = MaxTResult(
                    teststat=observed.stats,
                    rawp=rawp,
                    adjp=adjp,
                    order=observed.order,
                    nperm=options.nperm,
                    test=options.test,
                    side=options.side,
                    complete=options.complete,
                    nranks=comm.size,
                    row_names=row_names,
                    counts=totals,
                )

    # -- Step 6: free memory (implicit) + attach the profile -----------------
    if result is not None:
        result.profile = timer.profile
    return result
