"""Block executor for every pmaxT schedule, with deterministic work stealing.

Every ``pmaxT`` run is a *block plan* over ``[range_start, range_stop)``:
a tuple of :class:`~repro.core.partition.Block`\\ s plus each rank's
initial run of block ids; blocks in no initial run form the steal pool.
This module executes any such plan.

* The **static** plan is the paper's Figure-2 partition: each rank's
  contiguous chunk is one block in its initial run and the pool is empty,
  so a rank computes its chunk, reports the counts and is told to stop.
* The **steal** plan carves the range into fixed-size blocks, gives every
  rank one block to start with
  (:func:`~repro.core.partition.plan_initial_runs`) and leaves the rest in
  the pool: finished ranks request further blocks from the master over
  the point-to-point control plane, so they steal load from stragglers.

Either way the counts reach the master on the protocol's messages (there
is no separate count reduction), and the master's :class:`BlockLedger`
audits that every block was computed exactly once.  The ledger is also
what a checkpoint persists (:class:`~repro.core.checkpoint.CheckpointStore`):
the done block ids plus their summed counts, so a re-run starts with those
blocks done and computes only the rest, on any number of ranks.

Determinism is preserved by construction rather than by locking:

* each block's permutation draws depend only on its permutation indices
  (the Philox keystream gives O(1) seek to any index), so a block computes
  the same contribution on any rank;
* the accumulated quantities are integer count vectors, and int64 addition
  is exactly associative and commutative, so *any* block-to-rank assignment
  and *any* accumulation order reproduce the static plan bit for bit.

The protocol is three message types on a per-job tag:

* worker → master ``("req", finished_bids, contribution)`` — report the
  blocks just completed (with their merged counts) and ask for more;
* master → worker ``("grant", bid, nactive)`` — compute block ``bid``;
* master → worker ``("stop", nactive)`` — the pool is drained, exit.

``nactive`` rides along so the tail of the job can widen the survivors'
BLAS caps (:func:`repro.mpi.blasctl.apply_elastic_cap`): once the queue
drains and ranks go idle, the remaining busy ranks may use the whole host.
The master counts itself as busy while it computes a block, so it never
widens its own pool while a worker is still computing.

Fault granularity: when a worker dies mid-job the session's health watcher
raises :class:`~repro.errors.WorkerDeadError` inside the master's blocking
receive.  If the communicator exposes an ``_acknowledge_dead`` hook (every
:class:`~repro.mpi.session.WorkerPoolSession` attaches one, one-shot pools
included), the master requeues exactly the dead rank's in-flight blocks
and finishes with the survivors — their warm ``resident_cache()``
workspaces and published dataset attachments are untouched, and a
persistent session respawns only the dead rank afterwards.  Without the
hook the error propagates and the world tears down.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Sequence

from ..errors import PermutationError, WorkerDeadError
from .partition import Block

__all__ = [
    "STEAL_TAG_BASE",
    "DEFAULT_STEAL_BLOCK",
    "BlockLedger",
    "injected_delay",
    "run_steal_master",
    "run_steal_worker",
]

#: Base point-to-point tag for steal traffic.  Each job adds its own epoch
#: (agreed via the Step-2 parameter broadcast) so a frame from a rank that
#: died mid-job can never be mistaken for a message of a later job.
STEAL_TAG_BASE = 0x53_000000

#: Default permutations per block.  Small enough that a 4x straggler sheds
#: most of its share, large enough that the per-block request round-trip
#: (one pickled tuple each way) stays far below the block's GEMM time.
DEFAULT_STEAL_BLOCK = 256

#: Test/benchmark hook: ``REPRO_STEAL_TEST_DELAY="1:0.002,*:0.0005"`` makes
#: rank 1 sleep 2 ms per permutation and every other rank 0.5 ms — how the
#: straggler tests and ``bench_straggler.py`` induce skew on any host.
_DELAY_ENV_VAR = "REPRO_STEAL_TEST_DELAY"


def injected_delay(rank: int) -> float:
    """Per-permutation sleep (seconds) injected for ``rank``, usually 0.

    Parses :data:`_DELAY_ENV_VAR` (``rank:seconds`` pairs, comma-separated,
    ``*`` as wildcard); malformed entries are ignored so a stray value can
    never break a production run.
    """
    spec = os.environ.get(_DELAY_ENV_VAR)
    if not spec:
        return 0.0
    fallback = 0.0
    for entry in spec.split(","):
        key, _, value = entry.partition(":")
        try:
            seconds = float(value)
        except ValueError:
            continue
        key = key.strip()
        if key == "*":
            fallback = seconds
        elif key == str(rank):
            return seconds
    return fallback


class BlockLedger:
    """Master-side record of where every block is and whether it finished.

    The ledger is the determinism *audit*: the arithmetic is correct for
    any assignment, so the only thing that can go wrong is coverage — a
    block computed twice or not at all.  :meth:`assert_exact_cover` is
    pmaxT's only permutation-accounting check, for every plan.

    ``done`` lists blocks restored from a checkpoint: they start done, so
    they are never granted and the cover audit still spans the whole range.
    """

    def __init__(self, blocks: Sequence[Block], done: Sequence[int] = ()):
        self._blocks = tuple(blocks)
        self._granted: dict[int, int] = {}
        #: Done block -> the rank that computed it (``None``: restored).
        self._done: dict[int, int | None] = dict.fromkeys(done)

    def grant(self, bid: int, rank: int) -> None:
        if bid in self._done or bid in self._granted:
            raise PermutationError(f"block {bid} granted twice")
        self._granted[bid] = rank

    def mark_done(self, rank: int, bids: Sequence[int]) -> None:
        for bid in bids:
            owner = self._granted.pop(bid, None)
            if owner != rank:
                raise PermutationError(
                    f"rank {rank} reported block {bid} done, but it was "
                    f"granted to {owner}"
                )
            self._done[bid] = rank

    def requeue_rank(self, rank: int) -> list[int]:
        """Forget the grants of a dead rank; returns its in-flight bids."""
        lost = sorted(bid for bid, r in self._granted.items() if r == rank)
        for bid in lost:
            del self._granted[bid]
        return lost

    def in_flight(self, rank: int) -> list[int]:
        return sorted(bid for bid, r in self._granted.items() if r == rank)

    @property
    def done(self) -> tuple[int, ...]:
        """The ids of every finished block, restored ones included."""
        return tuple(sorted(self._done))

    @property
    def complete(self) -> bool:
        return not self._granted and len(self._done) == len(self._blocks)

    def assert_exact_cover(self, start: int, stop: int) -> None:
        """Every block done exactly once and the blocks tile ``[start, stop)``."""
        if self._granted:
            raise PermutationError(
                f"steal ledger has {len(self._granted)} blocks still in "
                f"flight at job end: {sorted(self._granted)}"
            )
        missing = [b.bid for b in self._blocks if b.bid not in self._done]
        if missing:
            raise PermutationError(
                f"steal ledger is missing blocks {missing} at job end"
            )
        at = start
        for block in self._blocks:
            if block.start != at:
                raise PermutationError(
                    f"block {block.bid} starts at {block.start}, expected {at}"
                )
            at = block.stop
        if at != stop:
            raise PermutationError(
                f"blocks cover [{start}, {at}), expected [{start}, {stop})"
            )


def run_steal_master(
    comm: Any,
    blocks: Sequence[Block],
    runs: Sequence[range],
    compute_block: Callable[[Block], Any],
    merge: Callable[[Any, Any], Any],
    *,
    tag: int,
    recap: Callable[[int], None] | None = None,
    poll_unit: int | None = None,
    restored: tuple[Sequence[int], Any] = ((), None),
    on_done: Callable[[BlockLedger, Any], None] | None = None,
) -> tuple[Any, BlockLedger, dict[str, int]]:
    """Rank 0's side of the steal protocol.

    Serves block requests, computes its own initial run and — between
    requests — pool blocks, handles worker deaths when the communicator
    allows it, and returns ``(accumulated, ledger, stats)``.  The
    accumulator folds contributions with ``merge(acc, contribution)``
    (``acc`` starts as ``None``); associativity of the underlying counts
    makes the fold order irrelevant to the bits of the result.

    ``poll_unit`` bounds how long a straggler can wait for a refill
    while rank 0 is computing: the master's own blocks are computed in
    sub-block units of at most ``poll_unit`` permutations, and pending
    steal requests are serviced between units.  ``None`` keeps the
    whole-block granularity.  Sub-units tile the block's permutation
    indices exactly, so the contribution (an associative int64 count
    sum) is bit-identical to the whole-block compute.

    ``restored`` is ``(block ids, their summed counts)`` from a
    checkpoint: those blocks start done, their counts seed the
    accumulator, and no rank is granted them (the ``runs`` must already
    leave them out).  ``on_done(ledger, acc)`` runs whenever blocks are
    marked done, and ``acc`` then covers exactly ``ledger.done`` — the
    invariant a checkpoint saved from it relies on.
    """
    done, acc = restored
    ledger = BlockLedger(blocks, done=done)
    my_blocks: deque[int] = deque(runs[0])
    taken = {bid for run in runs for bid in run}.union(done)
    pool: deque[int] = deque(b.bid for b in blocks if b.bid not in taken)
    for rank, run in enumerate(runs):
        for bid in run:
            ledger.grant(bid, rank)
    active = set(range(1, comm.size))
    dead: set[int] = set()
    stats = {
        "blocks_total": len(blocks),
        "blocks_stolen": 0,
        "deaths_handled": 0,
        "blocks_requeued": 0,
    }

    busy = False  # rank 0 is computing a block (it counts as active)

    def nactive() -> int:
        return len(active) + (1 if busy or my_blocks or pool else 0)

    def drain() -> None:
        # Only live workers send requests, so a one-rank world (or a job
        # whose workers have all stopped) never needs any-source polling.
        while active:
            pending = comm.poll_any(tag)
            if pending is None:
                return
            handle_request(*pending)

    def handle_request(src: int, payload: Any) -> None:
        nonlocal acc
        if src in dead or src not in active:
            return  # a frame that outlived its sender; its blocks requeue
        kind, finished, contribution = payload
        if kind != "req":  # pragma: no cover - protocol invariant
            raise PermutationError(f"unexpected steal message {kind!r}")
        ledger.mark_done(src, finished)
        if contribution is not None:
            acc = merge(acc, contribution)
        if finished and on_done is not None:
            on_done(ledger, acc)
        if pool:
            bid = pool.popleft()
            ledger.grant(bid, src)
            stats["blocks_stolen"] += 1
            comm.send(("grant", bid, nactive()), src, tag)
        else:
            active.discard(src)
            comm.send(("stop", nactive()), src, tag)

    def handle_death(rank: int) -> None:
        requeued = ledger.requeue_rank(rank)
        pool.extendleft(reversed(requeued))
        active.discard(rank)
        dead.add(rank)
        stats["deaths_handled"] += 1
        stats["blocks_requeued"] += len(requeued)

    while True:
        drain()
        if my_blocks:
            bid = my_blocks.popleft()
        elif pool:
            bid = pool.popleft()
            ledger.grant(bid, 0)
        elif active:
            try:
                src, payload = comm.recv_any(tag)
            except WorkerDeadError as exc:
                ack = getattr(comm, "_acknowledge_dead", None)
                if ack is None:
                    raise
                ack(exc.rank)
                handle_death(exc.rank)
                continue
            handle_request(src, payload)
            continue
        else:
            break
        busy = True
        if recap is not None:
            recap(nactive())
        block = blocks[bid]
        if poll_unit is None or poll_unit >= block.count:
            part = compute_block(block)
        else:
            # Sub-block service units: drain pending steal requests
            # between units so a large steal_block on the master cannot
            # delay a straggler's refill by a whole block's compute.  The
            # units sum into the block's own part, which joins ``acc``
            # only with the whole block, so ``on_done`` never sees a
            # partial block.
            part, at = None, block.start
            while at < block.stop:
                count = min(poll_unit, block.stop - at)
                part = merge(part, compute_block(
                    Block(bid=block.bid, start=at, count=count)))
                at += count
                if at < block.stop:
                    drain()
        busy = False
        ledger.mark_done(0, [bid])
        acc = merge(acc, part)
        if on_done is not None:
            on_done(ledger, acc)
    return acc, ledger, stats


def run_steal_worker(
    comm: Any,
    blocks: Sequence[Block],
    run: range,
    compute_block: Callable[[Block], Any],
    merge: Callable[[Any, Any], Any],
    *,
    tag: int,
    recap: Callable[[int], None] | None = None,
) -> None:
    """A worker rank's side of the steal protocol.

    Computes the deterministic initial ``run`` without talking to the
    master, then loops request → grant/stop.  Contributions are merged
    locally and shipped with the next request, so the master receives one
    payload per round-trip rather than one per block.  After every send the
    local accumulator is abandoned, never mutated — required for the
    threads backend, where ``send`` passes objects by reference.
    """
    acc: Any = None
    finished: list[int] = []
    for bid in run:
        acc = merge(acc, compute_block(blocks[bid]))
        finished.append(bid)
    while True:
        comm.send(("req", finished, acc), 0, tag)
        acc = None
        finished = []
        message = comm.recv(0, tag)
        if message[0] == "stop":
            return
        _, bid, active = message
        if recap is not None:
            recap(active)
        acc = merge(acc, compute_block(blocks[bid]))
        finished = [bid]
