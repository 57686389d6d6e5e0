"""Work-stealing scheduler: bit-identity, fault granularity, elastic caps.

The tentpole guarantees pinned here:

* the steal schedule reproduces the static Figure-2 plan **bit for bit**
  on every backend, under any induced skew (throttled master, throttled
  worker) and any block size — the schedule decides who computes each
  block, never what is computed;
* ``schedule="auto"`` engages stealing whenever the run supports it and
  falls back to the static plan (not an error) when it does not; explicit
  ``schedule="steal"`` in an unsupported run is an
  :class:`~repro.errors.OptionError`;
* the master's :class:`~repro.core.steal.BlockLedger` proves exact cover
  — every permutation block computed exactly once;
* a worker SIGKILLed mid-steal costs the job nothing: the master requeues
  its in-flight blocks, finishes with the survivors (result still
  bit-identical), and the next dispatch respawns **only** the dead rank —
  surviving pids, resident caches and published segments stay warm.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import pmaxT
from repro.core.partition import Block, carve_blocks, plan_initial_runs
from repro.core.steal import (
    DEFAULT_STEAL_BLOCK,
    BlockLedger,
    injected_delay,
    run_steal_master,
    run_steal_worker,
)
from repro.errors import OptionError, PermutationError
from repro.mpi import open_session, run_spmd
from repro.mpi.blasctl import elastic_blas_cap
from repro.mpi.session import resident_cache

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def dataset():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 16))
    labels = np.array([0] * 8 + [1] * 8, dtype=np.int64)
    return X, labels


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert np.array_equal(a.order, b.order)
    assert a.nperm == b.nperm


# -- block arithmetic -------------------------------------------------------


class TestCarveBlocks:
    def test_exact_division(self):
        blocks = carve_blocks(0, 1000, 250)
        assert [b.bid for b in blocks] == [0, 1, 2, 3]
        assert [(b.start, b.count) for b in blocks] == [
            (0, 250), (250, 250), (500, 250), (750, 250)]

    def test_remainder_becomes_short_final_block(self):
        blocks = carve_blocks(0, 1000, 300)
        assert [(b.start, b.count) for b in blocks] == [
            (0, 300), (300, 300), (600, 300), (900, 100)]
        assert blocks[-1].stop == 1000

    def test_nonzero_start(self):
        blocks = carve_blocks(500, 1100, 256)
        assert blocks[0].start == 500
        assert blocks[-1].stop == 1100
        assert sum(b.count for b in blocks) == 600

    def test_block_larger_than_range(self):
        (block,) = carve_blocks(0, 100, 10_000)
        assert (block.start, block.count) == (0, 100)

    def test_empty_range_rejected(self):
        with pytest.raises(PermutationError):
            carve_blocks(10, 10, 100)

    def test_bad_block_size_rejected(self):
        with pytest.raises(PermutationError):
            carve_blocks(0, 100, 0)


class TestInitialRuns:
    def test_runs_are_contiguous_and_disjoint(self):
        runs = plan_initial_runs(40, 4)
        assert len(runs) == 4
        covered = [bid for run in runs for bid in run]
        assert covered == sorted(set(covered))
        assert covered[0] == 0  # block 0 (observed labelling) on master

    def test_short_runs_leave_pool(self):
        runs = plan_initial_runs(40, 4)
        assert sum(len(r) for r in runs) < 40

    def test_fewer_blocks_than_ranks(self):
        runs = plan_initial_runs(2, 8)
        assert len(runs) == 8
        assert sum(len(r) for r in runs) <= 2
        assert len(runs[0]) == 1  # the master always has block 0


# -- ledger -----------------------------------------------------------------


def _blocks(n, size=10):
    return carve_blocks(0, n * size, size)


class TestBlockLedger:
    def test_exact_cover(self):
        blocks = _blocks(4)
        ledger = BlockLedger(blocks)
        for b in blocks:
            ledger.grant(b.bid, rank=b.bid % 2)
            ledger.mark_done(b.bid % 2, [b.bid])
        assert ledger.complete
        ledger.assert_exact_cover(0, 40)

    def test_double_grant_rejected(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="granted twice"):
            ledger.grant(0, 2)
        ledger.mark_done(1, [0])
        with pytest.raises(PermutationError, match="granted twice"):
            ledger.grant(0, 1)

    def test_wrong_owner_rejected(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="granted to"):
            ledger.mark_done(2, [0])

    def test_requeue_returns_in_flight_blocks(self):
        ledger = BlockLedger(_blocks(4))
        for bid in (0, 1, 2):
            ledger.grant(bid, 1)
        ledger.mark_done(1, [1])
        assert ledger.in_flight(1) == [0, 2]
        assert ledger.requeue_rank(1) == [0, 2]
        assert ledger.in_flight(1) == []
        # requeued blocks can be granted again
        ledger.grant(0, 2)

    def test_in_flight_blocks_fail_cover(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        with pytest.raises(PermutationError, match="in flight"):
            ledger.assert_exact_cover(0, 20)

    def test_missing_blocks_fail_cover(self):
        ledger = BlockLedger(_blocks(2))
        ledger.grant(0, 1)
        ledger.mark_done(1, [0])
        with pytest.raises(PermutationError, match="missing"):
            ledger.assert_exact_cover(0, 20)

    def test_wrong_span_fails_cover(self):
        blocks = _blocks(2)
        ledger = BlockLedger(blocks)
        for b in blocks:
            ledger.grant(b.bid, 0)
            ledger.mark_done(0, [b.bid])
        with pytest.raises(PermutationError):
            ledger.assert_exact_cover(0, 30)


# -- the protocol on a real in-process world --------------------------------


def _steal_job(comm):
    """Sum block counts through the full protocol; returns (acc, stats) on 0.

    The master is throttled so the workers drain their initial runs first
    and demonstrably steal from the pool.
    """
    blocks = carve_blocks(0, 400, 10)
    runs = plan_initial_runs(len(blocks), comm.size)

    def compute(block: Block):
        if comm.rank == 0:
            time.sleep(0.01)
        return block.count

    def merge(acc, piece):
        return piece if acc is None else acc + piece

    if comm.rank == 0:
        acc, ledger, stats = run_steal_master(
            comm, blocks, runs, compute, merge, tag=0x5400001)
        ledger.assert_exact_cover(0, 400)
        return acc, stats
    run_steal_worker(comm, blocks, runs[comm.rank], compute, merge,
                     tag=0x5400001)
    return None


class TestProtocol:
    def test_total_and_cover(self):
        results = run_spmd(_steal_job, 4)
        acc, stats = results[0]
        assert acc == 400
        assert stats["blocks_total"] == 40
        assert stats["blocks_stolen"] > 0
        assert stats["deaths_handled"] == 0


def _steal_job_poll(comm):
    """Same protocol with a throttled master split into poll_unit pieces."""
    blocks = carve_blocks(0, 400, 50)
    runs = plan_initial_runs(len(blocks), comm.size)

    def compute(block: Block):
        if comm.rank == 0:
            time.sleep(0.002)
        return block.count

    def merge(acc, piece):
        return piece if acc is None else acc + piece

    if comm.rank == 0:
        acc, ledger, stats = run_steal_master(
            comm, blocks, runs, compute, merge, tag=0x5400002, poll_unit=16)
        ledger.assert_exact_cover(0, 400)
        return acc, stats
    run_steal_worker(comm, blocks, runs[comm.rank], compute, merge,
                     tag=0x5400002)
    return None


class TestPollUnit:
    """Master-side sub-block service units between steal requests."""

    class _SoloComm:
        size = 1
        rank = 0

        def poll_any(self, tag):
            return None

    @staticmethod
    def _merge(acc, piece):
        return piece if acc is None else acc + piece

    def test_sub_blocks_tile_each_block_exactly(self):
        blocks = carve_blocks(0, 100, 30)  # 30, 30, 30, 10
        runs = plan_initial_runs(len(blocks), 1)
        pieces = []

        def compute(block: Block):
            pieces.append((block.bid, block.start, block.count))
            return block.count

        acc, ledger, _ = run_steal_master(
            self._SoloComm(), blocks, runs, compute, self._merge,
            tag=0x5400003, poll_unit=8)
        ledger.assert_exact_cover(0, 100)
        assert acc == 100
        assert all(count <= 8 for _, _, count in pieces)
        for block in blocks:
            at = block.start
            for _, start, count in [p for p in pieces if p[0] == block.bid]:
                assert start == at
                at += count
            assert at == block.stop

    def test_unit_covering_block_computes_whole_blocks(self):
        blocks = carve_blocks(0, 40, 10)
        runs = plan_initial_runs(len(blocks), 1)
        pieces = []

        def compute(block: Block):
            pieces.append(block.count)
            return block.count

        acc, ledger, _ = run_steal_master(
            self._SoloComm(), blocks, runs, compute, self._merge,
            tag=0x5400004, poll_unit=10)
        ledger.assert_exact_cover(0, 40)
        assert acc == 40 and pieces == [10, 10, 10, 10]

    def test_protocol_with_poll_unit(self):
        results = run_spmd(_steal_job_poll, 4)
        acc, stats = results[0]
        assert acc == 400
        assert stats["blocks_total"] == 8
        assert stats["deaths_handled"] == 0


# -- delay injection --------------------------------------------------------


class TestInjectedDelay:
    def test_unset_is_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL_TEST_DELAY", raising=False)
        assert injected_delay(0) == 0.0

    def test_rank_and_wildcard(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "1:0.25,*:0.5")
        assert injected_delay(1) == 0.25
        assert injected_delay(0) == 0.5
        assert injected_delay(7) == 0.5

    def test_malformed_entries_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "bogus,1:xyz,2:0.125")
        assert injected_delay(1) == 0.0
        assert injected_delay(2) == 0.125


# -- elastic BLAS arithmetic ------------------------------------------------


class TestElasticCap:
    def test_cap_math(self):
        assert elastic_blas_cap(1, cores=8) == 8
        assert elastic_blas_cap(2, cores=8) == 4
        assert elastic_blas_cap(3, cores=8) == 2
        assert elastic_blas_cap(16, cores=8) == 1
        assert elastic_blas_cap(0, cores=8) == 8  # degenerate: all idle

    def test_default_cores_positive(self):
        assert elastic_blas_cap(1) >= 1


# -- bit-identity -----------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("backend,ranks", [
        ("threads", 3), ("processes", 3), ("shm", 4)])
    def test_steal_matches_static(self, dataset, backend, ranks):
        X, y = dataset
        static = pmaxT(X, y, B=600, backend=backend, ranks=ranks,
                       schedule="static")
        steal = pmaxT(X, y, B=600, backend=backend, ranks=ranks,
                      schedule="steal", steal_block=50)
        _same(steal, static)

    def test_steal_matches_serial(self, dataset):
        X, y = dataset
        serial = pmaxT(X, y, B=600)
        steal = pmaxT(X, y, B=600, backend="threads", ranks=4,
                      schedule="steal", steal_block=37)
        _same(steal, serial)

    @pytest.mark.parametrize("straggler", [0, 1])
    def test_skewed_world_still_identical(self, dataset, monkeypatch,
                                          straggler):
        """One rank 40x slower: the others steal its share, same bits."""
        X, y = dataset
        serial = pmaxT(X, y, B=400)
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", f"{straggler}:0.002")
        steal = pmaxT(X, y, B=400, backend="threads", ranks=3,
                      schedule="steal", steal_block=50)
        _same(steal, serial)

    def test_odd_block_sizes(self, dataset):
        X, y = dataset
        serial = pmaxT(X, y, B=500)
        for block in (1_000_000, 499, 101, 1):
            steal = pmaxT(X, y, B=500, backend="threads", ranks=3,
                          schedule="steal", steal_block=block)
            _same(steal, serial)

    def test_float32_identical(self, dataset):
        X, y = dataset
        static = pmaxT(X, y, B=400, backend="threads", ranks=3,
                       schedule="static", dtype="float32")
        steal = pmaxT(X, y, B=400, backend="threads", ranks=3,
                      schedule="steal", steal_block=64, dtype="float32")
        _same(steal, static)

    def test_session_steal_identical_and_counted(self, dataset, monkeypatch):
        X, y = dataset
        serial = pmaxT(X, y, B=500)
        # Throttle the master so the workers demonstrably steal pool blocks.
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "0:0.002")
        with open_session("shm", 3) as ses:
            steal = pmaxT(X, y, B=500, session=ses, schedule="steal",
                          steal_block=50)
            stats = ses.stats()
        _same(steal, serial)
        assert stats["steal_jobs"] == 1
        assert stats["blocks_stolen"] > 0
        assert stats["rank_respawns"] == 0


# -- schedule resolution ----------------------------------------------------


class TestScheduleResolution:
    def test_bad_schedule_rejected(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="schedule"):
            pmaxT(X, y, B=100, backend="threads", ranks=2,
                  schedule="dynamic")

    def test_bad_steal_block_rejected(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="steal_block"):
            pmaxT(X, y, B=100, backend="threads", ranks=2, steal_block=0)

    def test_explicit_steal_needs_ranks(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="one-rank"):
            pmaxT(X, y, B=100, schedule="steal")

    def test_explicit_steal_rejects_stored_mode(self, dataset):
        X, y = dataset
        with pytest.raises(OptionError, match="stored"):
            pmaxT(X, y, B=100, backend="threads", ranks=2,
                  fixed_seed_sampling="n", schedule="steal")

    def test_explicit_steal_rejects_checkpointing(self, dataset, tmp_path):
        X, y = dataset
        with pytest.raises(OptionError, match="checkpoint"):
            pmaxT(X, y, B=100, backend="threads", ranks=2,
                  schedule="steal", checkpoint_dir=str(tmp_path))

    def test_auto_falls_back_to_static(self, dataset, tmp_path):
        """auto silently uses the static plan where stealing can't run."""
        X, y = dataset
        # Stored mode samples per rank-chunk, so compare auto against an
        # explicit static run of the same world — not against serial.
        stored_auto = pmaxT(X, y, B=200, backend="threads", ranks=2,
                            fixed_seed_sampling="n")
        stored_static = pmaxT(X, y, B=200, backend="threads", ranks=2,
                              fixed_seed_sampling="n", schedule="static")
        _same(stored_auto, stored_static)
        ckpt = pmaxT(X, y, B=200, backend="threads", ranks=2,
                     checkpoint_dir=str(tmp_path))
        _same(ckpt, pmaxT(X, y, B=200))

    def test_auto_engages_on_session(self, dataset):
        X, y = dataset
        with open_session("shm", 3) as ses:
            pmaxT(X, y, B=400, session=ses)  # schedule defaults to auto
            stats = ses.stats()
        assert stats["steal_jobs"] == 1

    def test_default_block_size(self):
        assert DEFAULT_STEAL_BLOCK == 256


# -- fault granularity: kill one rank mid-steal -----------------------------


def _survivor_state(comm):
    cache = resident_cache()
    ws = None if cache is None else cache.get("kernel_workspace")
    return (comm.rank, os.getpid(), None if ws is None else id(ws))


class TestSingleRankRespawn:
    def test_kill_mid_job_keeps_survivors_warm(self, dataset, monkeypatch):
        X, y = dataset
        serial = pmaxT(X, y, B=2000)
        with open_session("shm", 4) as ses:
            handle = ses.publish(X, labels=y)
            # Warm the pool (and the resident workspaces) undelayed.
            warm = pmaxT(handle, B=400, session=ses, steal_block=100)
            _same(warm, pmaxT(X, y, B=400))
            pids_before = ses.worker_pids()
            state_before = {r: (pid, ws) for r, pid, ws
                            in ses.run(_survivor_state)[1:]}

            # Throttle the job so it comfortably outlives the kill.  The
            # env var only reaches rank 0 (the workers forked before it
            # was set), and sub-block grant polling lets the fast
            # workers drain the pool through the master's sleeps — so
            # the kill must land well before the master's own delayed
            # blocks run out.
            monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "*:0.006")
            out: dict = {}

            def run_job():
                try:
                    out["res"] = pmaxT(handle, B=2000, session=ses,
                                       steal_block=100)
                except Exception as exc:  # pragma: no cover - surfaced below
                    out["err"] = exc

            worker = threading.Thread(target=run_job)
            worker.start()
            time.sleep(0.5)
            victim = pids_before[1]  # rank 2
            os.kill(victim, signal.SIGKILL)
            worker.join()
            monkeypatch.delenv("REPRO_STEAL_TEST_DELAY")
            assert "res" in out, f"kill job failed: {out.get('err')!r}"
            # The casualty cost the job nothing: same bits.
            _same(out["res"], serial)

            # The next dispatch respawns exactly the dead rank; the
            # published segment still serves (handle-addressed job runs).
            again = pmaxT(handle, B=2000, session=ses, steal_block=100)
            _same(again, serial)
            pids_after = ses.worker_pids()
            state_after = {r: (pid, ws) for r, pid, ws
                           in ses.run(_survivor_state)[1:]}
            stats = ses.stats()

        assert pids_after[0] == pids_before[0]
        assert pids_after[2] == pids_before[2]
        assert pids_after[1] != victim
        # Survivors kept their processes AND their resident workspaces.
        for rank in (1, 3):
            assert state_after[rank] == state_before[rank]
        assert state_after[2][0] != state_before[2][0]
        assert stats["spawns"] == 1, "full pool respawn defeats the point"
        assert stats["rank_respawns"] == 1

    @pytest.mark.parametrize("checkpointed", [False, True],
                             ids=["static", "checkpointed"])
    def test_kill_mid_static_job_recovers(self, dataset, monkeypatch,
                                          tmp_path, checkpointed):
        """Static plans run on the same executor, so they recover too."""
        X, y = dataset
        serial = pmaxT(X, y, B=900)
        # Set before the pool forks, so every rank is throttled: each
        # 300-permutation chunk then takes ~1.5 s.
        monkeypatch.setenv("REPRO_STEAL_TEST_DELAY", "*:0.005")
        kwargs = dict(schedule="static")
        if checkpointed:
            kwargs = dict(checkpoint_dir=str(tmp_path),
                          checkpoint_interval=32)
        with open_session("shm", 3) as ses:
            ses.run(_survivor_state)  # spawn the pool
            pids_before = ses.worker_pids()
            out: dict = {}

            def run_job():
                try:
                    out["res"] = pmaxT(X, y, B=900, session=ses, **kwargs)
                except Exception as exc:  # pragma: no cover - surfaced below
                    out["err"] = exc

            worker = threading.Thread(target=run_job)
            worker.start()
            time.sleep(0.5)
            victim = pids_before[1]  # rank 2
            os.kill(victim, signal.SIGKILL)
            worker.join(timeout=120)
            assert not worker.is_alive()
            assert "res" in out, f"kill job failed: {out.get('err')!r}"
            _same(out["res"], serial)

            again = pmaxT(X, y, B=900, session=ses, **kwargs)
            _same(again, serial)
            pids_after = ses.worker_pids()
            stats = ses.stats()

        assert pids_after[0] == pids_before[0]
        assert pids_after[1] != victim
        assert stats["spawns"] == 1, "full pool respawn defeats the point"
        assert stats["rank_respawns"] == 1
        assert stats["steal_jobs"] == 0
        assert not any(tmp_path.glob("rank*.npz"))
