"""One block executor for every pmaxT schedule.

Every run — static, steal, ranged, stored-permutation and checkpointed —
is a block plan executed by the steal protocol's master/worker loops:

* the static plan is the Figure-2 partition, one block per rank and an
  empty steal pool;
* counts reach the master on the protocol's messages, so no collective
  count reduction runs;
* a one-rank world never needs any-source receive;
* a checkpoint is the master's block ledger, so a run resumes from any
  set of done blocks and computes only the others;
* the master counts itself as busy while computing, so elastic BLAS caps
  never widen it while a worker still computes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pmaxt as pmaxt_mod
from repro import mt_maxT, pmaxT
from repro.core.checkpoint import (
    CheckpointStore,
    checkpoint_key,
    dataset_fingerprint,
    result_cache_key,
)
from repro.core.kernel import KernelCounts, compute_observed, run_kernel
from repro.core.options import build_generator, build_statistic, validate_options
from repro.core.partition import (
    Block,
    block_plan,
    carve_blocks,
    partition_permutations,
    plan_initial_runs,
)
from repro.errors import CommunicatorError
from repro.mpi import SerialComm, open_session
from repro.mpi.blasctl import blas_available, get_blas_threads, recommended_blas_threads
from repro.mpi.threads import ThreadComm

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def dataset():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 14))
    labels = np.array([0] * 7 + [1] * 7, dtype=np.int64)
    return X, labels


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert a.nperm == b.nperm


class TestBlockPlan:
    def test_static_plan_is_figure_2(self):
        blocks, runs = block_plan(0, 23, 3)
        plan = partition_permutations(23, 3)
        assert [(b.bid, b.start, b.count) for b in blocks] == [
            (c.rank, c.start, c.count) for c in plan.chunks]
        assert runs == (range(0, 1), range(1, 2), range(2, 3))

    def test_static_plan_offsets_a_range(self):
        blocks, _ = block_plan(100, 160, 2)
        assert blocks == (Block(0, 100, 30), Block(1, 130, 30))

    def test_static_plan_with_fewer_permutations_than_ranks(self):
        blocks, runs = block_plan(0, 2, 4)
        assert blocks == (Block(0, 0, 1), Block(1, 1, 1))
        assert [list(r) for r in runs] == [[0], [1], [], []]

    def test_steal_plan_matches_carving(self):
        blocks, runs = block_plan(10, 1010, 3, block_size=100)
        assert blocks == carve_blocks(10, 1010, 100)
        assert runs == plan_initial_runs(len(blocks), 3)


class TestOneExecutionPath:
    def test_no_count_reduction(self, dataset, monkeypatch):
        X, y = dataset

        def forbidden(*args, **kwargs):
            raise AssertionError("pmaxT ran a collective count reduction")

        monkeypatch.setattr(ThreadComm, "reduce", forbidden)
        monkeypatch.setattr(ThreadComm, "reduce_array", forbidden)
        serial = mt_maxT(X, y, B=300)
        for schedule in ("static", "steal"):
            _same(pmaxT(X, y, B=300, backend="threads", ranks=3,
                        schedule=schedule, steal_block=40), serial)

    def test_one_rank_world_needs_no_any_source_receive(self, dataset):
        X, y = dataset
        comm = SerialComm()
        with pytest.raises(CommunicatorError):
            comm.poll_any(0)
        _same(pmaxT(X, y, B=200, comm=comm), mt_maxT(X, y, B=200))

    def test_static_plan_master_computes_one_call_per_block(self, dataset,
                                                            monkeypatch):
        """No poll_unit sub-units under the static plan."""
        X, y = dataset
        calls = []
        real = pmaxt_mod.run_kernel

        def spy(*args, **kwargs):
            calls.append((kwargs["start"], kwargs["count"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_mod, "run_kernel", spy)
        pmaxT(X, y, B=300, chunk_size=16, schedule="static")
        assert calls == [(0, 300)]


class TestStaticCheckpoint:
    def test_interrupted_rank_chunk_resumes(self, dataset, tmp_path,
                                            monkeypatch):
        """Blocks in a ledger left by an interrupted run are not redone."""
        X, y = dataset
        B, ranks, interval = 300, 3, 40
        options = validate_options(y, B=B)
        stat = build_statistic(options, X, y)
        observed = compute_observed(stat, options.side)
        blocks = carve_blocks(0, B, interval)
        done = (1, 3)  # out of order: any set of done blocks resumes
        counts = KernelCounts.zeros(observed.m)
        for bid in done:
            counts += run_kernel(stat, build_generator(options, y), observed,
                                 options.side, start=blocks[bid].start,
                                 count=blocks[bid].count)
        key = checkpoint_key(result_cache_key(dataset_fingerprint(X, y),
                                              options),
                             options.nperm, (0, B), interval)
        CheckpointStore(tmp_path, key).save(done, counts)

        starts = []
        real = pmaxt_mod.run_kernel

        def spy(*args, **kwargs):
            starts.append(kwargs["start"])
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_mod, "run_kernel", spy)
        res = pmaxT(X, y, B=B, backend="threads", ranks=ranks,
                    checkpoint_dir=str(tmp_path),
                    checkpoint_interval=interval)
        _same(res, mt_maxT(X, y, B=B))
        assert starts
        assert not any(blocks[bid].start <= s < blocks[bid].stop
                       for s in starts for bid in done)
        assert not any(tmp_path.glob("ckpt-*.npz"))


@pytest.mark.skipif(not blas_available(), reason="no BLAS runtime control")
class TestMasterBlasCap:
    @pytest.mark.parametrize("schedule", ["static", "steal"])
    def test_master_stays_capped_while_a_worker_computes(self, schedule,
                                                        monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 40))
        y = np.array([0] * 20 + [1] * 20, dtype=np.int64)
        seen = []
        real = pmaxt_mod.run_kernel

        def spy(*args, **kwargs):
            seen.append(get_blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(pmaxt_mod, "run_kernel", spy)
        with open_session("shm", 2) as ses:
            pmaxT(X, y, B=500, session=ses, schedule=schedule)
        assert seen
        assert max(seen) <= recommended_blas_threads(2), seen
