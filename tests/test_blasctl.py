"""BLAS threadpool control and the multi-rank oversubscription cap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import (
    blas_available,
    blas_thread_limit,
    get_blas_threads,
    recommended_blas_threads,
    run_spmd_processes,
    set_blas_threads,
)
from repro.mpi.backends import launch_master
from repro.mpi.blasctl import apply_worker_cap


def _worker_budget(comm):
    return get_blas_threads()


def _worker_env(comm):
    import os

    return os.environ.get("OPENBLAS_NUM_THREADS")


class TestRuntimeControl:
    def test_roundtrip(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        prev = set_blas_threads(1)
        assert prev == before
        assert get_blas_threads() == 1
        set_blas_threads(before)

    def test_context_manager_restores(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        with blas_thread_limit(1):
            assert get_blas_threads() == 1
        assert get_blas_threads() == before

    def test_runtime_control_leaves_environment_alone(self):
        """A temporary cap must not leak *_NUM_THREADS into the caller."""
        import os

        before = os.environ.get("OMP_NUM_THREADS")
        with blas_thread_limit(1):
            pass
        assert os.environ.get("OMP_NUM_THREADS") == before

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    def test_recommended_cap(self):
        from repro.mpi.blasctl import effective_cpu_count

        cores = effective_cpu_count()
        assert recommended_blas_threads(1) == max(1, cores)
        assert recommended_blas_threads(2 * cores) == 1
        assert recommended_blas_threads(cores) >= 1

    def test_negative_blas_threads_rejected_cleanly(self):
        from repro import pmaxT
        from repro.errors import OptionError

        X = __import__("numpy").ones((4, 4))
        with pytest.raises(OptionError, match="blas_threads"):
            pmaxT(X, [0, 0, 1, 1], B=10, blas_threads=-1)
        with pytest.raises(OptionError, match="blas_threads"):
            launch_master("processes", 2, lambda c: None, blas_threads=-2)


class TestWorkerBootstrap:
    def test_process_world_auto_caps(self):
        """ranks x blas_threads must not exceed the host's cores."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        import os

        cores = os.cpu_count() or 1
        budgets = run_spmd_processes(_worker_budget, 2)
        assert all(b is not None and b * 2 <= max(2, cores)
                   for b in budgets)

    def test_process_world_explicit_cap(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        budgets = run_spmd_processes(_worker_budget, 2, blas_threads=1)
        assert budgets == [1, 1]

    def test_zero_disables_capping(self):
        """blas_threads=0 must leave the inherited pool untouched."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        parent = get_blas_threads()
        budgets = run_spmd_processes(_worker_budget, 2, blas_threads=0)
        assert budgets == [parent, parent]

    def test_apply_worker_cap_zero_is_noop(self):
        before = get_blas_threads()
        apply_worker_cap(4, 0)
        assert get_blas_threads() == before

    def test_worker_exports_env_for_late_loaded_runtimes(self):
        """Worker ranks export the cap; rank 0 is the caller and must not."""
        import os

        before = os.environ.get("OPENBLAS_NUM_THREADS")
        envs = run_spmd_processes(_worker_env, 2, blas_threads=1)
        assert envs[1:] == ["1"]
        assert envs[0] == before
        assert os.environ.get("OPENBLAS_NUM_THREADS") == before


class TestElasticCap:
    """apply_elastic_cap widens on a draining tail and narrows back."""

    def _patch(self, monkeypatch, cores=8):
        import repro.mpi.blasctl as blasctl

        applied = []
        monkeypatch.setattr(blasctl, "effective_cpu_count", lambda: cores)
        monkeypatch.setattr(blasctl, "set_blas_threads",
                            lambda n: applied.append(n) or 1)
        return applied

    def test_widens_then_narrows(self, monkeypatch):
        from repro.mpi.blasctl import apply_elastic_cap

        applied = self._patch(monkeypatch, cores=8)
        cap = apply_elastic_cap(8, 1)    # 8 busy ranks: cap 1, no change
        assert cap == 1 and applied == []
        cap = apply_elastic_cap(2, cap)  # tail: widen to 8 // 2
        assert cap == 4 and applied == [4]
        cap = apply_elastic_cap(8, cap)  # requeued blocks: narrow back
        assert cap == 1 and applied == [4, 1]

    def test_floor_bounds_narrowing(self, monkeypatch):
        from repro.mpi.blasctl import apply_elastic_cap

        applied = self._patch(monkeypatch, cores=8)
        cap = apply_elastic_cap(1, 2, floor=2)   # last rank: whole host
        assert cap == 8 and applied == [8]
        cap = apply_elastic_cap(8, cap, floor=2)
        assert cap == 2                           # never below job-start cap
        assert applied == [8, 2]

    def test_failed_set_keeps_current(self, monkeypatch):
        import repro.mpi.blasctl as blasctl

        monkeypatch.setattr(blasctl, "effective_cpu_count", lambda: 8)
        monkeypatch.setattr(blasctl, "set_blas_threads", lambda n: None)
        assert blasctl.apply_elastic_cap(2, 1) == 1


class TestLaunchMaster:
    def test_blas_threads_reaches_every_rank(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        budgets = launch_master("shm", 2,
                                lambda comm: comm.gather(get_blas_threads()),
                                blas_threads=1)
        assert budgets == [1, 1]

    def test_zero_reaches_the_worker_bootstrap(self):
        """launch_master(blas_threads=0) must defeat the automatic cap."""
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        parent = get_blas_threads()
        budgets = launch_master("processes", 2,
                                lambda comm: comm.gather(get_blas_threads()),
                                blas_threads=0)
        assert budgets == [parent, parent]

    def test_in_process_backend_restores_budget(self):
        if not blas_available():
            pytest.skip("no controllable BLAS in this build")
        before = get_blas_threads()
        inside = launch_master("threads", 2,
                               lambda comm: get_blas_threads(),
                               blas_threads=1)
        assert inside == 1
        assert get_blas_threads() == before

    def test_pmaxt_accepts_blas_threads(self):
        from repro import mt_maxT, pmaxT

        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 10))
        labels = np.array([0] * 5 + [1] * 5)
        ref = mt_maxT(X, labels, B=80)
        got = pmaxT(X, labels, B=80, backend="processes", ranks=2,
                    blas_threads=1)
        np.testing.assert_array_equal(ref.adjp, got.adjp)

    def test_pcor_accepts_blas_threads(self):
        from repro.corr import cor, pcor

        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 8))
        np.testing.assert_array_equal(
            cor(X), pcor(X, backend="threads", ranks=2, blas_threads=1))
