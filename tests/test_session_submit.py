"""Async session submission: JobFuture, ordering, cancellation, timeouts.

The contracts pinned here:

* ``submit`` resolves to exactly what ``run`` returns (they share one
  dispatch pipeline), on in-process and worker-pool sessions alike;
* jobs run strictly one at a time, lowest priority value first, ties in
  submission order;
* a queued job can be cancelled, a running one cannot (SPMD collectives
  span every rank);
* failures travel through the future — they do not poison the session;
* closing a session cancels its queued jobs and joins the dispatcher.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro import pmaxT
from repro.errors import CommunicatorError, OptionError
from repro.mpi import JobFuture, open_session
from repro.serve import PoolManager


def _rank_id(comm):
    return (comm.rank, comm.size)


def _boom(comm):
    raise ValueError("intentional job failure")


@pytest.fixture
def dataset():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 12))
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int64)
    return X, labels


class TestSubmitBasics:
    def test_submit_matches_run(self):
        with open_session("threads", 3) as ses:
            future = ses.submit(_rank_id)
            assert isinstance(future, JobFuture)
            assert future.result(timeout=30) == [(0, 3), (1, 3), (2, 3)]
            assert future.done() and not future.cancelled()
            assert future.state == "done"
            assert ses.run(_rank_id) == [(0, 3), (1, 3), (2, 3)]

    def test_submit_on_worker_pool(self):
        with open_session("processes", 2) as ses:
            f1 = ses.submit(_rank_id, worker_fn=_rank_id)
            f2 = ses.submit(_rank_id, worker_fn=_rank_id)
            assert f1.result(timeout=60) == [(0, 2), (1, 2)]
            assert f2.result(timeout=60) == [(0, 2), (1, 2)]
            assert ses.spawns == 1  # one pool served both
            assert ses.jobs_run == 2

    def test_failure_travels_through_future(self):
        with open_session("serial", 1) as ses:
            future = ses.submit(_boom)
            with pytest.raises(ValueError, match="intentional"):
                future.result(timeout=30)
            assert future.exception(timeout=30) is not None
            assert future.state == "failed"
            # the session still works afterwards
            assert ses.run(_rank_id) == [(0, 1)]

    def test_submit_after_close_raises(self):
        ses = open_session("serial", 1)
        ses.close()
        with pytest.raises(CommunicatorError, match="closed"):
            ses.submit(_rank_id)

    def test_result_wait_timeout(self):
        release = threading.Event()
        with open_session("serial", 1) as ses:
            ses.submit(lambda comm: release.wait(30))
            tail = ses.submit(_rank_id)
            with pytest.raises(CommunicatorError, match="timed out"):
                tail.result(timeout=0.05)
            release.set()
            assert tail.result(timeout=30) == [(0, 1)]

    def test_pmaxt_timeout_plumbs_through(self, dataset):
        X, y = dataset
        with open_session("threads", 2) as ses:
            out = pmaxT(X, y, B=100, session=ses, timeout=120)
        ref = pmaxT(X, y, B=100)
        assert np.array_equal(out.adjp, ref.adjp)

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan")])
    def test_bad_timeout_is_option_error(self, dataset, timeout):
        """Session calls, one-shot calls and the pool manager all reject
        a non-positive or NaN job timeout up front, as an option error."""
        X, y = dataset
        with open_session("threads", 2) as ses:
            with pytest.raises(OptionError, match="timeout"):
                ses.submit(_rank_id, timeout=timeout)
            with pytest.raises(OptionError, match="timeout"):
                pmaxT(X, y, B=50, session=ses, timeout=timeout)
            assert ses.run(_rank_id) == [(0, 2), (1, 2)]
        with pytest.raises(OptionError, match="timeout"):
            pmaxT(X, y, B=50, backend="threads", ranks=2, timeout=timeout)
        with PoolManager("threads", 2, pools=1) as manager:
            job = manager.submit_pmaxt(X, y, B=50, timeout=timeout)
            with pytest.raises(OptionError, match="timeout"):
                job.result(timeout=60)


class TestOrderingAndCancellation:
    def test_priority_order(self):
        # Block the dispatcher, queue three jobs with distinct
        # priorities, release: execution must follow priority order.
        release = threading.Event()
        ran = []
        with open_session("serial", 1) as ses:
            blocker = ses.submit(lambda comm: release.wait(30))
            futures = [
                ses.submit(lambda comm, i=i: ran.append(i), priority=p)
                for i, p in enumerate([5, -5, 0])
            ]
            release.set()
            for f in futures:
                f.result(timeout=30)
            blocker.result(timeout=30)
        assert ran == [1, 2, 0]

    def test_ties_run_in_submission_order(self):
        release = threading.Event()
        ran = []
        with open_session("serial", 1) as ses:
            ses.submit(lambda comm: release.wait(30))
            futures = [
                ses.submit(lambda comm, i=i: ran.append(i))
                for i in range(4)
            ]
            release.set()
            for f in futures:
                f.result(timeout=30)
        assert ran == [0, 1, 2, 3]

    def test_cancel_queued_job(self):
        release = threading.Event()
        with open_session("serial", 1) as ses:
            blocker = ses.submit(lambda comm: release.wait(30))
            queued = ses.submit(_rank_id)
            assert queued.cancel() is True
            assert queued.cancelled()
            with pytest.raises(CommunicatorError, match="cancelled"):
                queued.result(timeout=5)
            release.set()
            blocker.result(timeout=30)

    def test_cannot_cancel_running_job(self):
        started = threading.Event()
        release = threading.Event()

        def job(comm):
            started.set()
            release.wait(30)
            return "ran"

        with open_session("serial", 1) as ses:
            future = ses.submit(job)
            assert started.wait(30)
            assert future.cancel() is False
            release.set()
            assert future.result(timeout=30) == ["ran"]

    def test_close_cancels_queued_jobs(self):
        release = threading.Event()
        ses = open_session("serial", 1)
        blocker = ses.submit(lambda comm: release.wait(30))
        queued = ses.submit(_rank_id)
        release.set()
        blocker.result(timeout=30)
        ses.close()
        # the queued job is terminal either way (ran just before the
        # close, or cancelled by it) — close never leaves it hanging
        assert queued.done()
        assert ses.closed


class TestDispatcherLifecycle:
    def test_gc_collects_session_with_dispatcher(self):
        # The dispatcher holds only a weak reference between jobs: an
        # abandoned session must still be garbage-collectable, and its
        # dispatcher thread must exit.
        ses = open_session("serial", 1)
        ses.run(_rank_id)
        thread = ses._dispatcher
        assert thread is not None and thread.is_alive()
        del ses
        gc.collect()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_dispatcher_joined_on_close(self):
        ses = open_session("threads", 2)
        ses.run(_rank_id)
        thread = ses._dispatcher
        ses.close()
        assert thread is not None and not thread.is_alive()

    def test_pool_session_gc_still_reaps_workers(self):
        # PR-3 guarantee preserved under the async layer: deleting an
        # unclosed pool session kills its resident workers.
        import os

        ses = open_session("processes", 2)
        ses.run(_rank_id, worker_fn=_rank_id)
        pids = ses.worker_pids()
        assert pids
        del ses
        gc.collect()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)


def _alive(pid: int) -> bool:
    try:
        import os

        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign pid
        return True
    return True
