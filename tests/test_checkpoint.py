"""Checkpoint/restart (future-work item 1): the master's block ledger.

A checkpointed ``pmaxT`` runs ``checkpoint_interval``-sized steal blocks
and the master saves its ledger — the done block ids plus their summed
counts — after every completed block.  Crashes are injected by patching
``repro.core.pmaxt.run_kernel``; every resume must equal ``mt_maxT`` bit
for bit and must not recompute a block the ledger records.
"""

from __future__ import annotations

import threading

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
from repro.core.kernel import KernelCounts
from repro.core.options import validate_options
from repro.core.partition import carve_blocks
from repro.data import synthetic_expression, two_class_labels
from repro.errors import DataError, OptionError
from repro.mpi import run_spmd
from repro.permute.storage import StoredPermutations

B, INTERVAL, SEED = 400, 64, 13
BLOCKS = carve_blocks(0, B, INTERVAL)  # six blocks of 64, one of 16


@pytest.fixture()
def problem():
    X, _ = synthetic_expression(25, 12, n_class1=6, seed=91)
    return X, two_class_labels(6, 6)


def _key(X, labels, B=50, perm_range=(0, 50), block_size=10, **opts):
    options = validate_options(labels, B=B, **opts)
    return checkpoint_key(
        result_cache_key(dataset_fingerprint(X, labels), options),
        options.nperm, perm_range, block_size)


def _same(a, b):
    np.testing.assert_array_equal(a.teststat, b.teststat)
    np.testing.assert_array_equal(a.rawp, b.rawp)
    np.testing.assert_array_equal(a.adjp, b.adjp)
    assert a.nperm == b.nperm


def _crash_after(monkeypatch, perms: int) -> None:
    """Make pmaxT's kernel raise once ``perms`` permutations are computed.

    The count is shared by every rank of an in-process world.
    """
    real = pmaxt_mod.run_kernel
    lock = threading.Lock()
    computed = [0]

    def kernel(*args, **kwargs):
        with lock:
            if computed[0] + kwargs["count"] > perms:
                raise RuntimeError("injected failure")
            computed[0] += kwargs["count"]
        return real(*args, **kwargs)

    monkeypatch.setattr(pmaxt_mod, "run_kernel", kernel)


def _spy_block_starts(monkeypatch) -> list[int]:
    """Record the global first permutation index of every kernel call."""
    real = pmaxt_mod.run_kernel
    starts: list[int] = []

    def kernel(*args, **kwargs):
        generator = args[1]
        offset = generator.start if isinstance(generator,
                                               StoredPermutations) else 0
        starts.append(offset + kwargs["start"])
        return real(*args, **kwargs)

    monkeypatch.setattr(pmaxt_mod, "run_kernel", kernel)
    return starts


def _ledger_blocks(directory) -> tuple[int, ...]:
    """The done block ids of the one ledger in ``directory`` (or none)."""
    paths = list(directory.glob("ckpt-*.npz"))
    assert len(paths) <= 1
    if not paths:
        return ()
    with np.load(paths[0]) as data:
        return tuple(int(b) for b in data["done"])


class TestFingerprint:
    """The ledger key: stable, and distinct for every distinct block plan."""

    def test_deterministic(self):
        X, _ = synthetic_expression(10, 8, n_class1=4, seed=1)
        labels = two_class_labels(4, 4)
        assert _key(X, labels) == _key(X, labels)

    def test_sensitive_to_everything(self):
        X, _ = synthetic_expression(10, 8, n_class1=4, seed=1)
        labels = two_class_labels(4, 4)
        base = _key(X, labels)
        X2 = X.copy()
        X2[0, 0] += 1e-9
        assert _key(X2, labels) != base  # data
        assert _key(X, labels, seed=999) != base  # seed
        assert _key(X, labels, side="upper") != base  # side
        assert _key(X, labels, B=60, perm_range=(0, 60)) != base  # nperm
        assert _key(X, labels, perm_range=(10, 50)) != base  # range
        assert _key(X, labels, block_size=20) != base  # block size


class TestGoldenFingerprints:
    """Pin the digests to literal values across library versions.

    These digests address on-disk state (checkpoints, cache entries); a
    change silently strands every existing entry — exactly what happened
    to float32 checkpoints once before.  The inputs are deterministic
    ``arange``-based arrays, independent of any data generator.  If one
    of these asserts fails, the fingerprint function changed: either
    revert the change or ship a cache-format version bump with it.
    """

    X = (np.arange(60, dtype=np.float64).reshape(6, 10) * 0.5 - 7.25)
    y = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1], dtype=np.int64)
    OPTS = dict(test="t", side="abs", fixed_seed_sampling="y", B=512,
                na=-93074815.0, nonpara="n", seed=12345, chunk_size=64,
                complete_limit=0)

    # A checkpointed problem is addressed by its checkpoint_key: the
    # result-cache key (dataset, options, dtype) plus the block plan.
    def test_problem_fingerprint_float64(self):
        fp = dataset_fingerprint(self.X, self.y)
        o = validate_options(self.y, dtype="float64", **self.OPTS)
        assert checkpoint_key(result_cache_key(fp, o), 512, (0, 512),
                              64) == (
            "9e9d39022e9a9ef6648582da39ec99e75b6e28125472cdaf97a5ae1acdc07561")

    def test_problem_fingerprint_float32(self):
        X32 = np.ascontiguousarray(self.X, dtype=np.float32)
        fp = dataset_fingerprint(X32, self.y)
        o = validate_options(self.y, dtype="float32", **self.OPTS)
        assert checkpoint_key(result_cache_key(fp, o), 512, (0, 512),
                              64) == (
            "bf25c13a0b715f4e61eefc1356130464ffd5ce10dc76b8e34f8e0ab03dcb2adb")

    def test_problem_fingerprint_ranged(self):
        fp = dataset_fingerprint(self.X, self.y)
        o = validate_options(self.y, dtype="float64", **self.OPTS)
        assert checkpoint_key(result_cache_key(fp, o), 512, (128, 512),
                              64) == (
            "4338f59d11f2805ae5a4f7abc73cf25337b03037a8d5f0769f72cb9184e2ea05")

    def test_dataset_fingerprint(self):
        assert dataset_fingerprint(self.X, self.y) == (
            "ae20b5ec3a752e216332896612a75cab91cb8e723f2f6b1cd2a6aca4fbd3095f")
        assert dataset_fingerprint(self.X) == (
            "eb6fc040a847ee66003d7bd603456e857ab3538c8fd5ce4e630ad9105c856d18")

    def test_dataset_fingerprint_dtype_canonical(self):
        # The dataset fingerprint is float64-canonical: a float32 view of
        # exactly-representable data shares the digest (dtype is keyed in
        # the result-cache key instead).
        X32 = np.ascontiguousarray(self.X, dtype=np.float32)
        assert dataset_fingerprint(X32, self.y) == \
            dataset_fingerprint(self.X, self.y)

    def test_result_cache_key(self):
        fp = dataset_fingerprint(self.X, self.y)
        o64 = validate_options(self.y, dtype="float64", **self.OPTS)
        o32 = validate_options(self.y, dtype="float32", **self.OPTS)
        assert result_cache_key(fp, o64) == (
            "1cf466f0c619803dc806e1bdd6af149448646006793f79a16dae2958ffe898f9")
        assert result_cache_key(fp, o32) == (
            "6ea3b1eeea59a1685c872d9ae871bf25498677e4a10ba7a3d4bb90e1203b2c25")


def _counts(nperm: int) -> KernelCounts:
    return KernelCounts(raw=np.arange(25), adjusted=np.arange(25) * 2,
                        nperm=nperm)


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, "k")
        store.save((4, 1), _counts(128))
        done, counts = store.load(BLOCKS)
        assert done == (4, 1)
        np.testing.assert_array_equal(counts.raw, np.arange(25))
        np.testing.assert_array_equal(counts.adjusted, np.arange(25) * 2)
        assert counts.nperm == 128
        assert store.saves == 1

    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "k").load(BLOCKS) is None

    @pytest.mark.parametrize("done, nperm, match", [
        ((7,), 64, "outside"),  # a block id past the plan
        ((1, 1), 128, "repeated"),  # a block recorded twice
        ((0, 6), 128, "cover 80"),  # counts over more than the blocks
    ], ids=["past-plan", "duplicate", "count-mismatch"])
    def test_inconsistent_ledger_refused(self, tmp_path, done, nperm, match):
        store = CheckpointStore(tmp_path, "k")
        store.save(done, _counts(nperm))
        with pytest.raises(DataError, match=match):
            store.load(BLOCKS)

    def test_unreadable_ledger_refused(self, tmp_path):
        store = CheckpointStore(tmp_path, "k")
        store.path.write_bytes(b"not an npz file")
        with pytest.raises(DataError, match="unreadable"):
            store.load(BLOCKS)

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path, "k")
        store.save((0,), _counts(64))
        store.clear()
        assert store.load(BLOCKS) is None
        store.clear()  # idempotent

    def test_one_file_per_job(self, tmp_path):
        a = CheckpointStore(tmp_path, "a")
        assert a.path == tmp_path / "ckpt-a.npz"
        assert CheckpointStore(tmp_path, "b").path != a.path


class TestResumableKernel:
    """pmaxT resumes its kernel from the ledger (serial world).

    The subclasses below rerun every test on three thread ranks, with and
    without stored permutations.
    """

    RUN: dict = {}

    def _run(self, problem, directory):
        X, labels = problem
        return pmaxT(X, labels, B=B, seed=SEED, checkpoint_dir=str(directory),
                     checkpoint_interval=INTERVAL, **self.RUN)

    def _reference(self, problem):
        X, labels = problem
        return mt_maxT(X, labels, B=B, seed=SEED, fixed_seed_sampling=self.RUN
                       .get("fixed_seed_sampling", "y"))

    def _crash(self, problem, directory, monkeypatch, perms):
        _crash_after(monkeypatch, perms)
        with pytest.raises(RuntimeError, match="injected failure"):
            self._run(problem, directory)
        monkeypatch.undo()
        return _ledger_blocks(directory)

    def _resume(self, problem, directory, monkeypatch, done):
        starts = _spy_block_starts(monkeypatch)
        resumed = self._run(problem, directory)
        # No block the ledger recorded is computed again.
        assert not any(BLOCKS[b].start <= s < BLOCKS[b].stop
                       for s in starts for b in done)
        assert not any(directory.glob("ckpt-*.npz"))
        return resumed

    def test_uninterrupted_matches_plain(self, tmp_path, problem,
                                         monkeypatch):
        saves = []
        real = CheckpointStore.save

        def spy(store, done, counts):
            saves.append(tuple(done))
            return real(store, done, counts)

        monkeypatch.setattr(CheckpointStore, "save", spy)
        _same(self._run(problem, tmp_path), self._reference(problem))
        # One save per completed block, the last one covering them all.
        assert len(saves) == len(BLOCKS)
        assert sorted(saves[-1]) == list(range(len(BLOCKS)))
        assert not any(tmp_path.glob("ckpt-*.npz"))

    @pytest.mark.parametrize("fail_after", [1, 63, 64, 150, 399])
    def test_crash_and_resume_identical(self, tmp_path, problem,
                                        monkeypatch, fail_after):
        """The headline property: crash anywhere, resume, same answer."""
        done = self._crash(problem, tmp_path, monkeypatch, fail_after)
        # Only whole blocks are recorded.
        assert len(done) <= fail_after // INTERVAL
        if not self.RUN:
            assert done == tuple(range(fail_after // INTERVAL))
        resumed = self._resume(problem, tmp_path, monkeypatch, done)
        _same(resumed, self._reference(problem))

    def test_double_crash_resume(self, tmp_path, problem, monkeypatch):
        first = self._crash(problem, tmp_path, monkeypatch, 100)
        done = self._crash(problem, tmp_path, monkeypatch, 160)
        assert set(first) <= set(done)
        resumed = self._resume(problem, tmp_path, monkeypatch, done)
        _same(resumed, self._reference(problem))

    def test_bad_interval(self, tmp_path, problem):
        X, labels = problem
        with pytest.raises(OptionError, match="checkpoint_interval"):
            pmaxT(X, labels, B=B, checkpoint_dir=str(tmp_path),
                  checkpoint_interval=0, **self.RUN)


# chunk_size=16 makes the master compute each 64-permutation block in
# four units and serve steal requests between them, so ledgers are also
# saved while one of its blocks is half done.
class TestResumableKernelThreads(TestResumableKernel):
    RUN = dict(backend="threads", ranks=3, chunk_size=16)


class TestResumableKernelStored(TestResumableKernel):
    RUN = dict(backend="threads", ranks=3, chunk_size=16,
               fixed_seed_sampling="n")


class TestPmaxTIntegration:
    def test_checkpointed_run_matches_plain(self, tmp_path):
        X, _ = synthetic_expression(30, 12, n_class1=6, seed=92)
        labels = two_class_labels(6, 6)
        plain = mt_maxT(X, labels, B=200, seed=21)
        res = pmaxT(X, labels, B=200, seed=21,
                    checkpoint_dir=str(tmp_path), checkpoint_interval=50)
        np.testing.assert_array_equal(plain.rawp, res.rawp)
        np.testing.assert_array_equal(plain.adjp, res.adjp)
        # successful run clears its checkpoint
        assert not any(tmp_path.glob("*.npz"))

    def test_parallel_checkpointed_matches_serial(self, tmp_path):
        X, _ = synthetic_expression(30, 12, n_class1=6, seed=93)
        labels = two_class_labels(6, 6)
        serial = mt_maxT(X, labels, B=150, seed=22)

        def job(comm):
            return pmaxT(X, labels, B=150, seed=22, comm=comm,
                         checkpoint_dir=str(tmp_path),
                         checkpoint_interval=40)

        parallel = run_spmd(job, 3)[0]
        np.testing.assert_array_equal(serial.rawp, parallel.rawp)
        np.testing.assert_array_equal(serial.adjp, parallel.adjp)

    def test_three_rank_ledger_resumes_on_two(self, tmp_path, problem,
                                              monkeypatch):
        X, labels = problem
        kwargs = dict(B=B, seed=SEED, checkpoint_dir=str(tmp_path),
                      checkpoint_interval=INTERVAL, backend="threads")
        _crash_after(monkeypatch, 260)
        with pytest.raises(RuntimeError, match="injected failure"):
            pmaxT(X, labels, ranks=3, **kwargs)
        monkeypatch.undo()
        done = _ledger_blocks(tmp_path)
        assert done
        starts = _spy_block_starts(monkeypatch)
        _same(pmaxT(X, labels, ranks=2, **kwargs),
              mt_maxT(X, labels, B=B, seed=SEED))
        assert not any(BLOCKS[b].start <= s < BLOCKS[b].stop
                       for s in starts for b in done)

    def test_corrupt_ledger_raises(self, tmp_path, problem, monkeypatch):
        X, labels = problem
        kwargs = dict(B=B, seed=SEED, checkpoint_dir=str(tmp_path),
                      checkpoint_interval=INTERVAL)
        _crash_after(monkeypatch, 200)
        with pytest.raises(RuntimeError, match="injected failure"):
            pmaxT(X, labels, **kwargs)
        monkeypatch.undo()
        (path,) = tmp_path.glob("ckpt-*.npz")
        with np.load(path) as data:
            saved = {name: data[name] for name in data.files}
        saved["nperm"] = saved["nperm"] + 1
        np.savez(path, **saved)
        with pytest.raises(DataError, match="checkpoint"):
            pmaxT(X, labels, **kwargs)
        path.write_bytes(b"\0" * 64)
        with pytest.raises(DataError, match="unreadable"):
            pmaxT(X, labels, **kwargs)
