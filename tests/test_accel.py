"""Compute-engine tests: registry, bit-identity, exact counts, plumbing.

The contract pinned here (see ``repro.accel``):

* the generators' host numpy pipeline (``NumpyEngine.fill_encodings``)
  is bit-identical to the ``repro.permute.keystream`` reference
  functions, including on the inputs its packed sort cannot take;
* kernel counts are int64-exact across scoring engines for every
  statistic;
* the numpy engine's scoring path is the reference arithmetic itself, so
  whole pmaxT results match the serial driver bit for bit;
* a missing engine module fails fast with
  :class:`~repro.errors.EngineUnavailableError` (on the master, before
  any worker is involved), an unknown name with ``OptionError``.

Engine-parametrised tests run for every engine importable on this host:
numpy always, torch when installed (CPU is enough — counts must be exact
there too).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import pmaxT
from repro.accel import (
    ENGINE_CHOICES,
    ArrayOps,
    NumpyEngine,
    TorchEngine,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.accel import _REGISTRY as _ENGINE_REGISTRY
from repro.cli import build_parser
from repro.core.kernel import (
    DEFAULT_ENGINE_BATCH,
    KernelWorkspace,
    compute_observed,
    run_kernel,
)
from repro.core.maxt import mt_maxT
from repro.core.options import build_generator, build_statistic, validate_options
from repro.corr import cor
from repro.errors import EngineUnavailableError, OptionError
from repro.mpi import open_session
from repro.permute import (
    RandomBlockShuffle,
    RandomLabelShuffle,
    RandomSigns,
    StoredPermutations,
    keystream,
)

#: Every engine this host can actually run, plus visible skips for the
#: optional ones it cannot.
ENGINE_PARAMS = [
    "numpy",
    pytest.param("torch", marks=pytest.mark.skipif(
        not TorchEngine.module_available(), reason="torch not installed")),
]


def _same(a, b):
    assert np.array_equal(a.teststat, b.teststat, equal_nan=True)
    assert np.array_equal(a.rawp, b.rawp, equal_nan=True)
    assert np.array_equal(a.adjp, b.adjp, equal_nan=True)
    assert np.array_equal(a.order, b.order)
    assert a.nperm == b.nperm


# -- registry and resolution ------------------------------------------------


class TestResolveEngine:
    def test_numpy_resolves_to_reference(self):
        ops = resolve_engine("numpy")
        assert isinstance(ops, NumpyEngine)
        assert ops.name == "numpy"
        assert ops.xp is np
        assert not ops.is_device

    def test_auto_prefers_device_engines_else_numpy(self):
        ops = resolve_engine("auto")
        has_device = (_ENGINE_REGISTRY["torch"].module_available()
                      and _ENGINE_REGISTRY["torch"].device_available())
        if has_device:
            assert ops.is_device
        else:
            assert isinstance(ops, NumpyEngine)

    def test_none_means_auto(self):
        assert type(resolve_engine(None)) is type(resolve_engine("auto"))

    def test_instance_passes_through(self):
        ops = NumpyEngine()
        assert resolve_engine(ops) is ops

    def test_unknown_engine_is_option_error(self):
        with pytest.raises(OptionError, match="unknown engine"):
            resolve_engine("fortran")

    def test_missing_module_is_engine_unavailable(self):
        missing = [n for n in ("torch",)
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        name = missing[0]
        with pytest.raises(EngineUnavailableError) as err:
            resolve_engine(name)
        assert err.value.engine == name
        # The message tells the user how to get it and what works now.
        assert f"repro[{name}]" in str(err.value)
        assert "numpy" in str(err.value)

    def test_available_engines_always_lists_numpy(self):
        assert "numpy" in available_engines()

    def test_engine_choices_cover_registry_defaults(self):
        assert set(ENGINE_CHOICES) == {"auto", "numpy", "torch"}

    def test_register_engine_plugs_into_resolution(self):
        class FakeEngine(NumpyEngine):
            name = "fake-accel"

        register_engine(FakeEngine)
        try:
            assert isinstance(resolve_engine("fake-accel"), FakeEngine)
            with pytest.raises(OptionError, match="already registered"):
                register_engine(FakeEngine)
        finally:
            _ENGINE_REGISTRY.pop("fake-accel", None)

    def test_register_rejects_non_engines(self):
        with pytest.raises(OptionError):
            register_engine(dict)  # type: ignore[arg-type]

        class Nameless(ArrayOps):
            pass

        with pytest.raises(OptionError, match="name"):
            register_engine(Nameless)


class TestOptionPlumbing:
    def test_validate_options_rejects_unknown_engine(self, small_two_class):
        _, labels, _ = small_two_class
        with pytest.raises(OptionError, match="unknown engine"):
            validate_options(labels, engine="fortran")

    def test_validate_options_fails_fast_on_missing_module(
            self, small_two_class):
        missing = [n for n in ("torch",)
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        _, labels, _ = small_two_class
        with pytest.raises(EngineUnavailableError):
            validate_options(labels, engine=missing[0])

    def test_engine_never_enters_cache_or_checkpoint_keys(
            self, small_two_class):
        from repro.core.checkpoint import checkpoint_key, result_cache_key

        X, labels, _ = small_two_class
        plain = validate_options(labels, B=200)
        tuned = validate_options(labels, B=200, engine="numpy")
        assert result_cache_key("fp", plain) == result_cache_key("fp", tuned)
        # The checkpoint key is built on the cache key, so it follows.
        assert checkpoint_key(result_cache_key("fp", plain), 200, (0, 200),
                              64) == \
            checkpoint_key(result_cache_key("fp", tuned), 200, (0, 200), 64)

    def test_cli_exposes_engine_flags(self):
        parser = build_parser()
        args = parser.parse_args(["data.csv", "--engine", "numpy"])
        assert args.engine == "numpy"


# -- encoding bit-identity --------------------------------------------------


def _reference_rows(gen, start, count):
    """Encodings ``[start, start + count)`` from the keystream reference."""
    if isinstance(gen, RandomSigns):
        return keystream.sign_vectors(gen.seed, start, count, gen.width)
    if isinstance(gen, RandomBlockShuffle):
        blocks = gen.at(0).reshape(gen.nblocks, gen.k)
        return keystream.block_permutations(gen.seed, start, count, blocks)
    return keystream.label_permutations(gen.seed, start, count, gen.at(0))


class TestEncodingBitIdentity:
    """Generator batches == reference keystream rows, bit for bit."""

    @pytest.mark.parametrize("make", [
        lambda: RandomLabelShuffle(np.array([0] * 9 + [1] * 8), 800, seed=17),
        lambda: RandomSigns(14, 800, seed=17),
        lambda: RandomBlockShuffle(np.tile(np.arange(3), 5), 3, 800, seed=17),
        # Inputs the packed sort cannot take: label values past 16 bits,
        # a single column, and k = 1 blocks (no adjacent pair to check).
        lambda: RandomLabelShuffle(np.array([0, 1, 70_000] * 4), 800, seed=17),
        lambda: RandomLabelShuffle(np.array([3]), 800, seed=17),
        lambda: RandomBlockShuffle(np.zeros(6, dtype=int), 1, 800, seed=17),
        lambda: RandomBlockShuffle(np.tile([0, 1, 1 << 20], 3), 3, 800,
                                   seed=17),
    ], ids=["labels", "signs", "blocks", "wide-labels", "one-column",
            "k1-blocks", "wide-blocks"])
    def test_streams_match_reference(self, make):
        gen = make()
        gen.skip(1)
        # Windows chosen to straddle sort-chunk boundaries and end on an
        # odd remainder.
        start = 1
        for count in (1, 63, 64, 170, 402):
            np.testing.assert_array_equal(gen.take_batch(count).copy(),
                                          _reference_rows(gen, start, count))
            start += count
        for index in (1, 2, 511, 799):
            np.testing.assert_array_equal(
                gen.at(index), _reference_rows(gen, index, 1)[0])


# -- kernel parity ----------------------------------------------------------


_DESIGNS = ("t", "t.equalvar", "wilcoxon", "f", "pairt", "blockf")


def _design(name, request):
    if name in ("t", "t.equalvar", "wilcoxon"):
        X, labels, _ = request.getfixturevalue("small_two_class")
    elif name == "f":
        X, labels = request.getfixturevalue("small_multiclass")
    elif name == "pairt":
        X, labels, _ = request.getfixturevalue("small_paired")
    else:
        X, labels, _ = request.getfixturevalue("small_blocked")
    return X, labels


class TestKernelParity:
    """run_kernel scored by an engine == the default numpy scoring, exactly."""

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("test", _DESIGNS)
    def test_counts_are_int64_exact(self, engine, test, request):
        X, labels = _design(test, request)
        options = validate_options(labels, test=test, B=300, seed=9)
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, options.side)

        gen = build_generator(options, labels)
        count = min(300, gen.nperm)  # paired design enumerates completely
        ref = run_kernel(stat, gen, observed,
                         options.side, start=0, count=count, chunk_size=64)
        got = run_kernel(stat, build_generator(options, labels), observed,
                         options.side, start=0, count=count, chunk_size=64,
                         engine=resolve_engine(engine))
        np.testing.assert_array_equal(ref.raw, got.raw)
        np.testing.assert_array_equal(ref.adjusted, got.adjusted)
        assert ref.nperm == got.nperm

    @pytest.mark.parametrize("test", _DESIGNS)
    def test_numpy_engine_scores_bit_identical(self, test, request):
        """The numpy engine runs the literal reference arithmetic."""
        from repro.stats.base import WorkBuffers

        X, labels = _design(test, request)
        options = validate_options(labels, test=test, B=100, seed=2)
        stat = build_statistic(options, X, labels)
        gen = build_generator(options, labels)
        enc = gen.take_batch(64).copy()
        ref = stat.batch(enc, work=WorkBuffers())
        got = stat.batch(enc, work=WorkBuffers(resolve_engine("numpy")))
        np.testing.assert_array_equal(ref, got)

    def test_workspace_carries_engine_identity(self, small_two_class):
        X, labels, _ = small_two_class
        options = validate_options(labels, B=100)
        stat = build_statistic(options, X, labels)
        ops = resolve_engine("numpy")
        ws = KernelWorkspace.for_stat(stat, chunk_size=64, engine=ops)
        assert ws.compatible_with(stat, 64, engine=ops)
        # No engine means the numpy reference engine.
        assert ws.compatible_with(stat, 64, engine=None)
        assert not ws.compatible_with(stat, 128, engine=ops)

        class OtherEngine(NumpyEngine):
            name = "other"

        assert not ws.compatible_with(stat, 64, engine=OtherEngine())


# -- whole-pipeline parity --------------------------------------------------


class TestPmaxTEngine:
    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_serial_matches_reference_driver(self, engine, dtype,
                                             small_two_class):
        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=400, seed=5, dtype=dtype)
        out = pmaxT(X, labels, B=400, seed=5, dtype=dtype, engine=engine)
        _same(ref, out)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_engine_batch_split_changes_nothing(self, engine,
                                                small_two_class):
        """A super-batch tail shorter than chunk_size loses no rows.

        B exceeds one super-batch and chunk_size=50 does not divide it,
        so every generator kind is served a short tail chunk; counts must
        equal a run whose chunks tile the super-batches exactly.
        """
        X, labels, _ = small_two_class
        nperm = DEFAULT_ENGINE_BATCH + 700
        assert DEFAULT_ENGINE_BATCH % 50 and DEFAULT_ENGINE_BATCH % 64 == 0
        options = validate_options(labels, B=nperm, seed=5)
        stat = build_statistic(options, X, labels)
        observed = compute_observed(stat, options.side)
        generators = {
            "fixed-seed": lambda: RandomLabelShuffle(labels, nperm, seed=5),
            "stream": lambda: RandomLabelShuffle(labels, nperm, seed=5,
                                                 fixed_seed=False),
            "stored": lambda: StoredPermutations(RandomLabelShuffle(
                labels, nperm, seed=5, fixed_seed=False)),
        }
        for kind, make in generators.items():
            ref = run_kernel(stat, make(), observed, options.side, 0, nperm,
                             chunk_size=64)
            out = run_kernel(stat, make(), observed, options.side, 0, nperm,
                             chunk_size=50, engine=resolve_engine(engine))
            assert out.nperm == ref.nperm == nperm, kind
            np.testing.assert_array_equal(out.raw, ref.raw, err_msg=kind)
            np.testing.assert_array_equal(out.adjusted, ref.adjusted,
                                          err_msg=kind)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_multirank_backend_matches_serial(self, engine, small_two_class):
        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=300, seed=5)
        out = pmaxT(X, labels, B=300, seed=5, engine=engine,
                    backend="threads", ranks=3)
        _same(ref, out)

    def test_session_keeps_engine_resident(self, small_two_class):
        from repro.mpi.session import resident_cache

        X, labels, _ = small_two_class
        ref = mt_maxT(X, labels, B=300, seed=5)
        with open_session("threads", 2) as ses:
            _same(ref, pmaxT(X, labels, B=300, seed=5, engine="numpy",
                             session=ses))
            _same(ref, pmaxT(X, labels, B=300, seed=5, engine="numpy",
                             session=ses))

            def probe(comm):
                cache = resident_cache()
                resident = cache.get("compute_engine")
                return None if resident is None else (
                    resident[0], resident[1].name)

            states = ses.run(probe)
            assert all(s == ("numpy", "numpy") for s in states)

    def test_pmaxt_rejects_unknown_engine(self, small_two_class):
        X, labels, _ = small_two_class
        with pytest.raises(OptionError, match="unknown engine"):
            pmaxT(X, labels, B=50, engine="fortran")

    def test_pmaxt_fails_fast_on_missing_engine(self, small_two_class):
        missing = [n for n in ("torch",)
                   if not _ENGINE_REGISTRY[n].module_available()]
        if not missing:
            pytest.skip("every optional engine module is installed here")
        X, labels, _ = small_two_class
        with pytest.raises(EngineUnavailableError):
            pmaxT(X, labels, B=50, engine=missing[0])


class TestCorEngine:
    @pytest.mark.parametrize("use", ["everything", "complete"])
    def test_numpy_engine_is_bit_identical(self, use, rng):
        X = rng.normal(size=(25, 14))
        X[1, 3] = np.nan
        ref = cor(X, use=use)
        np.testing.assert_array_equal(ref, cor(X, use=use, engine="numpy"))

    @pytest.mark.skipif(not TorchEngine.module_available(),
                        reason="torch not installed")
    def test_torch_engine_matches_reference_closely(self, rng):
        X = rng.normal(size=(25, 14))
        np.testing.assert_allclose(cor(X), cor(X, engine="torch"),
                                   rtol=1e-12, atol=1e-12)

    def test_unknown_engine_rejected(self, rng):
        X = rng.normal(size=(5, 6))
        with pytest.raises(OptionError, match="unknown engine"):
            cor(X, engine="fortran")
