"""Measured benchmark: the compute-engine hot path, engine vs reference.

Two measurements, written to ``BENCH_accel.json``:

1. **Keystream generation** (numpy rows only) — ``take_batch`` on the
   random generators, which fill through their host numpy pipeline
   (``NumpyEngine.fill_encodings``: batched Philox raw keys plus one
   value-packed sort per chunk), against the
   :mod:`repro.permute.keystream` reference functions called directly,
   per keystream family.  The stream is asserted bit-identical before
   either timing means anything.
2. **End-to-end ``run_kernel``** — the kernel on the real generator,
   scored by each available engine, against the kernel on a
   benchmark-local generator that fills through the keystream reference
   functions and scores with the numpy engine.  The numpy engine
   performs the reference arithmetic, so its counts are asserted
   int64-exact; other engines are tie-tolerance-equal on counts (only
   the numpy rows gate CI).  Engines only score, so the torch rows time
   scoring alone: both sides generate with the same numpy pipeline.

The ``speedup`` leaves feed ``check_bench_regression.py``: both ratios are
pipeline-vs-reference on the *same host and scale*, so they are
host-independent claims — the committed record defends "the numpy
pipeline does not collapse", not an absolute throughput.  Engines missing
on the host (torch) simply do not appear in the JSON; the gate skips keys
present on one side only, so a torch CI leg can write richer smoke records
against the same committed file.

Run standalone (writes the JSON next to the repository root)::

    PYTHONPATH=src python benchmarks/bench_accel.py
    PYTHONPATH=src python benchmarks/bench_accel.py \
        --genes 1000 --samples 60 --b-perm 4000 --b-kernel 400 --repeats 1

or through pytest (small workload, asserts parity and the win)::

    PYTHONPATH=src python -m pytest benchmarks/bench_accel.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.accel import resolve_engine
from repro.core.kernel import run_kernel
from repro.errors import EngineUnavailableError
from repro.permute import (
    DEFAULT_SEED,
    RandomBlockShuffle,
    RandomLabelShuffle,
    RandomSigns,
    keystream,
)
from repro.permute.base import PermutationGenerator

DEFAULT_GENES = 5_000
DEFAULT_SAMPLES = 100
DEFAULT_B_PERM = 10_000
DEFAULT_B_KERNEL = 2_000
DEFAULT_REPEATS = 3
RESULT_FILE = "BENCH_accel.json"


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def available_engines() -> list[str]:
    """Engine names importable on this host, reference engine first."""
    names = ["numpy"]
    for name in ("torch",):
        try:
            resolve_engine(name)
        except EngineUnavailableError:
            continue
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# 1. Keystream generation
# ---------------------------------------------------------------------------

def _families(n_samples: int, nperm: int) -> dict:
    """``name -> (generator factory, reference fill(start, count))``."""
    from repro.data import block_labels, two_class_labels

    labels = two_class_labels(n_samples // 2, n_samples - n_samples // 2)
    blocks = block_labels(max(2, n_samples // 4), 4)
    npairs = n_samples // 2
    layout = blocks.reshape(-1, 4)
    return {
        "label_shuffle": (
            lambda: RandomLabelShuffle(labels, nperm),
            lambda s, c: keystream.label_permutations(DEFAULT_SEED, s, c,
                                                      labels)),
        "signs": (
            lambda: RandomSigns(npairs, nperm),
            lambda s, c: keystream.sign_vectors(DEFAULT_SEED, s, c, npairs)),
        "block_shuffle": (
            lambda: RandomBlockShuffle(blocks, 4, nperm),
            lambda s, c: keystream.block_permutations(DEFAULT_SEED, s, c,
                                                      layout)),
    }


def measure_permgen(n_samples, b_perm, repeats) -> dict:
    out = {}
    for name, (make, reference) in _families(n_samples, b_perm + 1).items():
        # Bit-identity guard: the pipeline's stream must equal the
        # reference stream before its time is meaningful.
        head = min(b_perm, 64)
        gen = make()
        gen.skip(1)
        assert np.array_equal(gen.take_batch(head), reference(1, head)), name

        # Reuse the generator and the output buffer across repeats,
        # exactly as run_kernel does (resident generator, workspace.enc).
        buf = np.empty((b_perm, gen.width), dtype=np.int64)

        def plain_batch():
            # Rows land in the caller's buffer on both sides.
            buf[:] = reference(1, b_perm)
            return buf

        def engine_batch():
            gen.reset()
            gen.skip(1)
            return gen.take_batch(b_perm, out=buf)

        plain_s = _best(plain_batch, repeats)
        engine_s = _best(engine_batch, repeats)
        out[name] = {
            "plain_s": plain_s,
            "engine_s": engine_s,
            "speedup": plain_s / engine_s,
            "perms_per_s": b_perm / engine_s,
        }
    return out


# ---------------------------------------------------------------------------
# 2. The kernel
# ---------------------------------------------------------------------------

class _ReferenceLabelShuffle(PermutationGenerator):
    """Fixed-seed label shuffles filled by the keystream reference function.

    The same stream as :class:`~repro.permute.RandomLabelShuffle`, produced
    by ``keystream.label_permutations`` instead of the numpy pipeline.
    """

    def __init__(self, labels, nperm: int, seed: int = DEFAULT_SEED):
        super().__init__(nperm, labels.size)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.seed = seed

    def _encode(self, index: int) -> np.ndarray:
        if index == 0:
            return self.labels.copy()
        return keystream.label_permutations(self.seed, index, 1,
                                            self.labels)[0]

    def _fill_batch(self, out: np.ndarray, count: int) -> np.ndarray:
        pos = self._position
        lo = 1 if pos == 0 else 0
        if lo:
            out[0] = self.labels
        out[lo:count] = keystream.label_permutations(
            self.seed, pos + lo, count - lo, self.labels)
        return out


def _kernel_problem(n_genes, n_samples, b_kernel, seed=1):
    from repro.core.kernel import compute_observed
    from repro.core.options import (
        build_generator,
        build_statistic,
        validate_options,
    )
    from repro.data import two_class_labels

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_genes, n_samples))
    labels = two_class_labels(n_samples // 2, n_samples - n_samples // 2)
    options = validate_options(labels, test="t", B=b_kernel)
    stat = build_statistic(options, X, labels)
    generator = build_generator(options, labels)
    reference = _ReferenceLabelShuffle(labels, options.nperm,
                                       seed=options.seed)
    observed = compute_observed(stat, "abs")
    return stat, generator, reference, observed


def measure_kernel(ops, n_genes, n_samples, b_kernel, repeats,
                   exact: bool) -> dict:
    stat, generator, ref_gen, observed = _kernel_problem(
        n_genes, n_samples, b_kernel)

    reference = run_kernel(stat, ref_gen, observed, "abs", 0, b_kernel)
    routed = run_kernel(stat, generator, observed, "abs", 0, b_kernel,
                        engine=ops)
    if exact:  # the numpy engine is the reference arithmetic
        assert np.array_equal(reference.raw, routed.raw)
        assert np.array_equal(reference.adjusted, routed.adjusted)
    assert reference.nperm == routed.nperm

    plain_s = _best(
        lambda: run_kernel(stat, ref_gen, observed, "abs", 0, b_kernel),
        repeats)
    engine_s = _best(
        lambda: run_kernel(stat, generator, observed, "abs", 0, b_kernel,
                           engine=ops),
        repeats)
    return {
        "plain_s": plain_s,
        "engine_s": engine_s,
        "speedup": plain_s / engine_s,
        "us_per_perm": engine_s / b_kernel * 1e6,
    }


def measure(n_genes=DEFAULT_GENES, n_samples=DEFAULT_SAMPLES,
            b_perm=DEFAULT_B_PERM, b_kernel=DEFAULT_B_KERNEL,
            repeats=DEFAULT_REPEATS) -> dict:
    engines = {}
    for name in available_engines():
        ops = resolve_engine(name)
        engines[name] = {
            "kernel": measure_kernel(ops, n_genes, n_samples, b_kernel,
                                     repeats, exact=(name == "numpy")),
        }
    # Generation does not depend on the scoring engine: one set of rows.
    engines["numpy"]["permgen"] = measure_permgen(n_samples, b_perm, repeats)
    ref = engines["numpy"]
    return {
        "benchmark": "accel_engines",
        "matrix": [n_genes, n_samples],
        "b_perm": b_perm,
        "b_kernel": b_kernel,
        "repeats": repeats,
        "engines": engines,
        "engine_permgen_speedup": ref["permgen"]["label_shuffle"]["speedup"],
        "engine_kernel_speedup": ref["kernel"]["speedup"],
    }


def test_numpy_engine_parity_and_win():
    """Smoke acceptance at reduced scale: exact parity, generation wins."""
    result = measure(n_genes=800, n_samples=64, b_perm=4_000, b_kernel=400,
                     repeats=2)
    ref = result["engines"]["numpy"]
    # The value-packed pipeline must beat the reference argsort functions.
    assert result["engine_permgen_speedup"] > 1.2, ref["permgen"]
    # The routed kernel must not collapse (the GEMMs already dominate).
    assert result["engine_kernel_speedup"] > 0.7, ref["kernel"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the numpy generation pipeline and the engine-"
        "scored kernel against their keystream references.")
    parser.add_argument("--genes", type=int, default=DEFAULT_GENES)
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--b-perm", type=int, default=DEFAULT_B_PERM)
    parser.add_argument("--b-kernel", type=int, default=DEFAULT_B_KERNEL)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {RESULT_FILE} "
                        "in the repository root)")
    args = parser.parse_args(argv)

    result = measure(args.genes, args.samples, args.b_perm, args.b_kernel,
                     args.repeats)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / RESULT_FILE
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")

    print(f"matrix {args.genes}x{args.samples}, B_perm={args.b_perm}, "
          f"B_kernel={args.b_kernel}, best of {args.repeats}")
    for name, rows in result["engines"].items():
        for family, row in rows.get("permgen", {}).items():
            print(f"  {name:6s} permgen {family:14s}"
                  f" plain {row['plain_s'] * 1e3:8.1f} ms"
                  f"   engine {row['engine_s'] * 1e3:8.1f} ms"
                  f"   speedup {row['speedup']:5.2f}x"
                  f"   ({row['perms_per_s'] / 1e3:.0f}k perms/s)")
        k = rows["kernel"]
        print(f"  {name:6s} kernel {'t':15s}"
              f" plain {k['plain_s'] * 1e3:8.1f} ms"
              f"   engine {k['engine_s'] * 1e3:8.1f} ms"
              f"   speedup {k['speedup']:5.2f}x"
              f"   ({k['us_per_perm']:.0f} us/perm)")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
