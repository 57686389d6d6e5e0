"""Compute engines: one registry for *which array module* scores batches.

The pmaxT scoring hot path — the statistics' GEMM-heavy batch kernels —
is written against the :class:`~repro.accel.base.ArrayOps` protocol and
does not care which array library executes it.  This module makes that
choice a first-class, string-keyed option, mirroring the
execution-backend registry of :mod:`repro.mpi.backends`:

====== ======== =====================================================
key    module   notes
====== ======== =====================================================
numpy  numpy    always available; the bit-identical scoring reference
torch  torch    CPU or CUDA; optional (``pip install repro[torch]``)
====== ======== =====================================================

Engines score; they do not generate.  Permutation encodings come from
one host pipeline, :meth:`NumpyEngine.fill_encodings
<repro.accel.numpy_engine.NumpyEngine.fill_encodings>`, which every
fixed-seed random generator owns (a value-packed fused sort ~2x the
plain ``argsort`` construction), whatever engine scores the batch.

Every consumer — ``pmaxT(..., engine="torch")``, ``pcor``, the
``repro-maxt`` CLI, the benchmarks — routes through
:func:`resolve_engine`, so a new array library plugs in everywhere at
once::

    from repro.accel import ArrayOps, register_engine

    class JaxEngine(ArrayOps):
        name = "jax"
        ...

    register_engine(JaxEngine)
    pmaxT(X, labels, engine="jax")

``engine="auto"`` picks the best engine the host can actually drive: a
CUDA-backed torch when present, the numpy reference otherwise — so code
written with ``auto`` transparently speeds up on GPU hosts and keeps
working on laptops.  Requesting a missing module by name raises
:class:`~repro.errors.EngineUnavailableError`.

Determinism: permutation streams do not depend on the engine at all;
counts are int64-exact and statistics agree within the dtype-aware tie
tolerance of :mod:`repro.core.kernel`.
"""

from __future__ import annotations

from ..errors import EngineUnavailableError, OptionError
from .base import ArrayOps
from .numpy_engine import KeystreamSpec, NumpyEngine
from .torch_engine import TorchEngine

__all__ = [
    "ArrayOps",
    "KeystreamSpec",
    "NumpyEngine",
    "TorchEngine",
    "register_engine",
    "resolve_engine",
    "available_engines",
    "ENGINE_CHOICES",
    "DEFAULT_ENGINE",
]

#: The engine used when a consumer passes no ``engine=``.
DEFAULT_ENGINE = "auto"

#: The option values the user-facing interfaces accept.
ENGINE_CHOICES: tuple[str, ...] = ("auto", "numpy", "torch")

#: ``auto`` preference order: device-backed engines first, reference last.
_AUTO_ORDER: tuple[str, ...] = ("torch", "numpy")

_REGISTRY: dict[str, type[ArrayOps]] = {}


def register_engine(engine_cls: type[ArrayOps], *,
                    overwrite: bool = False) -> type[ArrayOps]:
    """Add an engine class to the registry under ``engine_cls.name``."""
    if not (isinstance(engine_cls, type) and issubclass(engine_cls, ArrayOps)):
        raise OptionError(
            f"expected an ArrayOps subclass, got {engine_cls!r}")
    name = getattr(engine_cls, "name", "?")
    if not name or not isinstance(name, str) or name == "?":
        raise OptionError(
            f"engine {engine_cls!r} must define a non-empty string name")
    if name in _REGISTRY and not overwrite:
        raise OptionError(
            f"engine {name!r} is already registered "
            "(pass overwrite=True to replace it)")
    _REGISTRY[name] = engine_cls
    return engine_cls


def available_engines() -> tuple[str, ...]:
    """Registered engine names whose array module imports here, sorted."""
    return tuple(sorted(name for name, cls in _REGISTRY.items()
                        if cls.module_available()))


def _auto_engine_cls() -> type[ArrayOps]:
    for name in _AUTO_ORDER:
        cls = _REGISTRY.get(name)
        if cls is None or not cls.module_available():
            continue
        if name == "numpy" or cls.device_available():
            return cls
    return _REGISTRY["numpy"]


def resolve_engine(spec: str | ArrayOps | None = None) -> ArrayOps:
    """Turn an engine name (or an already-built engine) into an ArrayOps.

    ``None`` and ``"auto"`` both resolve to the best engine this host can
    drive end to end (see the module docstring).  An explicit name whose
    module is missing raises
    :class:`~repro.errors.EngineUnavailableError`; an unknown name raises
    :class:`~repro.errors.OptionError`.
    """
    if isinstance(spec, ArrayOps):
        return spec
    if spec is None:
        spec = DEFAULT_ENGINE
    if not isinstance(spec, str):
        raise OptionError(
            f"engine must be a name or an ArrayOps instance, got {spec!r}")
    if spec == "auto":
        return _auto_engine_cls()()
    cls = _REGISTRY.get(spec)
    if cls is None:
        raise OptionError(
            f"unknown engine {spec!r}; choices: {', '.join(ENGINE_CHOICES)}")
    if not cls.module_available():
        raise EngineUnavailableError(
            spec, hint=f"available here: {', '.join(available_engines())}")
    return cls()


for _engine_cls in (NumpyEngine, TorchEngine):
    register_engine(_engine_cls)
del _engine_cls
