"""The array-module compute-engine protocol.

An :class:`ArrayOps` engine owns **statistic scoring**: the statistics'
``_compute_batch`` GEMMs and elementwise steps route through the engine's
array namespace (:attr:`ArrayOps.xp`) and its buffer/constant adapters,
so a device engine runs them on device arrays with ``out=`` fused calls
while the numpy engine executes the *literally identical* NumPy calls
the reference path always made.

Engines do not generate permutations.  Every fixed-seed keystream batch
is filled on the host by the numpy pipeline that each random generator
owns (:meth:`~repro.accel.numpy_engine.NumpyEngine.fill_encodings`), so
the encodings a kernel scores are the same whichever engine scores them.

Bit-identity contract: the numpy engine is the reference — its scoring
path calls the same NumPy functions in the same order as the seed
implementation, so statistics and counts are bit-identical by
construction; device engines agree on counts within the dtype-aware tie
tolerance of :mod:`repro.core.kernel`.

Engines are *per-rank, single-threaded* state (device engines cache
constant uploads): give each rank its own instance.  Under a persistent
session ``pmaxT`` keeps one resident per rank via
:func:`~repro.mpi.session.resident_cache`, next to the kernel workspace.
"""

from __future__ import annotations

from abc import ABC
from typing import Any

import numpy as np

__all__ = ["ArrayOps"]


class ArrayOps(ABC):
    """A pluggable array-module backend for batched statistic scoring.

    Subclasses bind one array library (NumPy, torch).  The class is
    registered under :attr:`name` in :mod:`repro.accel`'s string-keyed
    registry; :func:`~repro.accel.resolve_engine` instantiates it on
    demand and raises :class:`~repro.errors.EngineUnavailableError` when
    the library is not importable.
    """

    #: Registry key (``engine="<name>"`` everywhere in the package).
    name: str = "?"
    #: True when :attr:`xp` arrays live off-host (scores need a copy back).
    is_device: bool = False

    # -- availability ---------------------------------------------------------

    @classmethod
    def module_available(cls) -> bool:
        """Whether the engine's array module imports on this host."""
        return True

    @classmethod
    def device_available(cls) -> bool:
        """Whether the engine can place arrays on an accelerator device.

        ``engine="auto"`` prefers a device-backed engine; a module that
        imports but has no device (torch CPU wheels, say) still resolves
        explicitly by name.
        """
        return False

    # -- scoring adapters -----------------------------------------------------

    @property
    def xp(self) -> Any:
        """The array namespace the statistic kernels call into.

        For the numpy engine this is the :mod:`numpy` module itself, so
        the scoring arithmetic is the reference arithmetic, bit for bit.
        Device engines supply an adapter exposing the same call surface
        (``divide(a, b, out=)``, ``matmul``, ``errstate`` ...) over their
        library.
        """
        return np

    def empty(self, shape: tuple[int, ...], dtype) -> Any:
        """An uninitialised engine-native array (pool allocation hook)."""
        return self.xp.empty(shape, dtype=dtype)

    def constant(self, arr: np.ndarray) -> Any:
        """The engine-native mirror of a host constant array.

        Statistics call this (via ``work.constant``) on their prepared
        per-dataset arrays; device engines upload once and cache by
        identity, the numpy engine returns the array unchanged.
        """
        return arr

    def adopt_encodings(self, enc: np.ndarray) -> Any:
        """The engine-native operand for a host encoding batch."""
        return enc

    def device_array(self, arr: np.ndarray) -> Any:
        """An engine-native copy of a transient host array.

        Unlike :meth:`constant` this never caches — use it for one-shot
        operands (``pcor``'s standardized blocks, say) whose lifetime the
        engine must not extend.
        """
        return arr

    def to_host(self, arr: Any, out: np.ndarray | None = None) -> np.ndarray:
        """Copy an engine-native score matrix back to host memory."""
        if out is None:
            return arr
        if arr is not out:
            np.copyto(out, arr)
        return out

    def describe(self) -> dict:
        """A plain-dict summary for logs and benchmark records."""
        return {"engine": self.name, "device": self.is_device}
