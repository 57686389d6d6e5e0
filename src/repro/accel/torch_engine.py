"""PyTorch compute engine (CPU or CUDA): statistic scoring on tensors.

The engine scores only; permutation encodings are generated on the host
by the generators' own numpy pipeline and uploaded per batch
(:meth:`TorchEngine.adopt_encodings`).

The scoring namespace (:attr:`TorchEngine.xp`) adapts the NumPy call
surface the statistics use (``out=`` ufuncs, ``matmul``, ``errstate``)
onto torch ops; statistic constants are mirrored to the device once and
cached by identity.
"""

from __future__ import annotations

import contextlib
import importlib.util
from typing import Any

import numpy as np

from .base import ArrayOps

__all__ = ["TorchEngine"]


def _torch():
    import torch

    return torch


class _TorchXp:
    """NumPy-call-surface adapter over torch ops.

    Only the functions the statistic kernels use are provided; binary ops
    coerce scalar / NumPy operands to tensors matching the tensor operand
    so expressions like ``divide(1.0, N1, out=...)`` work unchanged.
    """

    def __init__(self, device):
        self._torch = _torch()
        self.device = device

    # -- plumbing -------------------------------------------------------------

    def _dtype(self, dtype):
        torch = self._torch
        mapping = {
            np.dtype(np.float64): torch.float64,
            np.dtype(np.float32): torch.float32,
            np.dtype(np.int64): torch.int64,
            np.dtype(np.bool_): torch.bool,
        }
        return mapping[np.dtype(dtype)]

    def _pair(self, a, b):
        torch = self._torch
        if isinstance(a, torch.Tensor):
            return a, (b if isinstance(b, torch.Tensor) else
                       torch.as_tensor(b, device=a.device))
        b = b if isinstance(b, torch.Tensor) else torch.as_tensor(b)
        return torch.as_tensor(a, device=b.device, dtype=b.dtype), b

    def _binary(self, fn, a, b, out=None):
        a, b = self._pair(a, b)
        return fn(a, b, out=out) if out is not None else fn(a, b)

    # -- the call surface the statistics use ----------------------------------

    def empty(self, shape, dtype=np.float64):
        return self._torch.empty(tuple(shape), dtype=self._dtype(dtype),
                                 device=self.device)

    def errstate(self, **kwargs):
        return contextlib.nullcontext()

    def copyto(self, dst, src, casting: str = "same_kind"):
        torch = self._torch
        if not isinstance(src, torch.Tensor):
            src = torch.as_tensor(np.ascontiguousarray(src))
        dst.copy_(src)
        return dst

    def matmul(self, a, b, out=None):
        return self._torch.matmul(a, b, out=out)

    def sum(self, a, axis=None, dtype=None, out=None):
        kwargs: dict[str, Any] = {}
        if dtype is not None:
            kwargs["dtype"] = self._dtype(dtype)
        if out is not None:
            kwargs["out"] = out
        return self._torch.sum(a, dim=axis, **kwargs)

    def sqrt(self, a, out=None):
        return self._torch.sqrt(a, out=out)

    def isin(self, elements, test_elements):
        torch = self._torch
        test = torch.as_tensor(np.asarray(test_elements),
                               device=elements.device).to(elements.dtype)
        return torch.isin(elements, test)

    def add(self, a, b, out=None):
        return self._binary(self._torch.add, a, b, out)

    def subtract(self, a, b, out=None):
        return self._binary(self._torch.subtract, a, b, out)

    def multiply(self, a, b, out=None):
        return self._binary(self._torch.multiply, a, b, out)

    def divide(self, a, b, out=None):
        return self._binary(self._torch.divide, a, b, out)

    def maximum(self, a, b, out=None):
        return self._binary(self._torch.maximum, a, b, out)

    def equal(self, a, b, out=None):
        return self._binary(self._torch.eq, a, b, out)

    def less(self, a, b, out=None):
        return self._binary(self._torch.lt, a, b, out)

    def logical_or(self, a, b, out=None):
        return self._binary(self._torch.logical_or, a, b, out)


class TorchEngine(ArrayOps):
    """Statistic scoring on torch tensors."""

    name = "torch"

    def __init__(self, device: str | None = None):
        torch = _torch()
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(device)
        self.is_device = self.device.type != "cpu"
        self._xp = _TorchXp(self.device)
        self._constants: dict[int, tuple] = {}

    @classmethod
    def module_available(cls) -> bool:
        return importlib.util.find_spec("torch") is not None

    @classmethod
    def device_available(cls) -> bool:
        if not cls.module_available():
            return False
        try:
            return bool(_torch().cuda.is_available())
        except Exception:  # pragma: no cover - driver probing
            return False

    # -- scoring adapters -----------------------------------------------------

    @property
    def xp(self) -> Any:
        return self._xp

    def empty(self, shape, dtype):
        return self._xp.empty(shape, dtype)

    def constant(self, arr: np.ndarray) -> Any:
        cached = self._constants.get(id(arr))
        if cached is not None and cached[0] is arr:
            return cached[1]
        torch = _torch()
        mirrored = torch.as_tensor(np.ascontiguousarray(arr)).to(self.device)
        # Keep a reference to the host array so its id cannot be recycled.
        self._constants[id(arr)] = (arr, mirrored)
        return mirrored

    def adopt_encodings(self, enc: np.ndarray) -> Any:
        torch = _torch()
        return torch.as_tensor(np.ascontiguousarray(enc)).to(self.device)

    def device_array(self, arr: np.ndarray) -> Any:
        torch = _torch()
        return torch.as_tensor(np.ascontiguousarray(arr)).to(self.device)

    def to_host(self, arr: Any, out: np.ndarray | None = None) -> np.ndarray:
        host = arr.detach().to("cpu").numpy()
        if out is None:
            return host
        np.copyto(out, host)
        return out
