"""Host record, same-run calibration and memory readings.

Absolute numbers from different hosts are only comparable next to a
description of the host and a timing of plain kernels measured in the
same run, so every run records both (as data, not as gated metrics).
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """``{"L1d": "48K", "L2": "2048K", "L3": ...}`` from sysfs."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return sizes


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def rank_blas_threads(comm) -> int | None:
    """Session job: this rank's BLAS thread budget (module level: picklable)."""
    from repro.mpi.blasctl import get_blas_threads

    return get_blas_threads()


def calibration(repeats: int = 5) -> dict:
    """Median timings of a plain GEMM and a plain running maximum.

    Both run on one BLAS thread (the per-rank budget of a 2-rank world on
    a 2-CPU host): a 512 x 512 float64 GEMM, and ``np.maximum.accumulate``
    down the rows of a 36 612 x 64 matrix — the shape of one bulk-exon36k
    scoring chunk.
    """
    from repro.mpi.blasctl import blas_thread_limit

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 512))
    u = rng.standard_normal((36_612, 64))
    out = np.empty_like(u)

    def median_ms(fn) -> float:
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        return float(np.median(samples))

    with blas_thread_limit(1):
        gemm_ms = median_ms(lambda: a @ b)
    accumulate_ms = median_ms(lambda: np.maximum.accumulate(u, axis=0, out=out))
    return {
        "gemm_512_ms": round(gemm_ms, 4),
        "gemm_gflops": round(2 * 512 ** 3 / gemm_ms / 1e6, 2),
        "max_accumulate_36612x64_ms": round(accumulate_ms, 4),
        "max_accumulate_gb_per_s": round(2 * u.nbytes / accumulate_ms / 1e6, 2),
    }


def host_record(rank_threads: list | None = None) -> dict:
    """What the numbers of this run should be read against."""
    from repro.mpi.blasctl import effective_cpu_count, recommended_blas_threads

    return {
        "nproc": effective_cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas": _blas_library(),
        "blas_threads_per_rank": rank_threads,
        "blas_cap_2_ranks": recommended_blas_threads(2),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "calibration": calibration(),
    }


def vm_hwm_mib(pids) -> float:
    """Peak resident set (VmHWM) summed over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
                break
    return total_kib / 1024.0


def child_pids() -> list[int]:
    """Live direct children of this process (Linux /proc)."""
    pids: list[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return pids
