"""Per-process BLAS threadpool control (dependency-free).

Every rank of a multi-rank pmaxT world runs the same GEMM-heavy kernel, and
an unconfigured BLAS happily spins up one thread per core *per rank*:
``ranks x cores`` runnable threads on ``cores`` CPUs, thrashing caches and
the scheduler exactly when the paper's scaling argument assumes one busy
core per rank.  The classic fix is capping each rank's BLAS pool so that
``ranks x blas_threads <= cores``.

``threadpoolctl`` is the standard tool for this, but it is an optional
dependency; this module implements the minimal subset needed here with
plain :mod:`ctypes` against the OpenBLAS build NumPy bundles (including the
``scipy-openblas`` symbol-prefixed wheels), falling back to environment
variables for any BLAS loaded later.  Everything degrades to a no-op when
no controllable BLAS is found — correctness never depends on this module,
only throughput.

Used by:

* :class:`repro.mpi.session.WorkerPoolSession`, the one driver of the
  ``processes``/``shm`` worlds (one-shot runs are a pool opened for one
  job).  Its ``blas_threads`` setting reaches the pool directly: each
  forked worker applies :func:`apply_worker_cap` at bootstrap, and rank 0
  — the calling process — runs each job under :func:`blas_thread_limit`
  with the same budget (:func:`auto_blas_cap` by default), so the
  caller's pool and environment are restored once the job ends;
* :func:`repro.mpi.backends.launch_master`, which exposes an explicit
  ``blas_threads=`` override on ``pmaxT``/``pcor``/the CLI.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

__all__ = [
    "blas_available",
    "effective_cpu_count",
    "get_blas_threads",
    "set_blas_threads",
    "blas_thread_limit",
    "recommended_blas_threads",
    "elastic_blas_cap",
    "apply_elastic_cap",
    "apply_worker_cap",
    "auto_blas_cap",
]

#: Environment variables that cap the threadpool of a BLAS/OpenMP runtime
#: loaded *after* they are set (harmless for the already-loaded one, which
#: the ctypes path below handles directly).
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: (set, get) symbol-name pairs tried on every candidate shared object.
_SYMBOL_PAIRS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)

_controls: tuple | None | bool = None  # None = not probed yet; False = absent


def _candidate_libraries():
    """Shared objects that may expose a thread-control API.

    NumPy's wheels ship their BLAS inside ``numpy.libs`` (manylinux) or as
    a ``scipy_openblas64`` helper package; loading the same file again via
    ctypes returns the already-mapped library, so the calls act on the
    pool NumPy's GEMMs actually use.
    """
    paths = []
    try:
        import numpy as np

        base = os.path.dirname(np.__file__)
        for pattern in ("../numpy.libs/libscipy_openblas*",
                        "../numpy.libs/libopenblas*",
                        ".libs/libopenblas*"):
            paths.extend(sorted(glob.glob(os.path.join(base, pattern))))
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        pass
    try:
        import scipy_openblas64  # type: ignore

        paths.append(scipy_openblas64.get_lib_path())
    except Exception:
        pass
    seen = []
    for p in paths:
        p = os.path.abspath(p)
        if p not in seen:
            seen.append(p)
    yield from seen
    yield None  # the process's global symbol table, last


def _probe():
    """Locate (set_fn, get_fn) once; cache the result."""
    global _controls
    if _controls is not None:
        return _controls
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOL_PAIRS:
            set_fn = getattr(lib, set_name, None)
            get_fn = getattr(lib, get_name, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            _controls = (set_fn, get_fn)
            return _controls
    _controls = False
    return _controls


def blas_available() -> bool:
    """Whether a controllable BLAS threadpool was found in this process."""
    return bool(_probe())


def get_blas_threads() -> int | None:
    """The BLAS pool's current thread budget, or ``None`` if uncontrollable."""
    controls = _probe()
    if not controls:
        return None
    return int(controls[1]())


def set_blas_threads(n: int) -> int | None:
    """Cap the BLAS pool at ``n`` threads; returns the previous budget.

    Runtime control only — the caller's environment is left untouched, so
    a temporary cap (:func:`blas_thread_limit`) cannot leak into later
    library loads or forked children.  Returns ``None`` when no runtime
    control is available.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"blas_threads must be >= 1, got {n}")
    controls = _probe()
    if not controls:
        return None
    previous = int(controls[1]())
    controls[0](n)
    return previous


@contextmanager
def blas_thread_limit(n: int):
    """Context manager: cap the BLAS pool at ``n``, restore on exit."""
    previous = set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def recommended_blas_threads(ranks: int) -> int:
    """The per-rank cap that fills, but does not oversubscribe, the host.

    Uses the scheduling affinity rather than the raw core count, so a
    container pinned to 4 of a 64-core host's CPUs caps at 4//ranks — the
    raw count would reintroduce exactly the oversubscription this fixes.
    """
    return max(1, effective_cpu_count() // max(1, int(ranks)))


def elastic_blas_cap(nactive: int, cores: int | None = None) -> int:
    """The per-rank BLAS budget when only ``nactive`` ranks are still busy.

    The work-stealing scheduler's tail: once the block queue drains, idle
    ranks stop computing and the survivors may widen their pools to
    ``cores // nactive`` without oversubscribing the host.  Monotone in
    shrinking ``nactive`` — with one rank left the whole machine is its.
    """
    if cores is None:
        cores = effective_cpu_count()
    return max(1, int(cores) // max(1, int(nactive)))


def apply_elastic_cap(nactive: int, current: int | None,
                      floor: int | None = None) -> int | None:
    """Re-cap this rank's BLAS pool for ``nactive`` still-busy ranks.

    Returns the new cap if one was applied, else ``current``.  The cap
    tracks the snapshot in *both* directions: it widens as peers go
    idle, and narrows back when a fresh snapshot reports more busy
    ranks again — a rank that steals after the pool refills (a death
    requeue resurrects drained queues) must give back the host share it
    borrowed, or the survivors oversubscribe the machine for the rest
    of the job.  Every grant/stop message carries a freshly computed
    ``nactive``, so the snapshot applied here is the most recent truth
    this rank has seen.  ``floor`` (the rank's cap at job start) bounds
    narrowing: the elastic logic never takes a rank below its
    configured baseline.  The caller restores the original cap when its
    job ends (a ``finally`` in the steal kernel).
    """
    cap = elastic_blas_cap(nactive)
    if floor is not None:
        cap = max(cap, int(floor))
    if current is not None and cap == current:
        return current
    if set_blas_threads(cap) is None:
        return current
    return cap


def auto_blas_cap(world_size: int) -> int:
    """The automatic per-rank cap: ``max(1, cores // world_size)``.

    It only ever *lowers* the budget: a stricter limit already exported by
    the user or a scheduler (e.g. ``OPENBLAS_NUM_THREADS=1`` on a shared
    node) wins over the cores-per-rank heuristic.
    """
    cap = recommended_blas_threads(world_size)
    for var in _THREAD_ENV_VARS:
        try:
            existing = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if existing > 0:
            cap = min(cap, existing)
    return cap


def apply_worker_cap(world_size: int, blas_threads: int | None) -> None:
    """Bootstrap hook run inside each forked ``processes``/``shm`` worker.

    ``None`` applies :func:`auto_blas_cap` — the oversubscription fix.
    ``0`` disables capping entirely (restoring the pre-fix behaviour for
    measurement).  Workers are separate processes, so exporting the
    ``*_NUM_THREADS`` variables here cannot leak into the caller.
    """
    if blas_threads == 0:
        return
    cap = auto_blas_cap(world_size) if blas_threads is None else int(blas_threads)
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(cap)
    set_blas_threads(cap)
