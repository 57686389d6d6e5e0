"""Span recorder and the wrappers that time each layer from outside.

The program itself is not instrumented: :class:`Tracer` replaces public
functions of the ``repro`` modules with timing wrappers *where the
callers look them up* (a module attribute for module-level functions,
the class attribute for methods) and restores them on :meth:`uninstall`.
Spans are kept in memory, appended under a lock, nested per thread
(each span records the innermost open span of its thread as parent) and
written out by :meth:`write`.

Only the benchmark process records: it is rank 0 of every session, and a
worker forked after :meth:`install` runs the wrappers as plain
pass-throughs.  Worker-rank timings are left to in-program tracing.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from functools import wraps

from .layers import PER_LAYER


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: int
    t1: int
    thread: int
    attrs: dict | None

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


def _pmaxt_attrs(args, kwargs, result, tls) -> dict | None:
    profile = getattr(result, "profile", None)
    if profile is None:
        return None
    return {"sections": {k: getattr(profile, k) for k in SECTIONS}}


def _kernel_attrs(args, kwargs, result, tls) -> dict:
    count = kwargs["count"] if "count" in kwargs else args[5]
    built = tls.built
    workspace = built[-1] if built else kwargs.get("workspace")
    return {"count": int(count),
            "ws_bytes": workspace.nbytes() if workspace is not None else 0}


SECTIONS = ("pre_processing", "broadcast_parameters", "create_data",
            "main_kernel", "compute_pvalues")

#: ``(module, owner class or "" for a module function, attribute, span
#: name, attrs from the call)``.
TARGETS = (
    ("repro", "", "pmaxT", "pmaxt.call", _pmaxt_attrs),
    ("repro.serve.manager", "", "pmaxT", "pmaxt.call", _pmaxt_attrs),
    ("repro.core.pmaxt", "", "build_statistic", "pmaxt.build_statistic", None),
    ("repro.core.pmaxt", "", "compute_observed", "pmaxt.compute_observed", None),
    ("repro.core.pmaxt", "", "run_steal_master", "steal.master", None),
    ("repro.core.pmaxt", "", "run_kernel", "kernel.run_kernel", _kernel_attrs),
    ("repro.core.checkpoint", "", "run_kernel", "kernel.run_kernel", _kernel_attrs),
    ("repro.core.kernel", "", "side_adjust", "adjust.side_adjust", None),
    ("repro.core.kernel", "", "successive_maxima", "adjust.successive_maxima", None),
    ("repro.stats.base", "TestStatistic", "batch", "stats.batch", None),
    ("repro.permute.base", "PermutationGenerator", "take_batch",
     "permute.take_batch", None),
    ("repro.accel.numpy_engine", "NumpyEngine", "fill_encodings",
     "accel.fill_encodings", None),
    ("repro.mpi.datasets", "DatasetRegistry", "publish", "datasets.publish", None),
    ("repro.core.checkpoint", "", "dataset_fingerprint", "cache.fingerprint", None),
    ("repro.core.checkpoint", "ResultCache", "lookup", "cache.lookup", None),
    ("repro.core.checkpoint", "ResultCache", "lookup_array", "cache.lookup", None),
    ("repro.core.checkpoint", "ResultCache", "save", "cache.save", None),
    ("repro.core.checkpoint", "ResultCache", "save_array", "cache.save", None),
    ("repro.core.checkpoint", "CheckpointStore", "save", "checkpoint.save", None),
    ("repro.serve.manager", "", "pcor", "corr.pcor", None),
)

#: Spans whose time, inside run_kernel, is a kernel child.
KERNEL_CHILDREN = {
    "stats.batch": "stats.batch_us_per_perm",
    "permute.take_batch": "permute.take_batch_us_per_perm",
    "accel.fill_encodings": "accel.fill_encodings_us_per_perm",
    "adjust.side_adjust": "adjust.side_adjust_us_per_perm",
    "adjust.successive_maxima": "adjust.successive_maxima_us_per_perm",
}


class Tracer:
    """In-memory, thread-safe span recorder plus its monkey-patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._pid = os.getpid()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.built = None
        return stack

    def _wrap(self, fn, name: str, attrs_fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            outer_built = tracer._tls.built
            if attrs_fn is _kernel_attrs:
                tracer._tls.built = []
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter_ns()
                attrs = (attrs_fn(args, kwargs, result, tracer._tls)
                         if attrs_fn is not None else None)
            finally:
                stack.pop()
                tracer._tls.built = outer_built
            span = Span(sid, parent, name, t0, t1, threading.get_ident(), attrs)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target (idempotent per tracer)."""
        if self._saved:
            return
        for module_name, owner_name, attr, name, attrs_fn in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))
        # Workspaces built inside a run_kernel call (no resident one
        # passed in) are reported through the enclosing kernel span.
        from repro.core.kernel import KernelWorkspace

        init = KernelWorkspace.__dict__["__init__"]
        tracer = self

        @wraps(init)
        def recording_init(ws, *args, **kwargs):
            init(ws, *args, **kwargs)
            if os.getpid() == tracer._pid:
                built = getattr(tracer._tls, "built", None)
                if built is not None:
                    built.append(ws)

        self._saved.append((KernelWorkspace, "__init__", init))
        KernelWorkspace.__init__ = recording_init

    def uninstall(self) -> None:
        """Restore the originals, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in ns, perf_counter clock)."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "t0_ns": s.t0, "t1_ns": s.t1, "thread": s.thread,
                    "attrs": s.attrs}) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Every per-layer metric from the spans plus workload counters.

    ``counters`` carries the values read from ``stats()`` deltas and job
    records, keyed by metric name; anything neither source yields is 0
    (the layer was idle).
    """
    out = {m.name: 0.0 for m in PER_LAYER}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.sid: s for s in spans}

    kernels = by_name.get("kernel.run_kernel", [])
    kernel_ids = {s.sid for s in kernels}
    perms = sum(s.attrs["count"] for s in kernels)
    kernel_ms = sum(s.ms for s in kernels)

    def in_kernel(s: Span) -> bool:
        parent = s.parent
        while parent is not None:
            if parent in kernel_ids:
                return True
            parent = by_id[parent].parent if parent in by_id else None
        return False

    if perms:
        out["kernel.us_per_perm"] = kernel_ms * 1e3 / perms
        direct = sum(s.ms for s in spans if s.parent in kernel_ids)
        out["kernel.self_us_per_perm"] = (kernel_ms - direct) * 1e3 / perms
        for name, metric in KERNEL_CHILDREN.items():
            inside = sum(s.ms for s in by_name.get(name, []) if in_kernel(s))
            out[metric] = inside * 1e3 / perms
        batch_ms = sum(s.ms for s in by_name.get("stats.batch", [])
                       if in_kernel(s))
        out["stats.batch_share"] = batch_ms / kernel_ms if kernel_ms else 0.0
        out["kernel.workspace_bytes"] = float(
            max(s.attrs["ws_bytes"] for s in kernels))

    masters = by_name.get("steal.master", [])
    master_kernel: dict[int, float] = {s.sid: 0.0 for s in masters}
    for s in kernels:
        if s.parent in master_kernel:
            master_kernel[s.parent] += s.ms
    overhead_ms = sum(s.ms - master_kernel[s.sid] for s in masters)
    if masters:
        out["steal.master_overhead_ms"] = overhead_ms / len(masters)

    calls = by_name.get("pmaxt.call", [])
    if calls:
        sections = {k: 0.0 for k in SECTIONS}
        outside = 0.0
        for s in calls:
            secs = (s.attrs or {}).get("sections", {})
            for k, v in secs.items():
                sections[k] += v * 1e3
            outside += s.ms - sum(secs.values()) * 1e3
        n = len(calls)
        for k, total in sections.items():
            out[f"pmaxt.{k}_ms"] = total / n
        out["pmaxt.outside_sections_ms"] = outside / n
        observed = sum(s.ms for name in ("pmaxt.build_statistic",
                                         "pmaxt.compute_observed")
                       for s in by_name.get(name, []))
        out["pmaxt.observed_ms"] = observed / n
        out["pmaxt.main_kernel_unaccounted_ms"] = (
            sections["main_kernel"] - observed - kernel_ms - overhead_ms) / n

    publishes = by_name.get("datasets.publish", [])
    out["datasets.publishes"] = float(len(publishes))
    out["datasets.publish_ms"] = _mean(s.ms for s in publishes)
    out["cache.fingerprint_ms"] = _mean(s.ms for s in by_name.get("cache.fingerprint", []))
    out["cache.lookup_ms"] = _mean(s.ms for s in by_name.get("cache.lookup", []))
    out["cache.save_ms"] = _mean(s.ms for s in by_name.get("cache.save", []))
    saves = by_name.get("checkpoint.save", [])
    out["checkpoint.saves"] = float(len(saves))
    out["checkpoint.save_ms"] = _mean(s.ms for s in saves)
    out["corr.pcor_ms"] = _mean(s.ms for s in by_name.get("corr.pcor", []))
    out["trace.spans"] = float(len(spans))

    for name, value in counters.items():
        if name not in out:
            raise KeyError(f"counter {name!r} is not a per-layer metric")
        out[name] = float(value)
    return out
