"""Spans and counts for katolab's layers, recorded from outside the package.

Callers inside katolab import names directly (``from .quadrature import
integrate_to_zero``), so patching only the defining module would miss every
call.  ``Tracer.install`` therefore replaces *every* module attribute in the
``katolab`` package that refers to a wrapped function, and wraps methods on
each class that defines them.  Callables returned by ``resolvent_radial``,
``qt_radial`` and ``radial_mass_density`` are wrapped too, so the point
evaluations inside quadrature panels are timed and counted.

Spans are kept in per-thread arrays (``sup_over_centers`` runs objectives on
a thread pool) and reduced when the run ends.  Self time is a span minus its
children in the same thread.  Spans on pool threads overlap in wall time, so
each pool's subtree is scaled by (pool wall) / (summed objective time): every
reported time is then a share of wall time and the layer self times add up
to the traced wall time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

# (module, name, payload) for module-level functions; payload "diverged"
# stores the result's divergence flag on the span
FUNCTIONS = [
    ("quadrature", "gauss_panel", None),
    ("quadrature", "integrate_to_zero", "diverged"),
    ("quadrature", "integrate_outward", "diverged"),
    ("measures", "integrate_over_ball", None),
    ("measures", "integrate_global", None),
    ("functionals", "kato_functional", None),
    ("functionals", "semigroup_functional", None),
    ("functionals", "resolvent_functional", None),
    ("classification", "classify_measure", None),
    ("classification", "classify_limit", None),
    ("classification", "estimate_eta", None),
    ("cli", "cmd_classify", None),
    ("cli", "main", None),
]

# (module, method, span name, returned-callable span name)
METHODS = [
    ("kernels", "resolvent_radial", "kernels.resolvent_radial", "kernels.kernel_eval"),
    ("kernels", "qt_radial", "kernels.qt_radial", "kernels.kernel_eval"),
    ("kernels", "resolvent_scalar", "kernels.resolvent_scalar", None),
    ("kernels", "_build_resolvent_interp", "kernels.resolvent_table", None),
    ("measures", "ball_mass", "measures.ball_mass", None),
    ("measures", "radial_mass_density", "measures.radial_mass_density_build",
     "measures.radial_mass_density"),
    ("functionals", "build", "functionals.center_build", None),
    ("config", "from_file", "config.from_file", None),
]

SUP = "functionals.sup_over_centers"
OBJECTIVE = "functionals.objective"


class _ThreadBuffer:
    """Span columns for one thread; ``gid`` = (buffer index << 32) | row."""

    def __init__(self, index: int):
        self.index = index
        self.base = index << 32
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.payload = array("d")
        self.stack: list[int] = []
        self.active: set[int] = set()

    def open(self, nid: int, parent: int = -1) -> int:
        i = len(self.name)
        stack = self.stack
        if parent < 0 and stack:
            parent = self.base | stack[-1]
        self.name.append(nid)
        self.parent.append(parent)
        self.root.append(stack[0] if stack else i)
        self.payload.append(0.0)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def span(self, name: str, fn, *args, **kw):
        """Run fn(*args, **kw) inside one span (used by the benchmark)."""
        buf = self.buffer()
        i = buf.open(self.nid(name))
        try:
            return fn(*args, **kw)
        finally:
            buf.close(i)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere (e.g. the import time)."""
        buf = self.buffer()
        i = buf.open(self.nid(name))
        buf.start[i], buf.end[i] = start, end
        buf.stack.pop()

    def wrap(self, name: str, fn, payload: str | None = None,
             returns: str | None = None):
        nid = self.nid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            buf = tracer.buffer()
            if nid in buf.active:  # e.g. a subclass method calling super()
                return fn(*args, **kw)
            buf.active.add(nid)
            i = buf.open(nid)
            try:
                out = fn(*args, **kw)
                if payload == "diverged" and out.diverged:
                    buf.payload[i] = 1.0
            finally:
                buf.close(i)
                buf.active.discard(nid)
            if returns is not None and out is not None:
                return tracer.wrap_points(returns, out)
            return out

        return wrapper

    def wrap_points(self, name: str, fn):
        """Wrap a vectorized callable; the payload counts points evaluated."""
        nid = self.nid(name)
        tracer = self

        def wrapper(s):
            buf = tracer.buffer()
            i = buf.open(nid)
            try:
                return fn(s)
            finally:
                buf.close(i)
                buf.payload[i] = float(np.size(s))

        return wrapper

    def wrap_sup(self, fn):
        """sup_over_centers: its objectives may run on pool threads, so each
        objective call is a span whose parent is the sup span, wherever it
        runs; its payload is the thread's CPU time."""
        sup_id, obj_id = self.nid(SUP), self.nid(OBJECTIVE)
        tracer = self

        @functools.wraps(fn)
        def wrapper(centers, objective):
            buf = tracer.buffer()
            i = buf.open(sup_id)
            parent = buf.base | i

            def traced_objective(x):
                wbuf = tracer.buffer()
                j = wbuf.open(obj_id, parent)
                c0 = time.thread_time()
                try:
                    return objective(x)
                finally:
                    wbuf.close(j)
                    wbuf.payload[j] = time.thread_time() - c0

            try:
                return fn(centers, traced_objective)
            finally:
                buf.close(i)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"katolab.{name}")
                for name in ("quadrature", "kernels", "measures", "functionals",
                             "classification", "config", "cli")}
        every = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == "katolab"
                                       or name.startswith("katolab."))]

        targets = [(getattr(mods[m], f), self.wrap(f"{m}.{f}", getattr(mods[m], f),
                                                   payload))
                   for m, f, payload in FUNCTIONS]
        sup = mods["functionals"].sup_over_centers
        targets.append((sup, self.wrap_sup(sup)))
        for orig, wrapped in targets:
            for mod in every:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapped)

        for m, meth, name, returns in METHODS:
            for cls in vars(mods[m]).values():
                if not (inspect.isclass(cls) and cls.__module__ == mods[m].__name__
                        and meth in cls.__dict__):
                    continue
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw, returns=returns)
                self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict:
        """All spans as flat numpy columns (parent/root as flat indices)."""
        bufs = self._buffers
        sizes = [len(b.name) for b in bufs]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

        def column(attr, dtype):
            parts = [np.array(getattr(b, attr), dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        gid = column("parent", np.int64)
        parent = np.full(len(gid), -1, dtype=np.int64)
        has = gid >= 0
        parent[has] = offsets[gid[has] >> 32] + (gid[has] & 0xFFFFFFFF)
        return {
            "names": np.array(self.names),
            "name": column("name", np.int32),
            "thread": np.repeat(np.arange(len(bufs)), sizes),
            "start": column("start", float),
            "end": column("end", float),
            "payload": column("payload", float),
            "parent": parent,
            "root": column("root", np.int64) + np.repeat(offsets, sizes),
        }

    def aggregate(self) -> dict:
        """Additive per-name totals: calls, s (inclusive), self_s, payload;
        plus the pool's objective CPU time and capacity (wall x workers)."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        parent, thread = a["parent"], a["thread"]
        has = parent >= 0
        same = np.zeros(n, bool)
        same[has] = thread[parent[has]] == thread[has]
        cross = has & ~same
        child_same = np.bincount(parent[same], weights=dur[same], minlength=n)
        cross_busy = np.bincount(parent[cross], weights=dur[cross], minlength=n)
        avail = dur - child_same
        with np.errstate(divide="ignore", invalid="ignore"):
            f_pool = np.where(cross_busy > 0,
                              np.minimum(1.0, avail / cross_busy), 1.0)
        root = a["root"]
        root_cross = cross[root]
        scale = np.ones(n)
        scale[root_cross] = f_pool[parent[root[root_cross]]]
        incl = dur * scale
        self_t = (avail - f_pool * cross_busy) * scale

        spans = {}
        for k, name in enumerate(self.names):
            sel = a["name"] == k
            if sel.any():
                spans[name] = {"calls": int(sel.sum()),
                               "s": float(incl[sel].sum()),
                               "self_s": float(self_t[sel].sum()),
                               "payload": float(a["payload"][sel].sum())}

        # pool use: objective CPU time over (sup wall x threads that ran them)
        obj = np.nonzero(a["name"] == self._ids.get(OBJECTIVE, -1))[0]
        cpu = float(a["payload"][obj].sum())
        capacity = 0.0
        if len(obj):
            pairs = np.unique(np.stack([parent[obj], thread[obj]]), axis=1)
            sups, workers = np.unique(pairs[0], return_counts=True)
            capacity = float((dur[sups] * workers).sum())
        return {"spans": spans, "pool_cpu_s": cpu, "pool_capacity_s": capacity,
                "n_spans": int(n)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def merge(aggs: list[dict]) -> dict:
    out = {"spans": {}, "pool_cpu_s": 0.0, "pool_capacity_s": 0.0, "n_spans": 0}
    for agg in aggs:
        for name, row in agg["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "s": 0.0,
                                                 "self_s": 0.0, "payload": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k in ("pool_cpu_s", "pool_capacity_s", "n_spans"):
            out[k] += agg[k]
    return out
