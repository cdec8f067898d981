"""Span tracer that wraps ptqkit's functions from outside the package.

``Tracer.install()`` replaces every function defined in a ``ptqkit``
module with a timing wrapper, at every place the program looks it up:
module-level name bindings (including names one module imports from
another, such as ``calibration.denoise_step``), functions held in
module-level dicts (the CLI's command table) and the methods of every
ptqkit class.  ``uninstall()`` puts the originals back.  No file under
``src/`` is edited.

Each wrapped call records one span: name id, start, end and parent span.
Spans live in compact in-memory arrays and are written out once, by
``save``, when the benchmark ends.  Probes attached to a few names turn
call arguments and results into counters (rows per call, samples per
calibration set, bytes written).
"""

import inspect
import os
import time
from array import array

import numpy as np

_SKIPPED_MODULES = {"ptqkit.errors"}
_WRAPPED_DUNDERS = {"__init__", "__post_init__"}


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self.errors = {}  # "span name:exception type" -> calls that raised it
        self._probes = {}
        self._wrappers = {}  # id(original) -> wrapper
        self._restore = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def probe(self, name: str, fn) -> None:
        """Call ``fn(tracer, args, kwargs, result)`` after each call of ``name``."""
        self._probes[name] = fn

    def _wrap(self, fn, name: str):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        nid = self.name_id(name)
        probe = self._probes.get(name)
        clock = time.perf_counter
        stack, names_a, parent_a = self._stack, self.name, self.parent
        start_a, end_a = self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(start_a)
            names_a.append(nid)
            parent_a.append(stack[-1])
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}:{type(exc).__name__}"
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start_a[sid] = t0
                end_a[sid] = t1
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def span(self, name: str):
        """Context manager recording one span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    # -- installing --------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every ptqkit function reachable from ``modules``."""
        for mod in modules:
            if mod.__name__ in _SKIPPED_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and self._ours(obj):
                    self._set(mod, attr, self._wrap(obj, self._fn_name(obj)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and self._ours(val):
                            self._restore.append((obj.__setitem__, key, val))
                            obj[key] = self._wrap(val, self._fn_name(val))

    def _install_class(self, cls) -> None:
        prefix = f"{_short(cls.__module__)}.{cls.__qualname__}"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name)), raw)
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)), raw)
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name), raw)

    @staticmethod
    def _ours(fn) -> bool:
        return (fn.__module__ or "").startswith("ptqkit") and fn.__module__ not in _SKIPPED_MODULES

    @staticmethod
    def _fn_name(fn) -> str:
        return f"{_short(fn.__module__)}.{fn.__qualname__}"

    def _set(self, owner, attr, value, original=None) -> None:
        if original is None:
            original = getattr(owner, attr)
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self, first: int = 0, last: int = None):
        """(name, parent, start, end) of spans[first:last], as numpy copies
        (a view would stop the span arrays from growing)."""
        last = len(self.start) if last is None else last
        return tuple(np.frombuffer(a, dtype=dt)[first:last].copy()
                     for a, dt in ((self.name, np.int32), (self.parent, np.int32),
                                   (self.start, np.float64), (self.end, np.float64)))

    def save(self, path: str) -> None:
        """Write every span, with the name table and run id, as one .npz file."""
        name, parent, start, end = self.arrays()
        tmp = path + ".tmp.npz"
        np.savez(tmp, run_id=np.array(self.run_id), names=np.array(self.names),
                 name=name, parent=parent, start=start, end=end)
        os.replace(tmp, path)


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.start)
        tr.name.append(self.nid)
        tr.parent.append(tr._stack[-1])
        tr.start.append(time.perf_counter())
        tr.end.append(0.0)
        tr._stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.sid] = time.perf_counter()
        tr._stack.pop()
        return False


class SpanTable:
    """Self and inclusive times, counts and ancestry over a slice of spans."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        name, parent, start, end = tracer.arrays(first, last)
        self.names = list(tracer.names)
        self.name = name
        # parents before ``first`` lie outside the slice; the slice is one
        # benchmark pass, whose top-level spans have no parent anyway
        self.parent = np.where(parent >= first, parent - first, -1)
        self.dur = end - start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.ids(name)

    def calls(self, name: str, within: np.ndarray = None) -> int:
        m = self.mask(name)
        return int(np.count_nonzero(m if within is None else m & within))

    def inclusive(self, name: str, within: np.ndarray = None) -> float:
        m = self.mask(name)
        return float(self.dur[m if within is None else m & within].sum())

    def self_of(self, names) -> float:
        ids = [self.ids(n) for n in names]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named ``ancestor`` above them."""
        is_anc = self.mask(ancestor)
        flag = np.zeros(len(self.name), dtype=bool)
        # each vectorized pass pushes the flag one nesting level down
        while True:
            p = self.parent
            new = np.where(p >= 0, is_anc[np.maximum(p, 0)] | flag[np.maximum(p, 0)], False)
            if np.array_equal(new, flag):
                return flag
            flag = new

    def by_module(self) -> dict:
        """Self time per module, keyed by the part of the span name before the first dot."""
        modules = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        out = {}
        for mod in sorted(set(modules.tolist())):
            ids = np.nonzero(modules == mod)[0]
            out[mod] = float(self.self_time[np.isin(self.name, ids)].sum())
        return out
