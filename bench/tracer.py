"""Span tracer that wraps gcurkit's public functions from outside the library.

The library is not changed. While a tracer is attached, every public
function defined in a layer module is replaced by a recording wrapper in
every place a gcurkit module binds it: the defining module, each module that
re-binds the name with ``from .x import y``, and the package's re-exports.
Layer modules are looked up in ``sys.modules`` because some package
attributes (``gcurkit.gsvd``, ``gcurkit.gcur``) are functions, not modules.

A span records its name, its parent and the operation it belongs to. Each
thread keeps its own parent stack; a span opened on a thread with an empty
stack (a trial running on a worker of the experiment thread pool) takes as
parent the open span of the thread that attached the tracer. Spans are
aggregated when they close, so memory stays bounded however many run.

Per span name the tracer keeps:

- ``calls``: spans closed;
- ``busy_s``: summed span durations (thread-seconds when spans overlap);
- ``self_s``: summed layer self time, a span's duration minus the union of
  the intervals covered by its nearest descendants in *other* layers.
  Nested spans of the same layer (``cli.main`` -> ``cli.cmd_gcur``) count
  as the parent's own layer time;
- ``bytes``: computed input bytes (``matkit``: ``nbytes`` of the array
  arguments) or file bytes (``io``: size of the file read or written).
"""

import contextlib
import functools
import os
import sys
import threading
import types
from time import perf_counter

LAYERS = ("matkit", "gsvd", "deim", "curfac", "gcur", "synth", "experiments", "io", "cli")


def _array_bytes(args, kwargs, result):
    return sum(getattr(a, "nbytes", 0) for a in (*args, *kwargs.values()))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError, ValueError):
        return 0


def _path_bytes(args, kwargs, result):
    return _file_size(args[0] if args else kwargs.get("path"))


def _report_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    if out is not None:
        return _file_size(out)
    return len(result.encode()) if isinstance(result, str) else 0


_IO_BYTES = {
    "read_matrix": _path_bytes,
    "write_matrix_market": _path_bytes,
    "write_report": _report_bytes,
}


def _size_fn(layer, attr):
    if layer == "matkit":
        return _array_bytes
    if layer == "io":
        return _IO_BYTES.get(attr)
    return None


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Span:
    __slots__ = ("name", "layer", "parent", "op", "t0", "children")

    def __init__(self, name, layer, parent, op, t0):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.children = []  # (t0, t1) of nearest other-layer descendants


class Tracer:
    """Wrappers for one imported copy of a package, attached per operation."""

    def __init__(self, package="gcurkit"):
        self.package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._op = None
        self._patched = []
        self._wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[obj] = self._wrap(
                        f"{layer}.{attr}", layer, obj, _size_fn(layer, attr)
                    )
        self.reset()

    def reset(self):
        """Forget all recorded spans."""
        self.per_op = {}  # op -> span name -> [calls, busy_s, self_s, bytes]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, size(args, kwargs, result) if size else 0)

        traced.__bench_traced__ = True
        return traced

    def _open(self, name, layer):
        stack = self._stack()
        root = self._root
        parent = stack[-1] if stack else (root[-1] if root else None)
        span = _Span(name, layer, parent, self._op, perf_counter())
        stack.append(span)
        return span

    def _close(self, span, nbytes):
        t1 = perf_counter()
        self._stack().pop()
        with self._lock:
            kids = span.children
            own = (t1 - span.t0) - (_covered(kids, span.t0, t1) if kids else 0.0)
            spans = self.per_op[span.op]
            st = spans.get(span.name)
            if st is None:
                st = spans[span.name] = [0, 0.0, 0.0, 0]
            st[0] += 1
            st[1] += t1 - span.t0
            st[2] += own
            st[3] += nbytes
            parent = span.parent
            if parent is not None:
                if parent.layer == span.layer:
                    parent.children.extend(kids)
                else:
                    parent.children.append((span.t0, t1))

    @contextlib.contextmanager
    def attached(self, op):
        """Patch every binding for the duration of operation ``op``."""
        pkg = self.package
        for modname, mod in list(sys.modules.items()):
            if modname != pkg and not modname.startswith(pkg + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._patched.append((mod, attr, obj))
        self._op = op
        self._root = self._stack()
        self.per_op.setdefault(op, {})
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(self._patched):
                setattr(mod, attr, obj)
            self._patched.clear()
            self._root = None
            self._op = None

    def ops(self):
        return len(self.per_op)

    def totals(self, name):
        """[calls, busy_s, self_s, bytes] for ``name`` summed over all ops."""
        rows = [spans.get(name, (0, 0.0, 0.0, 0)) for spans in self.per_op.values()]
        return [sum(col) for col in zip(*rows)] if rows else [0, 0.0, 0.0, 0]

    def calls_per_op(self, name):
        """Calls per traced op: an int when every op made the same number."""
        counts = [spans.get(name, (0,))[0] for spans in self.per_op.values()]
        if len(set(counts)) == 1:
            return counts[0]
        return sum(counts) / len(counts)
