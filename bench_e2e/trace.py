"""In-memory span tracer that wraps the callables named in ``layers.py``.

The program under test carries no tracing of its own, so the benchmark
records spans from the outside: :class:`Tracer` replaces each callable
named in the layer table with a timing wrapper *wherever a* ``repro.*``
*module binds it* (``from x import f`` copies the binding, so patching
the defining module alone would miss most call sites), keeps the spans
in memory, and removes every wrapper again on exit.

A span is ``[name, start, end, parent, op, thread, payload]``.
``parent`` is the enclosing span on the same thread, ``op`` the
benchmark operation (one build, one query, one ingest call) the driver
declared with :meth:`Tracer.op`.  A layer's *self time* is its span's
duration minus the durations of its child spans.  A callable that
returns a generator is timed per ``next()``: the work happens while
the consumer pulls, not when the generator object is created.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
import time
import types
import warnings
from contextlib import contextmanager

NAME, START, END, PARENT, OP, THREAD, PAYLOAD = range(7)

#: Marker attribute set on every installed wrapper (the leak check in
#: the test suite scans for it).
WRAPPER_MARK = "__bench_e2e_span__"


def import_all(package: str = "repro") -> None:
    """Import every submodule so that every binding exists before patching."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Tracer:
    """Install span wrappers for ``rows``; collect spans; uninstall."""

    def __init__(self, rows, package: str = "repro", clock=time.perf_counter):
        self.rows = list(rows)
        self.package = package
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _start(self, name: str) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.thread = threading.current_thread().name
        op = getattr(local, "op", None)
        span = [
            name,
            0.0,
            None,
            stack[-1] if stack else None,
            op if op is not None else (local.thread, 0),
            local.thread,
            None,
        ]
        self.spans.append(span)
        stack.append(span)
        span[START] = self.clock()
        return span

    def _finish(self, span: list) -> None:
        span[END] = self.clock()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (load generator waits)."""
        span = self._start(name)
        try:
            yield span
        finally:
            self._finish(span)

    @contextmanager
    def op(self, kind: str, index: int = 0):
        """Tag every span started on this thread with operation ``(kind, index)``."""
        previous = getattr(self._local, "op", None)
        self._local.op = (kind, index)
        try:
            yield
        finally:
            self._local.op = previous

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, payload):
        tracer = self

        def pull(generator):
            while True:
                span = tracer._start(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer._finish(span)
                yield item

        def wrapper(*args, **kwargs):
            span = tracer._start(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._finish(span)
            if payload is not None:
                span[PAYLOAD] = payload(args, out)
            if isinstance(out, types.GeneratorType):
                return pull(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def _modules(self):
        prefix = self.package + "."
        return [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None
            and (mod_name == self.package or mod_name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        import_all(self.package)
        for row in self.rows:
            try:
                module = importlib.import_module(f"{self.package}.{row.module}")
                owner_name, _, attr = row.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{row.module}:{row.attr}")
                warnings.warn(
                    f"bench_e2e trace target {row.module}:{row.attr} no longer "
                    f"exists; its layer metrics read 0",
                    stacklevel=2,
                )
                continue
            wrapper = self._wrap(row.span, original, row.payload)
            if owner_name:
                # A method: patch the class that the row names (restoring
                # by deletion when the method was inherited).
                own = attr in vars(owner)
                self._restore.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, wrapper)
                continue
            for bound in self._modules():
                for bound_name, value in list(vars(bound).items()):
                    if value is original:
                        self._restore.append((bound, bound_name, original, True))
                        setattr(bound, bound_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def finished(self) -> list[list]:
        return [span for span in self.spans if span[END] is not None]

    def self_times(self) -> dict[int, float]:
        """``id(span) -> self seconds`` for every finished span."""
        spans = self.finished()
        own = {id(span): span[END] - span[START] for span in spans}
        for span in spans:
            parent = span[PARENT]
            if parent is not None and id(parent) in own:
                own[id(parent)] -= span[END] - span[START]
        return own

    def under(self, name: str, ancestor: str) -> list[list]:
        """Spans called ``name`` that have an ancestor span called ``ancestor``."""
        out = []
        for span in self.finished():
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent is not None:
                if parent[NAME] == ancestor:
                    out.append(span)
                    break
                parent = parent[PARENT]
        return out


def installed_wrappers(package: str = "repro") -> list[str]:
    """Names of every bench wrapper still bound in ``package`` (leak check)."""
    found = []
    prefix = package + "."
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type):
                for name, member in list(vars(value).items()):
                    if hasattr(member, WRAPPER_MARK):
                        found.append(f"{mod_name}.{attr}.{name}")
    return found
