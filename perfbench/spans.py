"""In-memory spans recorded at the program's layer boundaries.

Each layer module's own public functions are wrapped at their module
attributes, so every call that goes through the attribute opens a span:
name, start, end, parent span, request id, a work count (integrand nodes
for the kernel) and the exception it ended with. A call from inside the
same layer is not a boundary and opens none, which keeps the span count at
one per closed-form point on a sweep. Spans are kept in flat arrays and
written out once, after the run.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("i")
        self.work = array("q")
        self.error = array("i")  # name id of the exception class, or -1
        self.request = -1
        self._stack: list[int] = []
        self._stack_layer: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, layer: str, work=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until ``restore``."""
        fn = getattr(owner, attr)
        name_id = self._id(f"{layer}.{attr}")
        stack, layers = self._stack, self._stack_layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.rid.append(self.request)
            self.work.append(work(args) if work else 0)
            self.error.append(-1)
            self.end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = self._id(type(exc).__name__)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                layers.pop()

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_module(self, module, layer: str) -> None:
        """Wrap every public function defined in ``module`` itself."""
        for attr, obj in vars(module).copy().items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                self.wrap(module, attr, layer)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_of(self, i: int) -> str:
        return self.names[self.name[i]].split(".", 1)[0]

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write("rid\tname\tstart_s\tend_s\tparent\twork\terror\n")
            for i in range(len(self.start)):
                err = self.names[self.error[i]] if self.error[i] >= 0 else ""
                f.write(f"{self.rid[i]}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.work[i]}\t{err}\n")
