"""Spans recorded from outside the package, around its public functions.

`Tracer.installed()` replaces each traced function with a wrapper under every
name that refers to it in any loaded `quditproc` module. The modules import
each other's functions by name (`postselect` calls its own `hs_expand`,
`programs` its own `bell_basis_matrix`), so patching only the defining module
would miss those calls. Spans live in memory until `write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module, function) pairs wrapped in traced runs, in pipeline order.
TRACED = (
    ("harness", "run_scenario"),
    ("harness", "build_operator"),
    ("sampling", "random_unitary"),
    ("sampling", "random_state"),
    ("postselect", "run_experiment"),
    ("programs", "hs_expand"),
    ("programs", "program_from_expansion"),
    ("programs", "measurement_full"),
    ("programs", "measurement_restricted"),
    ("gates", "bell_basis_matrix"),
    ("processor", "apply_processor"),
    ("registers", "tensor"),
    ("gates", "conditional_shift"),
    ("postselect", "oracle_apply"),
    ("postselect", "post_select"),
    ("registers", "partial_inner_product"),
    ("postselect", "predicted_probability"),
)

OP_SPAN = "bench.op"


def dim_of(args) -> int | None:
    """Qudit dimension of a call: the first int argument or `.dim` attribute."""
    for arg in args:
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
        dim = getattr(arg, "dim", None)
        if isinstance(dim, int):
            return dim
    return None


@dataclass
class Span:
    name: str  # "<module>.<function>", or OP_SPAN for the benchmark's own op
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    op_id: int | None
    section: str
    dim: int | None
    end: float = 0.0
    error: str | None = None  # exception class name when the call raised

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    section: str = "setup"
    op_id: int | None = None
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str, dim: int | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.op_id, self.section, dim))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: BaseException | None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; every span inside carries `op_id`."""
        self.op_id = op_id
        idx = self._open(OP_SPAN, None)
        error = None
        try:
            yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._close(idx, error)
            self.op_id = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, dim_of(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, exc)
                raise
            self._close(idx, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function under all its names; restore on exit."""
        patches = []
        for module_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"quditproc.{module_name}"), fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "quditproc" and not mod_name.startswith("quditproc."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patches.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op_id,
                    "section": s.section,
                    "dim": s.dim,
                    "error": s.error,
                }
                fh.write(json.dumps(record) + "\n")
