"""Span recording around topogan entry points, installed from outside the program.

A target names an attribute that the program looks up at call time, either
`module:function` or `module:Class.method` (module relative to `topogan`).
Functions are replaced in every loaded topogan module that binds the same
object, so that `from .fem import assemble_and_solve` call sites are traced
too. Spans (name, start, end, parent) stay in memory until `dump` writes them.
A target that no longer exists is reported as missing with a warning; it
never stops the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings

PACKAGE = "topogan"


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _plain_call(fn, args, kwargs, span):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._children: dict[int, list[int]] | None = None

    # -- installing and removing wrappers -----------------------------------
    def _owners(self, target: str):
        """(original object, [(owner, attribute name), ...]) for one target."""
        module_name, _, attr_path = target.partition(":")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        *class_path, attr = attr_path.split(".")
        owner = module
        for part in class_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if class_path:
            return original, [(owner, attr)]
        owners = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and getattr(mod, attr, None) is original
        ]
        return original, [(mod, attr) for mod in owners]

    def instrument(self, target: str, call=_plain_call) -> bool:
        """Wrap `target` so that each call records a span named after it.

        `call(fn, args, kwargs, span)` runs the original; it may substitute
        arguments or store facts about the call in `span.info`.
        """
        try:
            original, owners = self._owners(target)
        except (ImportError, AttributeError) as exc:
            self.missing.append(target)
            warnings.warn(f"trace target {target} not found ({exc}); its layer "
                          "metrics are reported as absent", stacklevel=2)
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._enter(target)
            try:
                return call(original, args, kwargs, span)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()

        for owner, attr in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return True

    def _enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._children = None
        return span

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading the spans ----------------------------------------------------
    def children(self, index: int) -> list[int]:
        if self._children is None:
            self._children = {}
            for i, span in enumerate(self.spans):
                self._children.setdefault(span.parent, []).append(i)
        return self._children.get(index, [])

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        span = self.spans[index]
        return span.duration - sum(self.spans[c].duration for c in self.children(index))

    def indices(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]

    def ancestor(self, index: int, name: str) -> int | None:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return parent
            parent = self.spans[parent].parent
        return None

    def dump(self, path) -> None:
        """Write every span as one JSON object per line (times in seconds)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "start": span.start - origin, "end": span.end - origin,
                    "self": self.self_time(i),
                    "info": span.info if isinstance(span.info, (int, float, str, dict)) else None,
                }) + "\n")
