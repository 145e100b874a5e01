"""Span tracing of miloc's modules, installed from outside the package.

Every public function of the traced modules, and every public method of
their public classes, is replaced by a wrapper that records one span
(name, start, end, parent) per call.  The replacement is made at every
module of the package that holds the same function object, so a name
imported with ``from .scenario import sample_topology`` is traced too.
Spans stay in memory; ``RoundTrace`` turns one round's spans into calls,
self time and total time per span name.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("scenario", "channel", "geometry", "crlb", "pairml", "estimators", "harness")

# Span = (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]
Observer = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    """Wraps callables so that each call leaves a span and optional counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, func, observe: Optional[Observer] = None):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def take_round(self) -> "RoundTrace":
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot close a round while a span is open")
        trace = RoundTrace(list(self.spans), Counter(self.counts))
        self.spans.clear()  # the wrappers hold these very objects
        self.counts.clear()
        return trace


class RoundTrace:
    """Calls, self time and total time per span name for one round."""

    def __init__(self, spans: List[Span], counts: Counter):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, List[float]] = defaultdict(list)
        self.child_calls: Counter = Counter()  # (parent name, child name) -> calls
        self.counts = counts
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child_time[index]
            self.total_s[name].append(duration)
            if parent >= 0:
                self.child_calls[(spans[parent][0], name)] += 1


def _public_members(module):
    """(qualified name, owner, attribute, raw object) of every traced callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{layer}.{attr}", module, attr, obj
        elif (
            inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and not issubclass(obj, BaseException)
        ):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    yield f"{layer}.{attr}.{meth}", obj, meth, raw


def install(tracer: Tracer, observers: Dict[str, Observer], package: str = "miloc"):
    """Wrap the public callables of every layer module; returns an undo list.

    Module-level functions are replaced at every loaded module of the
    package that binds the same object, so ``from`` imports are covered.
    """
    undo = []
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    loaded = [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]
    for module in modules:
        for name, owner, attr, raw in list(_public_members(module)):
            observe = observers.get(name)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__, observe))
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = tracer.wrap(name, raw, observe)
            if owner is module:
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is raw:
                            undo.append((holder, key, raw))
                            setattr(holder, key, wrapped)
            else:
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
    return undo


def uninstall(undo) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
