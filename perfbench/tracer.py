"""In-memory span tracer that wraps dpfedsim's public functions from outside.

A wrapped call records one span: its name, start and end (perf_counter
seconds) and the index of the span that was open when it began, its parent.
Spans stay in memory until the traced run ends.  A span's self time is its
duration minus the time its child spans cover; calls in one thread nest, so
the children of a span never overlap.

dpfedsim modules import functions by name (``from .rng import derive_seed``),
so a wrapper is bound in every dpfedsim module that holds the original
function, not only in the module that defines it.

Only the standard library is used here, so loading the tracer does not load
numpy ahead of ``import dpfedsim``.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import json
import sys
import time
from typing import Callable

# Hooks (counters computed from a call's arguments and result) run inside a
# span of this name, so their cost is charged to the tracer and not to the
# layer whose span encloses them.
HOOK_SPAN = "trace.hooks"


def rebind(original: Callable, replacement: Callable) -> list[tuple[object, str]]:
    """Replace every binding of ``original`` in the loaded dpfedsim modules.

    Returns the (module, attribute) pairs that were changed.
    """
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dpfedsim" and not mod_name.startswith("dpfedsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """A function that calls ``fn`` inside a span named ``name``.

        ``after(args, kwargs, result)`` runs once the span has closed, inside
        a span named HOOK_SPAN.
        """
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
        )
        clock = time.perf_counter

        def open_span(label: str) -> int:
            idx = len(names)
            names.append(label)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if after is not None:
                hook = open_span(HOOK_SPAN)
                try:
                    after(args, kwargs, result)
                finally:
                    close_span(hook)
            return result

        return traced

    def install(self, targets: list[str], hooks: dict[str, Callable]) -> list[str]:
        """Wrap each ``module.function`` of dpfedsim named in ``targets``.

        A target the package no longer has is skipped and returned, so the
        caller can report it; the benchmark counts such a run as failed.
        """
        missing = []
        for target in targets:
            mod_name, _, fn_name = target.rpartition(".")
            module = sys.modules.get(f"dpfedsim.{mod_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if original is None:
                missing.append(target)
                continue
            wrapper = self.wrap(target, original, hooks.get(target))
            for where, attr in rebind(original, wrapper):
                self._restore.append((where, attr, original))
        return missing

    def uninstall(self) -> None:
        """Put every original function back."""
        for where, attr, original in reversed(self._restore):
            setattr(where, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        starts, ends = self.starts, self.ends
        own = [end - start for start, end in zip(starts, ends)]
        for child, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= ends[child] - starts[child]
        return own

    def check_nesting(self) -> None:
        """Raise if a span does not lie inside its parent's interval."""
        starts, ends = self.starts, self.ends
        outside = sum(
            1
            for child, parent in enumerate(self.parents)
            if parent >= 0 and (starts[child] < starts[parent] or ends[child] > ends[parent])
        )
        if outside:
            raise AssertionError(f"{outside} spans end outside their parent")

    def subtree(self, root: int) -> range:
        """Indices of ``root`` and every span it encloses (contiguous in start order)."""
        return range(root, bisect.bisect_right(self.starts, self.ends[root], lo=root))

    def summary(self, spans=None) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds and call count over ``spans`` (default all)."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i in range(len(own)) if spans is None else spans:
            entry = out.setdefault(self.names[i], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += own[i]
            entry["calls"] += 1
        return out

    def write(self, path) -> None:
        """Write every span as gzipped JSON: a name table plus column arrays."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        doc = {
            "names": table,
            "name": [code[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
