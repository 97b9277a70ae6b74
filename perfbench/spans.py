"""A small in-memory span tracer for the benchmark's traced runs.

The tracer instruments the program from the outside: :meth:`Tracer.patch`
routes a function or method -- and every module-level alias of it inside the
``repro`` package -- through a wrapper that records one span per call.  A
span is a list ``[name, start, end, parent, amount, nested]``: ``parent`` is
the index of the enclosing span (``-1`` for a root), ``amount`` is what the
call did (1 by default; a hook can report lanes stepped or bits flipped) and
``nested`` marks a span opened inside another span of the same name.

Spans stay in memory; :func:`summarize` derives per-name call counts,
amounts, inclusive time of the outermost spans and self time (a span's
duration minus the time its direct children cover).  :meth:`Tracer.restore`
undoes every patch, and :meth:`Tracer.unrestored` lists any that did not
come back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, AMOUNT, NESTED = range(6)

#: Package whose modules are scanned for aliases of a patched function.
ALIAS_PACKAGE = "repro"


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Wrappers bind these three containers once, so they are only ever
        # mutated in place.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self._undo: List[tuple] = []
        self._checks: List[Callable[[], bool]] = []

    # ----------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        """Record a span around the ``with`` body; yields the span record."""
        spans, stack, depth = self.spans, self._stack, self._depth
        nested = depth.get(name, 0)
        depth[name] = nested + 1
        record = [name, self.clock(), 0.0, stack[-1] if stack else -1, 1, nested > 0]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield record
        finally:
            record[END] = self.clock()
            stack.pop()
            depth[name] = nested

    def traced(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records a span named ``name``.

        ``before(args)`` runs first and returns a token; ``after(token, args,
        result)`` returns the span's amount.  Both run inside the span.  The
        body repeats :meth:`span` inline: it runs on every traced call.
        """
        spans, stack, depth, clock = self.spans, self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = depth.get(name, 0)
            depth[name] = nested + 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 1, nested > 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    record[AMOUNT] = after(token, args, result)
                return result
            finally:
                record[END] = clock()
                stack.pop()
                depth[name] = nested

        return wrapper

    def drain(self) -> List[list]:
        """Hand over the closed spans recorded so far and forget them."""
        if self._stack:
            raise RuntimeError("cannot drain spans while a span is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans

    # --------------------------------------------------------------- patches
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``owner`` is a module, class or instance that defines ``attr`` itself.
        Static and class methods keep their descriptor type.  A plain function
        is also rebound wherever a ``repro`` module imported it by name (for
        example ``from repro.nn.conv import im2col``), so calls through the
        alias are traced too.
        """
        raw = vars(owner)[attr]
        function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapper = self.traced(function, name, before, after)
        self._set(owner, attr, type(raw)(wrapper) if function is not raw else wrapper)
        if isinstance(function, types.FunctionType):
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is function:
                        self._set(module, key, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._set(owner, attr, value)

    def on_restore(self, undo: Callable[[], None], check: Callable[[], bool]) -> None:
        """Register a custom ``undo`` action and a ``check`` that it worked."""
        self._undo.append((undo, check))

    def _set(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(
            (
                functools.partial(setattr, owner, attr, original),
                functools.partial(_is_bound, owner, attr, original),
            )
        )

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for undo, _check in reversed(self._undo):
            undo()
        self._checks = [check for _undo, check in self._undo]
        self._undo = []

    def unrestored(self) -> int:
        """How many patches undone by the last :meth:`restore` did not hold."""
        return sum(1 for check in self._checks if not check())


def _is_bound(owner, attr: str, original) -> bool:
    return vars(owner).get(attr) is original


def _package_modules() -> List[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == ALIAS_PACKAGE or name.startswith(ALIAS_PACKAGE + "."))
    ]


def summarize(spans: List[list], into: Optional[dict] = None) -> dict:
    """Per-name totals of ``spans``: calls, amount, ``total_s`` and ``self_s``.

    ``calls``, ``amount`` and ``total_s`` count only outermost spans of each
    name, so recursion is not counted twice; ``self_s`` sums every span's
    duration minus the part its direct children cover.  ``into`` accumulates
    onto an existing summary.
    """
    children = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]] += record[END] - record[START]
    totals = into if into is not None else {}
    for index, record in enumerate(spans):
        entry = totals.setdefault(
            record[NAME], {"calls": 0, "amount": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = record[END] - record[START]
        entry["self_s"] += duration - children[index]
        if not record[NESTED]:
            entry["calls"] += 1
            entry["amount"] += record[AMOUNT]
            entry["total_s"] += duration
    return totals
