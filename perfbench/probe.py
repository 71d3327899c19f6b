"""Layer spans recorded from outside the program.

The probe wraps public functions of the simulator's modules — each one a
layer boundary — and records one :class:`repro.obs.tracer.Tracer` span per
call.  Spans live in memory on a private tracer (the program's own
instrumentation stays off, so a traced query runs the same code as an
untraced one apart from the wrappers) and are written out when the run
ends.

Wrappers are installed and removed as a unit: an untraced query in a traced
run executes the pristine functions, which is what makes the paired
traced-minus-untraced overhead measurement meaningful.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.context import TraceContext, mint_trace
from repro.obs.tracer import Tracer

#: Track every probe span is recorded on (the exporter groups by track).
TRACK = "perfbench"


def _module_bindings(fn: Callable) -> list[tuple[Any, str]]:
    """Every loaded ``repro`` module attribute bound to ``fn``.

    A function imported with ``from x import fn`` is a separate binding in
    the importer's namespace; callers resolve it there at call time, so
    each binding is patched.
    """
    bindings = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                bindings.append((module, attr))
    return bindings


class Probe:
    """Span recorder for a set of wrapped layer functions.

    ``layer(name, owner, attr)`` registers ``owner.attr`` (a class method
    or a module function, found in every module that imported it) under a
    layer name; ``after`` hooks see each call's arguments and result.
    ``enabled()`` installs the wrappers for a block; ``query()`` opens the
    root span that the layer spans of one request hang from.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.phase = "setup"
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._stack: list[TraceContext] = []
        self._root = mint_trace("perfbench", 0)
        self._next_span = 0
        self._queries = 0

    # ------------------------------------------------------------------

    def layer(
        self,
        name: str,
        owner: Any,
        attr: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrapper(name, original, after)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, wrapper))
            return
        for module, binding in _module_bindings(original):
            self._patches.append((module, binding, original, wrapper))

    def _wrapper(self, name: str, fn: Callable, after) -> Callable:
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe._next_span += 1
            parent = probe._stack[-1] if probe._stack else probe._root
            context = parent.child(f"s{probe._next_span}")
            probe._stack.append(context)
            try:
                with probe.tracer.span(
                    name, track=TRACK, context=context, phase=probe.phase
                ):
                    result = fn(*args, **kwargs)
            finally:
                probe._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def enabled(self, phase: str) -> Iterator[None]:
        """Install every wrapper for the block, labelling spans ``phase``."""
        self.phase = phase
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def query(self, name: str = "query") -> Iterator[None]:
        """Root span of one request; its layer spans share its trace id."""
        self._queries += 1
        root = mint_trace("perfbench", self._queries)
        previous, self._root = self._root, root
        try:
            with self.tracer.span(name, track=TRACK, context=root, phase=self.phase):
                yield
        finally:
            self._root = previous

    # ------------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, layer): self seconds, inclusive seconds of the
        outermost calls, and call count.

        A span's self time is its duration minus the part its child spans
        cover; children of one span never overlap (calls are sequential),
        so the covered part is the sum of their durations.
        """
        children_us: dict[tuple[str, str], float] = defaultdict(float)
        for span in self.tracer.spans:
            if span.parent_id:
                children_us[(span.trace_id, span.parent_id)] += span.duration_us
        names = {
            (span.trace_id, span.span_id): span.name for span in self.tracer.spans
        }
        totals: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0.0}
        )
        for span in self.tracer.spans:
            phase = span.args.get("phase", "")
            entry = totals[(phase, span.name)]
            self_us = span.duration_us - children_us[(span.trace_id, span.span_id)]
            entry["self_s"] += self_us * 1e-6
            entry["calls"] += 1
            # Inclusive time counts only calls not nested in the same layer.
            if names.get((span.trace_id, span.parent_id)) != span.name:
                entry["inclusive_s"] += span.duration_us * 1e-6
        return dict(totals)

    def write(self, path: str) -> int:
        """Write the recorded spans as a Chrome/Perfetto trace file."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self.tracer)
        return len(self.tracer.spans)

