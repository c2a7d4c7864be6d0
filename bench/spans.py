"""In-memory span recorder that wraps the program's functions from outside.

A traced run replaces public names at the module bindings the pipeline looks
up at call time (``uxcharge.sim.build_plan`` rather than ``uxcharge.build_plan``
when ``run_scenario`` is the caller) with wrappers that record a span
``(name, start, end, parent)`` or, for hot inner calls where a timer per call
would distort the result, only a count. Nothing under ``src/`` changes; the
originals are put back when the ``patched`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from typing import Callable, Iterator

# (span name, binding) pairs wrapped with a timed span. The auction-stream
# caller looks names up on the package itself, the CLI and run_scenario on
# their own modules, so one layer can appear at two bindings.
SPANS = (
    ("cli.main", "uxcharge.cli.main"),
    ("cli.parse", "uxcharge.cli.parse_scenario_doc"),
    ("cli.serialize", "uxcharge.cli.dumps_canonical"),
    ("sim.run_scenario", "uxcharge.cli.run_scenario"),
    ("sim.validate", "uxcharge.sim.validate_scenario"),
    ("model.validate_offer", "uxcharge.sim.validate_offer"),
    ("shift.feasibility", "uxcharge.sim.is_feasible"),
    ("shift.feasibility", "uxcharge.is_feasible"),
    ("shift.build_plan", "uxcharge.sim.build_plan"),
    ("shift.build_plan", "uxcharge.build_plan"),
    ("adjust.adjust", "uxcharge.sim.adjust_general"),
    ("adjust.adjust", "uxcharge.adjust_general"),
    ("auction.run", "uxcharge.sim.run_first_price"),
    ("auction.run", "uxcharge.sim.run_second_price"),
    ("auction.run", "uxcharge.run_second_price"),
    ("settle.settle", "uxcharge.settle_general"),
    ("sim.enumerate", "uxcharge.sim.enumerate_expected_payment"),
    ("sim.monte_carlo", "uxcharge.sim.monte_carlo_payment"),
)

# (count name, binding) pairs wrapped with a counter only.
COUNTS = (
    ("shift.total_expected_charge", "uxcharge.sim.total_expected_charge"),
    ("shift.total_expected_charge", "uxcharge.shift.total_expected_charge"),
    ("auction.value_at_slot", "uxcharge.auction.value_at_slot"),
)

# Extra counts taken from a spanned call: span name -> (count name, weight).
TALLIES: dict[str, tuple[str, Callable]] = {
    "sim.monte_carlo": ("sim.mc_draws", lambda args, kwargs, result: kwargs["trials"] * len(args[2])),
    "sim.enumerate": ("sim.enumerated_outcomes", lambda args, kwargs, result: 1 << len(args[2])),
    "shift.feasibility": ("shift.feasible", lambda args, kwargs, result: int(result)),
}


class Tracer:
    """Spans and counts since the last ``take``, kept in memory.

    ``spans`` holds ``[name, start, end, parent_index]`` lists; a span's index
    is its position in the list, and a root span has parent -1. ``counts``
    holds the number of calls per span or count name, plus the tallies.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def take(self) -> tuple[list[list], Counter]:
        """Hand over what was recorded so far and start afresh."""
        taken = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return taken

    def span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            self.counts[name] += 1
            if tally is not None:
                self.counts[tally[0]] += tally[1](args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for table, make in ((SPANS, self.span), (COUNTS, self.count)):
                for name, binding in table:
                    module_name, attr = binding.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_times(spans: list[list]) -> tuple[Counter, Counter]:
    """Inclusive and self time per span name, summed over the spans given.

    A span's self time is its duration minus the durations of its direct
    children; the wrappers nest strictly, so children never overlap.
    """
    inclusive: Counter = Counter()
    child_time: Counter = Counter()
    for name, start, end, parent in spans:
        inclusive[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    own: Counter = Counter()
    for index, (name, start, end, _) in enumerate(spans):
        own[name] += (end - start) - child_time[index]
    return inclusive, own
