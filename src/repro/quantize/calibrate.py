"""Calibration: observe activation ranges on representative batches."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.gir import Graph
from repro.graph.reference import bind_values, run_nodes


@dataclass
class CalibrationResult:
    """Observed (min, max) per activation tensor."""

    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def observe(self, name: str, values: np.ndarray) -> None:
        lo, hi = float(np.min(values)), float(np.max(values))
        if name in self.ranges:
            old_lo, old_hi = self.ranges[name]
            lo, hi = min(lo, old_lo), max(hi, old_hi)
        self.ranges[name] = (lo, hi)

    def range_of(self, name: str) -> tuple[float, float]:
        try:
            return self.ranges[name]
        except KeyError:
            raise KeyError(
                f"tensor {name!r} was never observed during calibration"
            ) from None


def calibrate(graph: Graph, batches: list[dict[str, np.ndarray]]) -> CalibrationResult:
    """Run the float graph over calibration batches, recording every
    activation tensor's dynamic range."""
    if not batches:
        raise ValueError("calibration needs at least one batch")
    result = CalibrationResult()

    def observe(name: str, value: np.ndarray) -> None:
        if np.issubdtype(np.asarray(value).dtype, np.floating):
            result.observe(name, value)

    for feeds in batches:
        values = bind_values(graph, feeds)
        for name in graph.inputs:
            result.observe(name, values[name])
        run_nodes(graph, graph.nodes, values, observe=observe)
    return result
