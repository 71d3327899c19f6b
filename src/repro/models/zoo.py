"""Model registry and the paper's Table V characteristics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.graph.gir import Graph
from repro.models.gnmt import build_gnmt
from repro.models.mobilenet import build_mobilenet_v1
from repro.models.resnet import build_resnet50_v15
from repro.models.ssd import build_ssd_mobilenet_v1


@dataclass(frozen=True)
class ModelInfo:
    """One evaluated benchmark model."""

    key: str
    display: str
    input_type: str           # "image" | "text"
    builder: Callable[..., Graph]
    paper_macs: float          # Table V
    paper_weights: float       # Table V
    paper_macs_per_weight: int

    def build(self, **kwargs: Any) -> Graph:
        return self.builder(**kwargs)

    def sample_input(self, graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
        """A synthetic input batch matching the graph's inputs."""
        return sample_input(graph, seed)

    @property
    def precision(self) -> str:
        """Deployed datatype: GNMT ran in bfloat16, the CNNs in uint8."""
        return "bf16" if self.key == "gnmt" else "uint8"

    def convert(self, graph: Graph, seed: int = 0) -> Graph:
        """Convert a float graph to :attr:`precision`; uint8 PTQ calibrates
        on one ``sample_input(graph, seed)`` batch."""
        from repro.quantize import calibrate, convert_to_bf16, quantize_graph

        if self.precision == "bf16":
            return convert_to_bf16(graph)
        return quantize_graph(graph, calibrate(graph, [sample_input(graph, seed)]))

    def deployed_graph(self, seed: int = 0, **build_kwargs: Any) -> Graph:
        """The graph every zoo entry point compiles (section VI): build,
        GCL-optimize in place, then :meth:`convert`."""
        from repro.compiler import optimize_graph

        return self.convert(
            optimize_graph(self.build(**build_kwargs), in_place=True), seed
        )


def sample_input(graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    """A seeded synthetic input batch: floats uniform in [-1, 1), int32
    token ids below the smallest embedding table (1000 without one)."""
    rng = np.random.default_rng(seed)
    high = 1000
    for node in graph.find_nodes("embedding"):
        high = min(high, graph.tensor(node.inputs[0]).shape[0])
    feeds: dict[str, np.ndarray] = {}
    for name in graph.inputs:
        tensor = graph.tensor(name)
        feeds[name] = (
            rng.integers(0, high, size=tensor.shape).astype(np.int32)
            if tensor.type.dtype == "int32"
            else rng.uniform(-1, 1, size=tensor.shape).astype(np.float32)
        )
    return feeds


PAPER_CHARACTERISTICS: dict[str, ModelInfo] = {
    "mobilenet_v1": ModelInfo(
        key="mobilenet_v1",
        display="MobileNet-V1",
        input_type="image",
        builder=build_mobilenet_v1,
        paper_macs=0.57e9,
        paper_weights=4.2e6,
        paper_macs_per_weight=136,
    ),
    "resnet50_v15": ModelInfo(
        key="resnet50_v15",
        display="ResNet-50-V1.5",
        input_type="image",
        builder=build_resnet50_v15,
        paper_macs=4.1e9,
        paper_weights=26.0e6,
        paper_macs_per_weight=158,
    ),
    "ssd_mobilenet_v1": ModelInfo(
        key="ssd_mobilenet_v1",
        display="SSD-MobileNet-V1",
        input_type="image",
        builder=build_ssd_mobilenet_v1,
        paper_macs=1.2e9,
        paper_weights=6.8e6,
        paper_macs_per_weight=176,
    ),
    "gnmt": ModelInfo(
        key="gnmt",
        display="GNMT",
        input_type="text",
        builder=build_gnmt,
        paper_macs=3.9e9,
        paper_weights=131e6,
        paper_macs_per_weight=30,
    ),
}
