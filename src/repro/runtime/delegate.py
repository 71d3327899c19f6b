"""Delegate integration: compile a graph and run it across Ncore and x86.

Mirrors the paper's execution model (Fig. 8 / Fig. 9): the framework splits
the graph into subgraphs; Ncore subgraphs are compiled through the GCL/NKL
into loadables, x86 subgraphs run on the cores, and the runtime handles the
callbacks between them.

Functional results come from the quantized fast-model kernels (validated
against the instruction-level simulator); timing comes from the NKL cycle
schedules for the Ncore portion and the core cost model for the x86
portion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler import USE_DEFAULT_CACHE, compile_graph
from repro.compiler.cache import CompileCache
from repro.compiler.driver import _UseDefaultCache
from repro.graph.gir import Graph
from repro.graph.loadable import CompiledModel
from repro.ncore.config import NcoreConfig
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.soc.cha import ChaSoc

if TYPE_CHECKING:
    from repro.runtime.executor import TierPolicy

# Fixed software cost of one delegate transition (framework callback,
# buffer handoff): tens of microseconds of interpreter work.
DELEGATE_TRANSITION_SECONDS = 10e-6


def compile_model(
    graph: Graph,
    config: NcoreConfig | None = None,
    optimize: bool = True,
    name: str | None = None,
    verify: bool = True,
    in_place: bool = False,
    cache: CompileCache | None | _UseDefaultCache = USE_DEFAULT_CACHE,
) -> CompiledModel:
    """Run the GCL pipeline, partition, and lower the Ncore segments.

    A thin backwards-compatible facade over
    :func:`repro.compiler.compile_graph`: ``optimize`` selects the ``O2``
    pipeline (``O0`` otherwise), repeat compiles of a byte-identical
    (graph, config, pipeline) are served from the process-wide compile
    cache (pass ``cache=None`` to force a fresh compile), and — unless
    ``in_place=True`` — optimization runs on a private copy so the
    caller's graph is never mutated.

    ``verify`` (the default) gates compilation on the ``repro.analyze``
    static verifiers: the GIR verifier runs over the partitioned graph and
    the Loadable verifier over every lowered segment, raising
    :class:`~repro.analyze.AnalysisError` on error-severity findings so a
    malformed graph or illegal DMA schedule never reaches the runtime.
    """
    with get_tracer().span(
        "delegate.compile", track="delegate", model=name or graph.name
    ) as span:
        result = compile_graph(
            graph,
            config=config,
            pipeline="O2" if optimize else "O0",
            name=name,
            verify=verify,
            in_place=in_place,
            cache=cache,
        )
        model = result.model
        span.set(
            segments=len(model.segments),
            ncore_segments=len(model.ncore_segments),
            x86_segments=len(model.x86_segments),
            cache_hit=result.cache_hit,
        )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("delegate.models_compiled").inc()
            metrics.counter("delegate.partitions.ncore").inc(len(model.ncore_segments))
            metrics.counter("delegate.partitions.x86").inc(len(model.x86_segments))
        return model


@dataclass
class RunTiming:
    """Latency breakdown of one inference (the Table IX decomposition)."""

    ncore_seconds: float
    x86_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.ncore_seconds + self.x86_seconds

    @property
    def ncore_fraction(self) -> float:
        total = self.total_seconds
        return self.ncore_seconds / total if total else 0.0


@dataclass
class RunResult:
    outputs: dict[str, np.ndarray]
    timing: RunTiming


class InferenceSession:
    """The synchronous single-query facade over an executor-owned device.

    Historically this class owned the device and ran exactly one query at
    a time; the device-owning half now lives in
    :class:`repro.runtime.executor.NcoreExecutor` (which the engine-based
    serving path shares), and the session keeps its public surface —
    ``run`` / ``close`` plus the driver/mapping attributes — as a thin
    wrapper for tools and tests that want one blocking inference.
    """

    def __init__(
        self,
        model: CompiledModel,
        soc: ChaSoc | None = None,
        owner: str = "inference-session",
        verify: bool = False,
        policy: TierPolicy | str | None = None,
    ) -> None:
        from repro.runtime.executor import NcoreExecutor

        self.executor = NcoreExecutor(
            model, soc=soc, owner=owner, verify=verify, policy=policy
        )

    @property
    def model(self) -> CompiledModel:
        return self.executor.model

    @property
    def soc(self) -> ChaSoc:
        return self.executor.soc

    @property
    def driver(self):
        return self.executor.driver

    @property
    def mapping(self):
        return self.executor.mapping

    @property
    def _clock(self) -> float:
        return self.executor._clock

    @property
    def _dma_bpc(self) -> float:
        return self.executor._dma_bpc

    def close(self) -> None:
        self.executor.close()

    # ------------------------------------------------------------------

    def ncore_seconds(self) -> float:
        """Ncore portion of one inference, from the NKL schedules."""
        return self.executor.ncore_seconds()

    def x86_graph_seconds(self) -> float:
        """x86 portion attributable to non-delegated graph segments."""
        return self.executor.x86_graph_seconds()

    def trace_schedule(self, tracer=None) -> None:
        """Emit the modelled execution timeline as simulated-time spans.

        One span per segment in execution order — the Fig. 8/9 view of the
        delegate's Ncore/x86 interleaving, with per-kernel child spans for
        the Ncore segments (the NKL cycle schedule).
        """
        tracer = tracer if tracer is not None else get_tracer()
        if not tracer.enabled:
            return
        clock = self._clock
        core = self.soc.cores[0]
        cursor = 0.0  # modelled seconds since inference start
        for index, segment in enumerate(self.model.segments):
            if segment.target == "ncore" and index in self.model.loadables:
                loadable = self.model.loadables[index]
                seconds = loadable.total_cycles(self._dma_bpc) / clock
                tracer.add_span(
                    f"ncore.segment[{index}]", "delegate.schedule",
                    start_us=cursor * 1e6, duration_us=seconds * 1e6,
                    args={"nodes": len(segment.nodes),
                          "cycles": loadable.total_cycles(self._dma_bpc),
                          "weights": "pinned" if loadable.memory_plan.weights_pinned
                          else "streamed"},
                )
                kernel_cursor = cursor
                for kernel in loadable.kernels:
                    kernel_seconds = kernel.cycles / clock
                    tracer.add_span(
                        kernel.kernel, "ncore.kernels",
                        start_us=kernel_cursor * 1e6,
                        duration_us=kernel_seconds * 1e6,
                        args={"node": kernel.node_name, "op": kernel.op,
                              "cycles": kernel.cycles, "macs": kernel.macs},
                    )
                    kernel_cursor += kernel_seconds
                cursor += seconds
            else:
                seconds = DELEGATE_TRANSITION_SECONDS
                for node in segment.nodes:
                    seconds += core.task_seconds(**_x86_node_cost(self.model.graph, node))
                tracer.add_span(
                    f"x86.segment[{index}]", "delegate.schedule",
                    start_us=cursor * 1e6, duration_us=seconds * 1e6,
                    args={"nodes": len(segment.nodes),
                          "ops": sorted({n.op for n in segment.nodes})},
                )
                cursor += seconds

    def run(self, feeds: dict[str, np.ndarray]) -> RunResult:
        """One inference: functional execution plus the timing model."""
        tracer = get_tracer()
        with tracer.span("delegate.run", track="delegate", model=self.model.name) as span:
            with tracer.span("delegate.execute_quantized", track="delegate"):
                # Routed through the executor: a replay hit, or the
                # segment walk (macro-kernels where compiled, else the
                # per-node reference).
                outputs, tier = self.executor._run_quantized(feeds)
                self.executor._attribute({tier: 1}, batch=1)
            timing = RunTiming(
                ncore_seconds=self.ncore_seconds(),
                x86_seconds=self.x86_graph_seconds(),
            )
            span.set(
                ncore_seconds=timing.ncore_seconds,
                x86_seconds=timing.x86_seconds,
                ncore_fraction=timing.ncore_fraction,
            )
        if tracer.enabled:
            self.trace_schedule(tracer)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("delegate.inferences").inc()
            metrics.histogram(
                "delegate.latency_seconds", unit="s"
            ).observe(timing.total_seconds)
        return RunResult(outputs=outputs, timing=timing)


def _x86_node_cost(graph: Graph, node) -> dict:
    """Roofline parameters for one x86-resident node."""
    out_bytes = sum(graph.tensor(n).type.num_bytes for n in node.outputs)
    in_bytes = sum(
        graph.tensor(n).type.num_bytes for n in node.inputs if not graph.tensor(n).is_constant
    )
    if node.op == "nms":
        anchors = graph.tensor(node.inputs[0]).shape[0]
        classes = graph.tensor(node.inputs[1]).shape[-1]
        # Sorting plus pairwise IoU work per class.
        return {"ops": 60.0 * anchors * classes, "bytes_moved": in_bytes + out_bytes}
    if node.op == "softmax":
        elements = graph.tensor(node.outputs[0]).type.num_elements
        return {"ops": 8.0 * elements, "bytes_moved": in_bytes + out_bytes}
    if node.op in ("reshape", "identity", "concat", "pad"):
        return {"bytes_moved": in_bytes + out_bytes}
    if node.op == "embedding":
        return {"bytes_moved": out_bytes}
    # Generic fallback: stream the data once.
    return {"ops": 2.0 * graph.tensor(node.outputs[0]).type.num_elements,
            "bytes_moved": in_bytes + out_bytes}
