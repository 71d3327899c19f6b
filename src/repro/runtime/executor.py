"""Engine-owned execution: device executor, async sessions, batching.

The original runtime bound everything to one synchronous object — an
``InferenceSession`` owned the device *and* ran exactly one query at a
time.  This module splits that into the pieces a serving system needs:

- :class:`NcoreExecutor` owns the device (driver probe/open, the memory
  mapping, the timing model) and executes one batch at a time.  It
  refuses to load a model whose Loadables fail the ``repro.analyze``
  static verifiers unless constructed with ``verify=False`` — the same
  gate the compiler applies, re-checked at load time because a Loadable
  can reach the runtime without passing through ``compile_model``.
- :class:`EngineExecutor` mounts an executor on a discrete-event engine:
  a dynamic-batching queue (max batch / max wait) feeds the Ncore
  executor while modelled x86 workers handle per-query pre/post work.
- :class:`SessionHandle` is the lightweight client object: ``submit()``
  enqueues a query and returns a ticket, ``poll()`` reports completion.
  Many handles can share one executor — the multi-query serving shape
  the blocking session could not express.

Simulated time throughout: latencies come from the engine clock, never
the wall clock, so every schedule is deterministic.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.engine import BatchQueue, Engine, WorkerPool
from repro.engine.core import Event
from repro.engine.resources import Resource
from repro.graph.loadable import CompiledModel
from repro.graph.partitioner import Segment
from repro.ncore.codegen import (
    CODEGEN_ARTIFACT_KIND,
    MacroKernel,
    MacroKernelSet,
    MultiKernelDispatcher,
)
from repro.obs.attrib import (
    TIER_CODEGEN,
    TIER_REFERENCE,
    TIER_REPLAY,
    get_attrib,
)
from repro.obs.context import TraceContext, mint_trace
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.runtime.driver import NcoreKernelDriver
from repro.runtime.qkernels import _bind_values, _run_nodes
from repro.soc.cha import ChaSoc

#: ``--tier`` spellings accepted by :meth:`TierPolicy.for_tier` and the CLI.
TIER_CHOICES = ("auto", "reference", "codegen")

_ORACLE_MODES = ("off", "first", "always")


@dataclass(frozen=True)
class TierPolicy:
    """Which executor-level paths one executor may use.

    Every query is one walk over the model's partitioned segments; the
    policy decides what may short-circuit or speed up that walk:

    - ``replay``: byte-identical feeds replay cached outputs instead of
      walking at all, from an LRU of ``replay_capacity`` entries.
    - ``codegen``: segments with an AOT macro-kernel from the compile
      cache (:mod:`repro.ncore.codegen`) run through it; the rest, and
      every segment when off, run the per-node reference walk.
    - ``oracle``: differential checking of macro-kernels against the
      reference walk — ``"first"`` verifies each (segment, shape) once
      on its benchmark dispatch (the default), ``"always"`` on every
      dispatch, ``"off"`` never.

    Machine-level paths (the Tier-1 fastpath, the shadow-SRAM sanitizer)
    are set on the machine, not here: the query walk never steps a
    machine.
    """

    replay: bool = True
    replay_capacity: int = 128
    codegen: bool = True
    oracle: str = "first"

    def __post_init__(self) -> None:
        if self.oracle not in _ORACLE_MODES:
            raise ValueError(
                f"oracle must be one of {_ORACLE_MODES}, got {self.oracle!r}"
            )
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be at least 1")

    @classmethod
    def for_tier(cls, tier: str) -> "TierPolicy":
        """The policy that forces one named tier (the ``--tier`` flag)."""
        if tier == "auto":
            return cls()
        if tier == "reference":
            return cls(replay=False, codegen=False)
        if tier == "codegen":
            return cls(replay=False, codegen=True)
        raise ValueError(
            f"unknown tier {tier!r}; choose from {TIER_CHOICES}"
        )


class NcoreExecutor:
    """Owns one socket's Ncore through the kernel driver; runs batches.

    The load-time verification gate: unless ``verify=False``, the model's
    graph and every lowered Loadable are re-checked with the
    ``repro.analyze`` stack and an error-severity finding raises
    :class:`~repro.analyze.AnalysisError` before the device is opened.
    """

    def __init__(
        self,
        model: CompiledModel,
        soc: ChaSoc | None = None,
        owner: str = "ncore-executor",
        verify: bool = True,
        policy: TierPolicy | str | None = None,
        macro_kernels: MacroKernelSet | None = None,
    ) -> None:
        self.model = model
        self.soc = soc or ChaSoc()
        self.policy = self._resolve_policy(policy)
        if verify:
            from repro.analyze import analyze_model, enforce

            with get_tracer().span("executor.verify", track="delegate", model=model.name):
                enforce(
                    analyze_model(model, config=self.soc.ncore.config),
                    context=model.name,
                )
        self.driver = NcoreKernelDriver(self.soc)
        self.driver.probe()
        self.mapping = self.driver.open(owner)
        self._clock = self.soc.ncore.config.clock_hz
        self._dma_bpc = self.soc.ncore_to_dram_bandwidth() / self._clock
        # Replay: repeated queries with identical feeds replay cached
        # output tensors instead of re-running the quantized kernels.
        # Keys bind the segment to the loadable fingerprint (graph +
        # device config), so a different model or config never aliases;
        # timing is recomputed per call (it depends on batch size, not
        # on the cached functional outputs).
        self._replay_cache: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._replay_prefix: str | None = None
        self.replay_stats = {"hits": 0, "misses": 0}
        # Codegen: AOT macro-kernels — passed in explicitly, or recovered
        # from the compile cache under the model's content key.  The
        # dispatcher benchmarks each kernel's variants once per input
        # shape and pins the winner; ``policy.oracle`` controls the
        # reference-walk differential check.
        self._macro_kernels = (
            self._load_macro_kernels(macro_kernels) if self.policy.codegen else None
        )
        self.dispatcher = MultiKernelDispatcher(oracle=self.policy.oracle)
        #: Tier that served the most recent query (attribution label).
        self.last_tier: str | None = None

    @staticmethod
    def _resolve_policy(policy: TierPolicy | str | None) -> TierPolicy:
        """The one place a policy argument becomes a :class:`TierPolicy`."""
        if policy is None:
            return TierPolicy()
        if isinstance(policy, str):
            return TierPolicy.for_tier(policy)
        if isinstance(policy, TierPolicy):
            return policy
        raise TypeError(
            "policy must be a TierPolicy, a tier name or None, "
            f"got {type(policy).__name__}"
        )

    def _load_macro_kernels(
        self, macro_kernels: MacroKernelSet | None
    ) -> MacroKernelSet | None:
        """The codegen artifact: explicit argument, else the compile cache."""
        if macro_kernels is not None:
            return macro_kernels
        info = getattr(self.model, "compile_info", None) or {}
        key = info.get("key")
        if not key:
            return None
        from repro.compiler.cache import get_compile_cache

        cache = get_compile_cache()
        if cache is None:
            return None
        artifact = cache.lookup_artifact(key, CODEGEN_ARTIFACT_KIND)
        return artifact if isinstance(artifact, MacroKernelSet) else None

    @property
    def macro_kernels(self) -> MacroKernelSet | None:
        return self._macro_kernels

    def close(self) -> None:
        self.driver.close(self.mapping)

    # ------------------------------------------------------------------
    # Replay cache
    # ------------------------------------------------------------------

    def _replay_key(self, feeds: dict[str, np.ndarray]) -> str:
        if self._replay_prefix is None:
            from repro.compiler.fingerprint import fingerprint_config, fingerprint_graph

            self._replay_prefix = (
                fingerprint_graph(self.model.graph)
                + ":"
                + fingerprint_config(self.soc.ncore.config)
            )
        digest = hashlib.sha256(self._replay_prefix.encode())
        for name in sorted(feeds):
            array = np.ascontiguousarray(feeds[name])
            digest.update(name.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def _replay_lookup(self, key: str) -> dict[str, np.ndarray] | None:
        cached = self._replay_cache.get(key)
        metrics = get_metrics()
        if cached is None:
            self.replay_stats["misses"] += 1
            if metrics.enabled:
                metrics.counter("ncore.replay.misses").inc()
            return None
        self._replay_cache.move_to_end(key)
        self.replay_stats["hits"] += 1
        if metrics.enabled:
            metrics.counter("ncore.replay.hits").inc()
        return {name: value.copy() for name, value in cached.items()}

    def _replay_store(self, key: str, outputs: dict[str, np.ndarray]) -> None:
        self._replay_cache[key] = {name: value.copy() for name, value in outputs.items()}
        self._replay_cache.move_to_end(key)
        while len(self._replay_cache) > self.policy.replay_capacity:
            self._replay_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # The segment walk (reference, with macro-kernels where compiled)
    # ------------------------------------------------------------------

    def _segment_oracle(self, segment: Segment, kernel: MacroKernel):
        """A closure computing the segment's outputs with the reference
        walk from a read-only environment (the codegen oracle)."""
        graph = self.model.graph

        def oracle(env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            scratch = dict(env)
            _run_nodes(graph, segment.nodes, scratch)
            return {name: scratch[name] for name in kernel.outputs}

        return oracle

    def _walk(self, feeds: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray], int]:
        """One query over the partitioned segments in execution order.

        Segments are maximal contiguous runs covering every node, so this
        is the node order ``execute_quantized`` walks, chunked.  Segments
        with a macro-kernel go through the dispatcher; the rest run per
        node, keeping the whole graph bit-exact regardless of coverage.
        Returns the outputs and how many macro-kernels ran.
        """
        graph = self.model.graph
        values = _bind_values(graph, feeds)
        kernels = self._macro_kernels
        check_oracle = self.policy.oracle != "off"
        dispatched = 0
        for index, segment in enumerate(self.model.segments):
            kernel = kernels.get(index) if kernels is not None else None
            if kernel is None:
                _run_nodes(graph, segment.nodes, values)
                continue
            oracle = (
                self._segment_oracle(segment, kernel) if check_oracle else None
            )
            self.dispatcher.dispatch(kernel, values, oracle)
            dispatched += 1
        return {name: values[name] for name in graph.outputs}, dispatched

    def _run_quantized(
        self, feeds: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], str]:
        """Run one query; returns (outputs, tier).

        A replay hit short-circuits the walk.  Otherwise the tier label
        is what actually served the query: ``codegen`` only when at
        least one macro-kernel ran, else ``reference``.
        """
        key: str | None = None
        if self.policy.replay:
            key = self._replay_key(feeds)
            cached = self._replay_lookup(key)
            if cached is not None:
                self.last_tier = TIER_REPLAY
                return cached, TIER_REPLAY
        outputs, dispatched = self._walk(feeds)
        tier = TIER_CODEGEN if dispatched else TIER_REFERENCE
        if key is not None:
            self._replay_store(key, outputs)
        self.last_tier = tier
        return outputs, tier

    def _attribute(self, tiers: dict[str, int], batch: int) -> None:
        """Feed the cycle-attribution collector, tier-labelled.

        ``tiers`` maps the tier that served each query to its count —
        executed queries land on the tier that ran them (codegen or
        reference); replay hits are labelled ``replay`` so a harvest
        shows the cycles *avoided*.
        """
        attrib = get_attrib()
        if not attrib.enabled:
            return
        for tier, count in tiers.items():
            if count:
                attrib.record_model_run(
                    self.model, tier, batch=batch, count=count,
                    dma_bytes_per_cycle=self._dma_bpc,
                )

    # ------------------------------------------------------------------
    # Timing model (the NKL cycle schedules + the core cost model)
    # ------------------------------------------------------------------

    def ncore_seconds(self) -> float:
        """Ncore portion of one single-batch inference."""
        return self.model.ncore_cycles(self._dma_bpc) / self._clock

    def ncore_seconds_batched(self, batch: int) -> float:
        """Per-item Ncore time with a batch amortizing streamed weights.

        Pinned weights never stream so batching changes nothing for them;
        streamed weights are fetched once per batch while compute scales
        with the batch (the section VI-A arithmetic-intensity argument).
        """
        if batch < 1:
            raise ValueError("batch must be at least 1")
        compute_cycles = 0
        streamed_bytes = 0
        for index in self.model.ncore_segments:
            loadable = self.model.loadables[index]
            compute_cycles += loadable.compute_cycles
            if not loadable.memory_plan.weights_pinned:
                streamed_bytes += loadable.weight_image_bytes
        dma_cycles = streamed_bytes / self._dma_bpc
        total = max(compute_cycles * batch, dma_cycles) + min(compute_cycles, dma_cycles)
        return total / batch / self._clock

    def x86_graph_seconds(self) -> float:
        """x86 portion attributable to non-delegated graph segments."""
        from repro.runtime.delegate import DELEGATE_TRANSITION_SECONDS, _x86_node_cost

        core = self.soc.cores[0]
        metrics = get_metrics()
        total = 0.0
        for index in self.model.x86_segments:
            segment = self.model.segments[index]
            total += DELEGATE_TRANSITION_SECONDS
            if metrics.enabled:
                metrics.counter("delegate.transitions").inc()
            for node in segment.nodes:
                seconds = core.task_seconds(**_x86_node_cost(self.model.graph, node))
                total += seconds
                if metrics.enabled:
                    # Table IX attribution: where the x86 fallback time goes.
                    metrics.counter(
                        f"x86.fallback.{node.op}.cycles", unit="cycles"
                    ).inc(seconds * core.clock_hz)
                    metrics.counter("x86.fallback.seconds", unit="s").inc(seconds)
        return total

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, feeds: dict[str, np.ndarray]):
        """Run one query: functional outputs plus the timing split."""
        from repro.runtime.delegate import RunResult, RunTiming

        outputs, tier = self._run_quantized(feeds)
        self._attribute({tier: 1}, batch=1)
        timing = RunTiming(
            ncore_seconds=self.ncore_seconds(),
            x86_seconds=self.x86_graph_seconds(),
        )
        return RunResult(outputs=outputs, timing=timing)

    def execute_batch(self, batch_feeds: list[dict[str, np.ndarray]]):
        """Run a batch: per-query outputs, batched Ncore amortization."""
        from repro.runtime.delegate import RunResult, RunTiming

        size = len(batch_feeds)
        per_item_ncore = self.ncore_seconds_batched(size)
        x86 = self.x86_graph_seconds()
        results = []
        tiers: dict[str, int] = {}
        for feeds in batch_feeds:
            outputs, tier = self._run_quantized(feeds)
            tiers[tier] = tiers.get(tier, 0) + 1
            results.append(RunResult(
                outputs=outputs,
                timing=RunTiming(ncore_seconds=per_item_ncore, x86_seconds=x86),
            ))
        self._attribute(tiers, batch=size)
        return results


@dataclass
class QueryTicket:
    """One submitted query's lifecycle, stamped in engine time."""

    index: int
    owner: str
    submitted_at: float
    feeds: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    enqueued_at: float | None = None     # entered the batch queue
    batch_started_at: float | None = None
    ncore_done_at: float | None = None
    completed_at: float | None = None
    batch_size: int = 0
    result: object | None = None         # delegate.RunResult once done
    done_event: Event | None = field(repr=False, default=None)
    trace: TraceContext | None = field(repr=False, default=None)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def queue_wait_seconds(self) -> float | None:
        if self.batch_started_at is None or self.enqueued_at is None:
            return None
        return self.batch_started_at - self.enqueued_at


class SessionHandle:
    """A lightweight client of one :class:`EngineExecutor`.

    Replaces the device-owning ``InferenceSession`` for concurrent use:
    holding a handle grants nothing exclusive — submission order across
    all handles decides batching.
    """

    def __init__(self, executor: "EngineExecutor", owner: str) -> None:
        self.executor = executor
        self.owner = owner
        self.tickets: list[QueryTicket] = []

    def submit(self, feeds: dict[str, np.ndarray]) -> QueryTicket:
        ticket = self.executor.submit(feeds, owner=self.owner)
        self.tickets.append(ticket)
        return ticket

    def poll(self, ticket: QueryTicket):
        """The query's result, or None while it is still in flight."""
        return ticket.result if ticket.done else None


class EngineExecutor:
    """An :class:`NcoreExecutor` mounted on a discrete-event engine.

    Queries flow submit -> x86 pre work (worker pool) -> dynamic batch
    queue -> Ncore executor (one batch in flight) -> x86 post work
    (worker pool) -> completion.  Every stage is stamped on the ticket
    and emitted as tracer spans, so a Perfetto trace decomposes latency
    into queue wait vs batch assembly vs Ncore vs x86 time.
    """

    def __init__(
        self,
        engine: Engine,
        executor: NcoreExecutor,
        max_batch: int = 8,
        max_wait: float = 200e-6,
        workers: int = 7,
        pre_seconds: float | None = None,
    ) -> None:
        from repro.runtime.delegate import DELEGATE_TRANSITION_SECONDS

        self.engine = engine
        self.executor = executor
        self.queue = BatchQueue(engine, max_batch=max_batch, max_wait=max_wait,
                                name=f"{executor.model.name}.batch-queue")
        self.pool = WorkerPool(engine, workers=workers)
        self.ncore = Resource(engine, capacity=1, name="ncore-executor")
        # Submit-side framework/buffer-handoff cost, on a worker.
        self.pre_seconds = (
            DELEGATE_TRANSITION_SECONDS if pre_seconds is None else pre_seconds
        )
        self.tickets: list[QueryTicket] = []
        self._dispatcher = engine.process(self._dispatch_loop(), name="ncore-dispatch")

    def session(self, owner: str = "session") -> SessionHandle:
        return SessionHandle(self, owner)

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(self, feeds: dict[str, np.ndarray], owner: str = "anonymous") -> QueryTicket:
        index = len(self.tickets)
        ticket = QueryTicket(
            index=index, owner=owner,
            submitted_at=self.engine.now, feeds=feeds,
            done_event=self.engine.event(),
            # Trace ids are minted from (model, sequence) — deterministic,
            # so a seeded run exports byte-identical trace files.
            trace=(
                mint_trace(self.executor.model.name, index)
                if get_tracer().enabled else None
            ),
        )
        self.tickets.append(ticket)
        self.engine.process(self._query_body(ticket), name=f"query[{ticket.index}]")
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.queries_submitted").inc()
        return ticket

    def poll(self, ticket: QueryTicket):
        return ticket.result if ticket.done else None

    def _query_body(self, ticket: QueryTicket):
        # x86 pre work on the worker pool (framework callback, handoff).
        if self.pre_seconds > 0:
            yield self.pool.submit(self.pre_seconds)
        ticket.enqueued_at = self.engine.now
        self.queue.put(ticket)
        yield ticket.done_event
        return ticket.result

    # ------------------------------------------------------------------
    # Dispatch path (one batch in flight on the Ncore executor)
    # ------------------------------------------------------------------

    def _dispatch_loop(self):
        engine = self.engine
        while True:
            batch = yield self.queue.get()
            tickets: list[QueryTicket] = batch.items
            yield self.ncore.request()
            started = engine.now
            for ticket in tickets:
                ticket.batch_started_at = started
                ticket.batch_size = batch.size
            # Functional execution is eager; timing advances the clock.
            results = self.executor.execute_batch([t.feeds for t in tickets])
            ncore_seconds = (
                self.executor.ncore_seconds_batched(batch.size) * batch.size
            )
            yield engine.timeout(ncore_seconds)
            self.ncore.release()
            ncore_done = engine.now
            engine.trace_span(
                f"batch[{batch.sequence}]", "engine.ncore", started, ncore_done,
                args={"size": batch.size, "reason": batch.reason,
                      "assembly_us": batch.assembly_seconds * 1e6,
                      "trace_ids": [
                          t.trace.trace_id for t in tickets if t.trace is not None
                      ]},
            )
            for ticket, result in zip(tickets, results, strict=True):
                ticket.ncore_done_at = ncore_done
                engine.process(
                    self._postprocess(ticket, result),
                    name=f"post[{ticket.index}]",
                )

    def _postprocess(self, ticket: QueryTicket, result):
        # Per-query x86 post work (non-delegated segments) on the pool.
        x86_seconds = result.timing.x86_seconds
        if x86_seconds > 0:
            yield self.pool.submit(x86_seconds)
        ticket.completed_at = self.engine.now
        ticket.result = result
        self._trace_ticket(ticket)
        metrics = get_metrics()
        if metrics.enabled:
            model = self.executor.model.name
            metrics.counter("engine.queries_completed").inc()
            metrics.histogram("engine.latency_seconds", unit="s").observe(
                ticket.latency_seconds
            )
            # Labelled, windowed view of the same signal: rolling
            # percentiles per model, in engine (simulated) time.
            metrics.windowed_histogram(
                "engine.latency_seconds", unit="s", labels={"model": model}
            ).observe(ticket.latency_seconds, ts=self.engine.now)
        ticket.done_event.succeed(result)

    def _trace_ticket(self, ticket: QueryTicket) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        context = ticket.trace
        if context is not None and ticket.completed_at is not None:
            # Root span of the query's causal tree: submit -> completion.
            self.engine.trace_span(
                f"query[{ticket.index}]", "engine.queries",
                ticket.submitted_at, ticket.completed_at,
                args={"owner": ticket.owner, "batch_size": ticket.batch_size,
                      "model": self.executor.model.name},
                context=context,
            )
        spans = [
            ("pre", ticket.submitted_at, ticket.enqueued_at),
            ("queue.wait", ticket.enqueued_at, ticket.batch_started_at),
            ("ncore", ticket.batch_started_at, ticket.ncore_done_at),
            ("x86.post", ticket.ncore_done_at, ticket.completed_at),
        ]
        for stage, start, end in spans:
            if start is None or end is None:
                continue
            self.engine.trace_span(
                f"query[{ticket.index}].{stage}", "engine.queries", start, end,
                args={"owner": ticket.owner, "batch_size": ticket.batch_size,
                      "stage": stage},
                context=context.child(stage) if context is not None else None,
            )

    # ------------------------------------------------------------------

    def drain(self, max_events: int = 50_000_000) -> None:
        """Flush the open batch and run the engine until all queries finish."""
        self.queue.flush()
        self.engine.run(max_events=max_events)
        while any(not t.done for t in self.tickets):
            self.queue.flush()
            self.engine.run(max_events=max_events)

    def close(self) -> None:
        self.executor.close()
