"""The benchmark's workloads: deployed zoo graphs served as users run them.

Inference workloads prepare a model with the deployed recipe —
``info.build()`` -> ``optimize_graph`` -> ``calibrate`` + ``quantize_graph``
(``convert_to_bf16`` for GNMT) -> O2 ``compile_model`` — and serve it
through ``InferenceSession`` under the default tier policy, closed loop
with one client.  ``server-sim`` runs the MLPerf Server scenario the way
``repro serve`` does.  Every input is derived from the run's seed; the
model itself (including its calibration batch) is the same for every seed.

Timings are host wall seconds around calls into public functions.  A
traced run (``trace=True``) additionally installs :class:`Probe` wrappers
and reports per-layer self times; its steady phase alternates blocks of
traced and untraced queries so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from probe import Probe

#: Cold cycles: each builds a fresh session (or ``BenchmarkSystem``) and
#: serves its first query, which then serves the steady queries until the
#: next cycle.  Host speed drifts over seconds, so the cycles are spread
#: evenly over the run's window, between blocks of steady queries: every
#: metric samples the whole window rather than its start.  Their number:
#: enough for about ``COLD_SHARE`` of the window, within ``MIN_COLD`` and
#: ``MAX_COLD``.
COLD_SHARE = 0.4
MIN_COLD = 3
MAX_COLD = 16
#: Timed set-ups per cold cycle (the last one serves): enough for about
#: ``SETUP_MIN_SECONDS`` per run (cheap set-ups are noisy), at most
#: ``SETUP_MAX_PER_CYCLE``.  ``setup_s`` is their median.
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_PER_CYCLE = 4
#: Steady queries run in blocks of ``BLOCK``, cold cycles only between
#: blocks.  At least ``MIN_BLOCKS`` run even when the window is exhausted
#: earlier (a traced run needs a traced and an untraced one).
BLOCK = 4
MIN_BLOCKS = 2
#: Calibration seed of the deployed recipe (``repro run``'s default).
CALIBRATION_SEED = 0
#: ``server-sim``: simulated queries per ``run_server`` call (eight times
#: the ``repro serve`` default, so that one call is a few tenths of a
#: second of host time) and the armed SLO (MLPerf v0.5's MobileNet Server
#: latency bound).
SERVER_QUERIES = 4096
SERVER_SLO_SECONDS = 10e-3
#: ``ssd-samplepool``: loaded sample-set size (MLPerf v0.5's SSD
#: performance sample count) and the repeat period of the generator (one
#: repeat per steady block).
POOL_SIZE = 256
REPEAT_EVERY = BLOCK

#: Layers timed around calls into public functions, in report order.
QUERY_LAYERS = (
    "runtime.run",
    "codegen.dispatch",
    "dtypes.requantize",
    "qkernels",
    "reference.lstm_cell",
    "reference.lstm_step_project",
    "serving.scenario",
)
SETUP_LAYERS = (
    "models.build",
    "compiler.optimize",
    "quantize.calibrate",
    "quantize.convert",
    "compiler.compile",
)
COMPILER_STAGES = (
    "optimize", "partition", "verify", "plan", "lower", "codegen", "finalize",
)
WIN_STRATEGIES = ("nest", "rowsweep", "seqfuse")


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and a position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs_identical(a: dict[str, Any], b: dict[str, Any]) -> bool:
    if sorted(a) != sorted(b):
        return False
    for name, value in a.items():
        x, y = np.asarray(value), np.asarray(b[name])
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


class Run:
    """Outcome bookkeeping shared by every workload kind."""

    def __init__(self, spec: dict, seed: int, seconds: float, trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.probe = Probe() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_seconds: list[float] = []
        self.first_seconds: list[float] = []
        #: (host seconds, traced?) for every steady query.
        self.steady: list[tuple[float, bool]] = []
        self.stage_seconds: dict[str, float] = {}
        self.engine_events: list[int] = []
        self.layers: dict[str, float] = {}
        self.details: dict[str, Any] = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def attempt(self, fn, *args) -> tuple[Any, float]:
        """One timed query: its result (None if it raised) and host seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failing query is counted; the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    @contextmanager
    def query(self, phase: str, traced: bool) -> Iterator[None]:
        """Scope of one query; a traced one gets the probe's wrappers and a
        root span."""
        if self.probe is None or not traced:
            yield
            return
        with self.probe.enabled(phase), self.probe.query():
            yield

    def serve_window(self, make, first_query, serve, release=None):
        """Cold cycles and steady blocks, spread over ``seconds``.

        A cold cycle sets up ``make()`` (model build until ready to serve)
        one or more times, each timed into ``setup_seconds`` and released
        with ``release(product)`` before the next; the last product serves
        ``first_query(product, traced)`` -> (result, seconds), timed into
        ``first_seconds``, and then the steady blocks until the next cycle.
        Cycle ``k`` of ``n`` is due ``k * seconds / n`` into the window;
        their number and set-ups per cycle are fixed after the first.
        Steady blocks serve ``BLOCK`` queries ``serve(product, query,
        traced)`` -> (ok, seconds) each, numbered from 1 across the run.  A
        traced run alternates traced and untraced blocks (whole blocks, so
        both halves see the same share of sample-pool repeats) and makes
        its last cycle a traced one, whose timings are not kept.  Returns
        the last product, unreleased.
        """
        product = None
        start = time.perf_counter()

        def make_one(traced: bool) -> None:
            nonlocal product
            if product is not None and release is not None:
                release(product)
            product = None
            gc.collect()
            if traced:
                with self.probe.enabled("setup"):
                    product = make()
                return
            began = time.perf_counter()
            product = make()
            self.setup_seconds.append(time.perf_counter() - began)

        def cycle(setups: int, traced: bool) -> None:
            for _ in range(1 if traced else setups):
                make_one(traced)
            result, seconds = first_query(product, traced)
            if result is not None and not traced:
                self.first_seconds.append(seconds)

        cycle(1, False)
        elapsed = time.perf_counter() - start
        cycles = min(MAX_COLD, max(MIN_COLD, round(COLD_SHARE * self.seconds / elapsed)))
        setups = min(SETUP_MAX_PER_CYCLE, max(
            1, math.ceil(SETUP_MIN_SECONDS / (self.setup_seconds[0] * cycles))
        ))
        done, blocks, query = 1, 0, 1
        while True:
            now = time.perf_counter() - start
            if done < cycles and now >= done * self.seconds / cycles:
                cycle(setups, self.probe is not None and done == cycles - 1)
                done += 1
                continue
            if done == cycles and now >= self.seconds and blocks >= MIN_BLOCKS:
                break
            traced = self.probe is not None and blocks % 2 == 0
            for _ in range(BLOCK):
                ok, took = serve(product, query, traced)
                if ok:
                    self.steady.append((took, traced))
                query += 1
            blocks += 1
        return product

    def steady_times(self, traced: bool) -> list[float]:
        return [s for s, t in self.steady if t == traced]

    # -- probe wiring ---------------------------------------------------

    def install_layers(self) -> None:
        """Register every layer boundary the traced run times."""
        import repro.compiler
        import repro.dtypes
        import repro.perf.system  # noqa: F401  (its imported bindings get wrapped)
        import repro.quantize
        from repro.graph import reference
        from repro.models.zoo import ModelInfo
        from repro.ncore.codegen import MultiKernelDispatcher
        from repro.perf.serving import ServerScenario
        from repro.runtime import delegate, qkernels

        probe = self.probe
        assert probe is not None

        def record_stages(_args, result) -> None:
            for stats in result.stats:
                self.stage_seconds[stats.stage] = (
                    self.stage_seconds.get(stats.stage, 0.0) + stats.seconds
                )

        def record_events(args, _result) -> None:
            if probe.phase == "steady":
                self.engine_events.append(args[0].engine.events_dispatched)

        probe.layer("models.build", ModelInfo, "build")
        probe.layer("compiler.optimize", repro.compiler, "optimize_graph")
        probe.layer("quantize.calibrate", repro.quantize, "calibrate")
        probe.layer("quantize.convert", repro.quantize, "quantize_graph")
        probe.layer("quantize.convert", repro.quantize, "convert_to_bf16")
        probe.layer("compiler.compile", repro.compiler, "compile_graph",
                    after=record_stages)
        probe.layer("runtime.run", delegate.InferenceSession, "run")
        probe.layer("codegen.dispatch", MultiKernelDispatcher, "dispatch")
        probe.layer("dtypes.requantize", repro.dtypes, "requantize")
        for kernel in ("qconv2d", "qdepthwise", "qfully_connected", "qadd",
                       "qrequant", "qavg_pool", "qmax_pool"):
            probe.layer("qkernels", qkernels, kernel)
        probe.layer("reference.lstm_cell", reference, "lstm_cell")
        probe.layer("reference.lstm_step_project", reference, "lstm_step_project")
        probe.layer("serving.scenario", ServerScenario, "run", after=record_events)

    # -- metrics --------------------------------------------------------

    def end_to_end(self, sim_queries_per_query: float) -> dict[str, float]:
        steady = self.steady_times(traced=False)
        if not steady or not self.first_seconds:
            raise RuntimeError("no first or no steady query completed")
        qps = len(steady) / sum(steady)
        return {
            "setup_s": statistics.median(self.setup_seconds),
            # The mean: a shared host's speed flips between a fast and a
            # slow state, which moves a median of few samples in steps.
            "first_query_s": statistics.fmean(self.first_seconds),
            "query_p50_s": statistics.median(steady),
            "query_tail_s": float(np.percentile(steady, self.spec["tail_percentile"])),
            "queries_per_s": qps,
            "sim_queries_per_host_s": qps * sim_queries_per_query,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer self times from the probe's spans."""
        probe = self.probe
        assert probe is not None
        totals = probe.self_times()
        traced_steady = self.steady_times(traced=True)
        per_query = max(1, len(traced_steady))
        metrics: dict[str, float] = {}
        for layer in SETUP_LAYERS:
            metrics[f"{layer}_s"] = totals.get(("setup", layer), {}).get("self_s", 0.0)
        for stage in COMPILER_STAGES:
            metrics[f"compiler.stage.{stage}_s"] = self.stage_seconds.get(stage, 0.0)
        for layer in QUERY_LAYERS:
            first = totals.get(("first", layer), {})
            steady = totals.get(("steady", layer), {})
            metrics[f"{layer}_s"] = steady.get("self_s", 0.0) / per_query
            metrics[f"{layer}.calls"] = steady.get("calls", 0.0) / per_query
            metrics[f"{layer}.first_s"] = first.get("self_s", 0.0)
            metrics[f"{layer}.first_calls"] = first.get("calls", 0.0)
        traced_first = totals.get(("first", "query"), {}).get("inclusive_s", 0.0)
        qkernels_first = totals.get(("first", "qkernels"), {}).get("inclusive_s", 0.0)
        requant = totals.get(("steady", "dtypes.requantize"), {}).get("self_s", 0.0)
        metrics["share.first_query.qkernels"] = (
            qkernels_first / traced_first if traced_first else 0.0
        )
        metrics["share.query.requantize"] = (
            requant / sum(traced_steady) if traced_steady else 0.0
        )
        untraced = self.steady_times(traced=False)
        overhead = 0.0
        if traced_steady and untraced:
            overhead = statistics.median(traced_steady) - statistics.median(untraced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = (
            overhead / statistics.median(untraced) if untraced else 0.0
        )
        metrics["trace.spans"] = float(len(probe.tracer.spans))
        events = sum(self.engine_events)
        scenario = totals.get(("steady", "serving.scenario"), {})
        metrics["engine.events"] = events / max(1, len(self.engine_events))
        metrics["engine.events_per_host_s"] = (
            events / scenario["inclusive_s"] if scenario.get("inclusive_s") else 0.0
        )
        metrics.update(self.layers)
        return metrics


# ----------------------------------------------------------------------
# Inference workloads (resnet50-stream, gnmt-stream, ssd-samplepool)
# ----------------------------------------------------------------------


def deployed_session(key: str):
    """The deployed recipe, public functions only; returns the session."""
    from repro.compiler import optimize_graph
    from repro.compiler.cache import CompileCache, install_cache
    from repro.models import PAPER_CHARACTERISTICS
    from repro.quantize import calibrate, convert_to_bf16, quantize_graph
    from repro.runtime import InferenceSession, compile_model

    info = PAPER_CHARACTERISTICS[key]
    # A fresh compile cache per set-up: each one pays what a new process
    # pays, and the session finds its Tier-3 kernels in that cache.
    with install_cache(CompileCache()):
        graph = info.build()
        optimize_graph(graph, in_place=True)
        if key == "gnmt":
            converted = convert_to_bf16(graph)
        else:
            batches = [info.sample_input(graph, seed=CALIBRATION_SEED)]
            converted = quantize_graph(graph, calibrate(graph, batches))
        model = compile_model(converted, name=key)
        return InferenceSession(model)


class SamplePool:
    """LoadGen-style loaded sample set for ``ssd-samplepool``.

    Every session's first query takes sample 0.  Steady query ``q`` takes
    the next unused sample of the pool, except that every
    ``REPEAT_EVERY``-th one redraws, with replacement, a sample already
    issued to the serving session (whose replay cache holds it).  The
    repeat share is therefore fixed by the query counts, so the hit ratio
    does not vary from seed to seed; which samples repeat does.
    """

    def __init__(self, info, seed: int) -> None:
        self.info = info
        self.seed = seed
        self.rng = np.random.default_rng(derived_seed(seed, 1))
        self.issued: list[int] = []
        self.fresh = 1
        self.served = 0
        self.repeats = 0
        self._samples: dict[int, dict[str, np.ndarray]] = {}

    def next(self, graph, query: int) -> tuple[dict[str, np.ndarray], bool]:
        """Feeds for query ``query`` (0: a session's first) and whether it
        repeats a sample."""
        repeat = query > 0 and query % REPEAT_EVERY == 0
        if query == 0:
            self.issued = []
            index = 0
        elif repeat:
            self.repeats += 1
            index = self.issued[int(self.rng.integers(len(self.issued)))]
        else:
            index = self.fresh
            self.fresh += 1
            if index >= POOL_SIZE:
                raise RuntimeError("sample pool exhausted; raise POOL_SIZE")
        self.issued.append(index)
        self.served += 1
        if index not in self._samples:
            self._samples[index] = self.info.sample_input(
                graph, seed=derived_seed(self.seed, 2, index)
            )
        return self._samples[index], repeat


def run_inference(run: Run) -> None:
    from repro.models import PAPER_CHARACTERISTICS
    from repro.runtime.qkernels import execute_quantized

    spec = run.spec
    key = spec["model"]
    info = PAPER_CHARACTERISTICS[key]
    pool = SamplePool(info, run.seed) if spec["kind"] == "samplepool" else None
    if run.probe is not None:
        run.install_layers()

    def feeds_for(graph, query: int) -> tuple[dict[str, np.ndarray], bool]:
        if pool is not None:
            return pool.next(graph, query)
        return info.sample_input(graph, seed=derived_seed(run.seed, 0, query)), False

    checks: list[tuple[int, dict, dict]] = []
    timings: set[tuple[float, float]] = set()
    first: dict[str, dict | None] = {"outputs": None}
    # Counters of every session that served queries, summed at release.
    served = {"sessions": 0, "hits": 0, "misses": 0}
    dispatcher: dict[str, int] = {}
    mixes: list[dict[str, int]] = []

    def outputs_of(result) -> dict[str, np.ndarray]:
        return {name: np.array(value) for name, value in result.outputs.items()}

    def first_query(session, traced: bool):
        # Every session's first query serves sample 0 (query 0's input),
        # so their outputs must agree, traced or not.
        feeds, _repeat = feeds_for(session.model.graph, 0)
        with run.query("first", traced):
            result, seconds = run.attempt(session.run, feeds)
        if result is not None:
            timings.add((result.timing.ncore_seconds, result.timing.x86_seconds))
            outputs = outputs_of(result)
            if first["outputs"] is None:
                first["outputs"] = outputs
            elif not _outputs_identical(first["outputs"], outputs):
                run.failed += 1
                run.fail("first-query outputs differ between sessions")
        return result, seconds

    def serve(session, query: int, traced: bool) -> tuple[bool, float]:
        feeds, repeat = feeds_for(session.model.graph, query)
        with run.query("steady", traced):
            result, seconds = run.attempt(session.run, feeds)
        if result is None:
            return False, seconds
        timings.add((result.timing.ncore_seconds, result.timing.x86_seconds))
        # Checked later: the first steady query, and for the sample pool
        # also the first repeat (served from the replay cache).
        if query == 1 or (repeat and pool.repeats == 1):
            checks.append((query, feeds, outputs_of(result)))
        return True, seconds

    def release(session) -> None:
        stats = session.executor.replay_stats
        if stats["hits"] + stats["misses"]:
            served["sessions"] += 1
            served["hits"] += stats["hits"]
            served["misses"] += stats["misses"]
            counters = session.executor.dispatcher.stats
            for name, value in counters.items():
                dispatcher[name] = dispatcher.get(name, 0) + value
            mixes.append({s: counters.get(f"wins.{s}", 0) for s in WIN_STRATEGIES})
        session.close()

    session = run.serve_window(lambda: deployed_session(key), first_query, serve, release)
    model = session.model

    # Output check, outside the timed window: the public reference walk
    # must reproduce what the sessions returned, bit for bit.  Every
    # session compiles the same graph (their first queries agree).
    for index, feeds, outputs in checks:
        expected = execute_quantized(model.graph, feeds)
        if not _outputs_identical(outputs, expected):
            run.failed += 1
            run.fail(f"query {index}: outputs differ from execute_quantized")
    if len(checks) < (2 if pool is not None else 1):
        run.fail("output check could not run (a checked query failed)")
    # The timing model depends on the graph, not the data: every query,
    # traced or not, must report the same simulated latency.
    if len(timings) > 1:
        run.failed += 1
        run.fail(f"simulated timing differs between queries: {sorted(timings)}")

    kernels = session.executor.macro_kernels
    clock = session.soc.ncore.config.clock_hz
    release(session)
    hits, misses = served["hits"], served["misses"]
    if pool is None and hits:
        run.fail(f"stream workload served {hits} replay hits; it must bypass the cache")
    total = hits + misses  # queries the sessions served
    # The generator predicts a hit for each repeat (a session's replay
    # cache holds more entries than the session is issued samples).
    predicted = pool.repeats / pool.served if pool is not None else 0.0
    sessions = max(1, served["sessions"])
    timing_ncore, timing_x86 = next(iter(timings)) if timings else (0.0, 0.0)
    latency = timing_ncore + timing_x86
    run.layers.update({
        "compiler.segments": float(len(model.segments)),
        "compiler.codegen_coverage": (
            kernels.coverage_fraction(len(model.segments)) if kernels is not None else 0.0
        ),
        "codegen.dispatches": dispatcher.get("dispatches", 0) / max(1, total),
        "codegen.benchmarks": dispatcher.get("benchmarks", 0) / sessions,
        "codegen.oracle_checks": dispatcher.get("oracle_checks", 0) / sessions,
        **{f"codegen.wins.{s}": float(dispatcher.get(f"wins.{s}", 0)) for s in WIN_STRATEGIES},
        "runtime.replay.hits": float(hits),
        "runtime.replay.misses": float(misses),
        "runtime.replay.hit_ratio": hits / total if total else 0.0,
        "runtime.replay.predicted_hit_ratio": predicted,
        "sim.latency_us": latency * 1e6,
        "sim.ncore_fraction": timing_ncore / latency if latency else 0.0,
        "sim.ncore_cycles": float(round(timing_ncore * clock)),
        "serving.sim_p99_ms": 0.0,
        "serving.sim_sustained_qps": 0.0,
        "serving.mean_batch_size": 0.0,
    })
    run.details.update({
        "steady_queries": len(run.steady),
        "serving_sessions": served["sessions"],
        "checked_queries": [index for index, _feeds, _outputs in checks],
        "replay": {"hits": hits, "misses": misses,
                   "measured_hit_ratio": run.layers["runtime.replay.hit_ratio"],
                   "predicted_hit_ratio": predicted},
        "codegen_wins": {s: dispatcher.get(f"wins.{s}", 0) for s in WIN_STRATEGIES},
        "codegen_wins_per_session": mixes,
    })


# ----------------------------------------------------------------------
# server-sim
# ----------------------------------------------------------------------


def _server_summary(result) -> tuple:
    return (
        result.p50_latency_seconds, result.p90_latency_seconds,
        result.p99_latency_seconds, result.sustained_qps, result.mean_batch_size,
        result.latencies_seconds.tobytes(),
        None if result.slo is None else result.slo["attainment"],
    )


def run_server_sim(run: Run) -> None:
    from repro.compiler.cache import CompileCache, install_cache
    from repro.perf.serving import run_server
    from repro.perf.system import BenchmarkSystem

    key = run.spec["model"]
    if run.probe is not None:
        run.install_layers()

    def make_system():
        with install_cache(CompileCache()):
            return BenchmarkSystem(key)

    def scenario(system, call: int):
        # ``repro serve`` defaults: default QPS, batch 8, 200 us wait, 8 cores.
        return run_server(
            system, queries=SERVER_QUERIES, seed=derived_seed(run.seed, 3, call),
            slo_latency_seconds=SERVER_SLO_SECONDS,
        )

    firsts = []

    def first_query(system, traced: bool):
        with run.query("first", traced):
            result, seconds = run.attempt(scenario, system, 0)
        if result is not None:
            firsts.append(result)
        return result, seconds

    def serve(system, call: int, traced: bool) -> tuple[bool, float]:
        with run.query("steady", traced):
            result, seconds = run.attempt(scenario, system, call)
        return result is not None, seconds

    system = run.serve_window(make_system, first_query, serve)

    # Output check: the scenario is deterministic per seed, so every fresh
    # system's first call (same seed; traced or not) must agree exactly.
    if not firsts or any(_server_summary(r) != _server_summary(firsts[0]) for r in firsts):
        run.failed += 1
        run.fail("server scenario is not reproducible for its seed")
    first = firsts[-1] if firsts else None
    latency = system.single_stream_latency_seconds()
    ncore = system.ncore_seconds()
    run.layers.update({
        "compiler.segments": float(len(system.compiled.segments)),
        "compiler.codegen_coverage": 0.0,
        "codegen.dispatches": 0.0,
        "codegen.benchmarks": 0.0,
        "codegen.oracle_checks": 0.0,
        **{f"codegen.wins.{s}": 0.0 for s in WIN_STRATEGIES},
        "runtime.replay.hits": 0.0,
        "runtime.replay.misses": 0.0,
        "runtime.replay.hit_ratio": 0.0,
        "runtime.replay.predicted_hit_ratio": 0.0,
        "sim.latency_us": latency * 1e6,
        "sim.ncore_fraction": ncore / latency if latency else 0.0,
        "sim.ncore_cycles": float(round(ncore * system.config.clock_hz)),
        "serving.sim_p99_ms": first.p99_latency_ms if first else 0.0,
        "serving.sim_sustained_qps": first.sustained_qps if first else 0.0,
        "serving.mean_batch_size": first.mean_batch_size if first else 0.0,
    })
    run.details.update({
        "steady_queries": len(run.steady),
        "simulated_queries_per_call": SERVER_QUERIES,
        "slo_attainment": None if first is None or first.slo is None
        else first.slo["attainment"],
    })


RUNNERS = {
    "stream": (run_inference, 1.0),
    "samplepool": (run_inference, 1.0),
    "server": (run_server_sim, float(SERVER_QUERIES)),
}


def run_workload(spec: dict, seed: int, seconds: float, trace: bool) -> Run:
    runner, sim_per_query = RUNNERS[spec["kind"]]
    run = Run(spec, seed, seconds, trace)
    runner(run)
    run.details["samples"] = {"setup_s": run.setup_seconds,
                              "first_query_s": run.first_seconds,
                              "steady_s": run.steady_times(traced=False)}
    run.details["end_to_end"] = run.end_to_end(sim_per_query)
    return run
