"""Tier-3 AOT codegen: macro-kernel lowering and multi-variant dispatch.

The contract under test is the one the interpreter oracle enforces in
production: every variant of every macro-kernel must be *byte-identical*
to the per-node quantized interpreter walk, and after the first dispatch
of a (kernel, input-shapes) pair only the winning variant ever runs
again.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.ncore.codegen import (
    CodegenDivergence,
    ConvStep,
    IdentityStep,
    KernelVariant,
    MacroKernel,
    MacroKernelSet,
    MultiKernelDispatcher,
    codegen_model,
)
from repro.quantize import calibrate, quantize_graph
from repro.runtime import InferenceSession, compile_model, execute_quantized

from tests.quantize.test_convert import calibration_batches, small_cnn


def quantized_cnn(seed=11):
    g = small_cnn(seed=seed)
    return quantize_graph(g, calibrate(g, calibration_batches()))


def sample_feeds(seed=3):
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}


@pytest.fixture()
def compiled():
    return compile_graph(quantized_cnn(), cache=None, pipeline="O2")


class TestCodegenModel:
    def test_codegen_covers_the_quantized_segments(self, compiled):
        kernels = compiled.macro_kernels
        assert isinstance(kernels, MacroKernelSet)
        assert kernels.covered_segments >= 1
        # Every segment is either lowered or carries a reason.
        total = len(compiled.model.segments)
        assert kernels.covered_segments + len(kernels.uncovered) == total

    def test_matmul_segments_get_two_variants(self, compiled):
        kernels = compiled.macro_kernels
        multi = [k for k in kernels.kernels.values()
                 if any(s.op in ("conv2d", "depthwise_conv2d",
                                 "fully_connected")
                        for v in k.variants for s in v.steps)]
        assert multi, "expected at least one matmul-bearing macro-kernel"
        for kernel in multi:
            assert sorted(kernel.strategies()) == ["nest", "rowsweep"]

    def test_cycles_come_from_the_loadable(self, compiled):
        model = compiled.model
        for index, kernel in compiled.macro_kernels.kernels.items():
            if index in model.loadables:
                assert kernel.compute_cycles == \
                    model.loadables[index].compute_cycles

    def test_codegen_model_reports_uncovered_reasons(self):
        graph = quantized_cnn()
        model = compile_model(graph, optimize=False, cache=None)
        stats: dict[str, int] = {}
        kernels = codegen_model(
            model.graph, model.segments, model.loadables, "cnn", stats=stats
        )
        assert stats["kernels"] == kernels.covered_segments
        assert stats["variants"] == kernels.variant_count
        for reason in kernels.uncovered.values():
            assert isinstance(reason, str) and reason


class TestBitExactness:
    def test_every_variant_matches_the_interpreter(self, compiled):
        graph = compiled.model.graph
        feeds = sample_feeds()
        expected = execute_quantized(graph, feeds)
        for index, kernel in compiled.macro_kernels.kernels.items():
            segment = compiled.model.segments[index]
            for variant in kernel.variants:
                env = {
                    t.name: np.asarray(t.data)
                    for t in graph.tensors.values() if t.is_constant
                }
                env.update(feeds)
                # Seed the env with everything upstream of this segment.
                from repro.runtime.qkernels import _execute_quantized_node

                interp = dict(env)
                for seg in compiled.model.segments:
                    if seg is segment:
                        break
                    for node in seg.nodes:
                        ins = [interp[n] for n in node.inputs]
                        outs = _execute_quantized_node(graph, node, ins)
                        for name, value in zip(
                            node.outputs, outs, strict=False
                        ):
                            interp[name] = np.asarray(value)
                variant.run(interp)
                for name in kernel.outputs:
                    want = expected.get(name)
                    if want is None:
                        continue
                    got = interp[name]
                    assert got.dtype == np.asarray(want).dtype
                    assert got.tobytes() == np.asarray(want).tobytes(), (
                        f"variant {variant.strategy!r} diverged on {name}"
                    )

    def test_session_outputs_are_byte_identical(self):
        # The default process-wide compile cache holds the codegen
        # artifact, which is how sessions discover the macro-kernels.
        model = compile_model(quantized_cnn(), name="codegen-bitexact")
        feeds = sample_feeds()
        reference = InferenceSession(model, policy="reference")
        tier3 = InferenceSession(model, policy="codegen")
        try:
            want = reference.run(feeds).outputs
            got = tier3.run(feeds).outputs
            again = tier3.run(feeds).outputs  # steady state (pinned winner)
            assert tier3.executor.last_tier == "codegen"
            for name in want:
                w = np.asarray(want[name])
                assert np.asarray(got[name]).tobytes() == w.tobytes()
                assert np.asarray(again[name]).tobytes() == w.tobytes()
                assert np.asarray(got[name]).dtype == w.dtype
        finally:
            reference.close()
            tier3.close()


def _toy_kernel(two_inputs: bool = False) -> MacroKernel:
    """A two-variant identity kernel; variant disagreement is optional."""
    a = KernelVariant("nest", (IdentityStep("n", "identity", ("x",), "y"),))
    source = "x2" if two_inputs else "x"
    b = KernelVariant(
        "rowsweep", (IdentityStep("n", "identity", (source,), "y"),)
    )
    return MacroKernel(
        name="toy", segment_index=0, inputs=("x",), outputs=("y",),
        variants=(a, b),
    )


class TestMultiKernelDispatcher:
    def test_first_dispatch_benchmarks_then_pins_the_winner(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="off")
        env = {"x": np.arange(8, dtype=np.uint8)}
        assert dispatcher.winner_for(kernel, env) is None
        dispatcher.dispatch(kernel, env)
        assert dispatcher.winner_for(kernel, env) in ("nest", "rowsweep")
        assert dispatcher.stats["benchmarks"] == 1
        # Benchmarking ran both variants exactly once.
        assert dispatcher.variant_runs[("toy", "nest")] == 1
        assert dispatcher.variant_runs[("toy", "rowsweep")] == 1

    def test_losers_never_run_again(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="off")
        env = {"x": np.arange(8, dtype=np.uint8)}
        dispatcher.dispatch(kernel, env)
        winner = dispatcher.winner_for(kernel, env)
        loser = "rowsweep" if winner == "nest" else "nest"
        for _ in range(5):
            dispatcher.dispatch(kernel, dict(env))
        assert dispatcher.variant_runs[("toy", winner)] == 6
        assert dispatcher.variant_runs[("toy", loser)] == 1
        assert dispatcher.stats["benchmarks"] == 1
        assert dispatcher.stats["dispatches"] == 6

    def test_new_shape_triggers_a_new_benchmark(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="off")
        dispatcher.dispatch(kernel, {"x": np.arange(8, dtype=np.uint8)})
        dispatcher.dispatch(kernel, {"x": np.arange(16, dtype=np.uint8)})
        assert dispatcher.stats["benchmarks"] == 2

    def test_variant_disagreement_raises(self):
        kernel = _toy_kernel(two_inputs=True)
        dispatcher = MultiKernelDispatcher(oracle="off")
        env = {
            "x": np.arange(8, dtype=np.uint8),
            "x2": np.arange(8, dtype=np.uint8)[::-1].copy(),
        }
        with pytest.raises(CodegenDivergence, match="disagree"):
            dispatcher.dispatch(kernel, env)

    def test_oracle_first_checks_only_the_benchmark_dispatch(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="first")
        env = {"x": np.arange(8, dtype=np.uint8)}
        oracle = lambda e: {"y": e["x"]}  # noqa: E731
        dispatcher.dispatch(kernel, dict(env), oracle_fn=oracle)
        dispatcher.dispatch(kernel, dict(env), oracle_fn=oracle)
        assert dispatcher.stats["oracle_checks"] == 1

    def test_oracle_always_checks_every_dispatch(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="always")
        env = {"x": np.arange(8, dtype=np.uint8)}
        oracle = lambda e: {"y": e["x"]}  # noqa: E731
        for _ in range(3):
            dispatcher.dispatch(kernel, dict(env), oracle_fn=oracle)
        assert dispatcher.stats["oracle_checks"] == 3

    def test_oracle_divergence_raises(self):
        kernel = _toy_kernel()
        dispatcher = MultiKernelDispatcher(oracle="first")
        env = {"x": np.arange(8, dtype=np.uint8)}
        bad_oracle = lambda e: {"y": e["x"] + 1}  # noqa: E731
        with pytest.raises(CodegenDivergence, match="oracle"):
            dispatcher.dispatch(kernel, env, oracle_fn=bad_oracle)

    def test_unknown_oracle_mode_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            MultiKernelDispatcher(oracle="sometimes")


class TestExactF64Bound:
    def test_large_accumulators_fall_back_to_int64(self, compiled):
        # The small CNN is comfortably inside the 2**53 bound, so every
        # conv/fc step should take the f64 BLAS path.
        for kernel in compiled.macro_kernels.kernels.values():
            for variant in kernel.variants:
                for step in variant.steps:
                    if isinstance(step, ConvStep):
                        assert step.exact_f64
                        assert step.weights.dtype == np.float64
