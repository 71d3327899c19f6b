"""The tentpole invariant: a non-default config compiles lint-clean and
runs bit-correct.

Every layer that used to hard-code the shipped 4096-byte row must now
follow the configured width; these tests compile the same quantized model
at narrow (8-slice), shipped (16-slice), wide (32-slice) and short-SRAM
points, insist the loadable verifier stays clean (compile_graph runs it),
and check the executor output is bit-identical to the reference quantized
executor at every point.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.models import sample_input
from repro.ncore.config import NcoreConfig
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor, execute_quantized
from repro.soc.cha import ChaSoc
from tests.quantize.test_convert import calibration_batches, small_cnn

POINTS = {
    "s8": NcoreConfig(slices=8),
    "s16": NcoreConfig(),
    "s32": NcoreConfig(slices=32),
    "r1024": NcoreConfig(sram_rows=1024),
}


@pytest.fixture(scope="module")
def quantized():
    graph = small_cnn()
    return quantize_graph(graph, calibrate(graph, calibration_batches()))


@pytest.fixture(scope="module")
def feeds(quantized):
    return sample_input(quantized, seed=7)


@pytest.fixture(scope="module")
def compiled(quantized):
    # verify=True (the default): the analyze gate must pass at every point.
    return {
        label: compile_graph(quantized, config=config, name=f"cnn_{label}", cache=None)
        for label, config in POINTS.items()
    }


class TestNonDefaultConfig:
    def test_compile_cache_keys_distinguish_config_points(self, compiled):
        keys = {result.key for result in compiled.values()}
        assert len(keys) == len(POINTS)

    @pytest.mark.parametrize("label", sorted(POINTS))
    def test_executor_matches_reference_bit_exactly(self, compiled, feeds, label):
        config = POINTS[label]
        model = compiled[label].model
        executor = NcoreExecutor(model, soc=ChaSoc(ncore_config=config))
        outputs = executor.execute(feeds).outputs
        reference = execute_quantized(model.graph, feeds)
        for name, expected in reference.items():
            np.testing.assert_array_equal(outputs[name], expected)

    @pytest.mark.parametrize("label", sorted(POINTS))
    def test_kernels_are_lowered_for_the_configured_width(self, compiled, label):
        config = POINTS[label]
        model = compiled[label].model
        for index in model.ncore_segments:
            loadable = model.loadables[index]
            assert loadable.memory_plan.row_bytes == config.row_bytes
            for kernel in loadable.kernels:
                assert kernel.lanes == config.lanes

    def test_wider_machine_never_needs_more_cycles(self, compiled):
        narrow = compiled["s8"].model.ncore_cycles()
        wide = compiled["s32"].model.ncore_cycles()
        assert wide <= narrow

    def test_executor_verify_uses_the_executor_config(self):
        """The verify gate must judge the model against the executor's own
        config, not the shipped default.

        MobileNet at 8 slices with a 4096-row RAM pins ~2100 weight rows —
        legal on that machine, an sram-overflow on the default one.  The
        executor below owns a matching Ncore, so construction must not
        raise (it did when verify always used ``NcoreConfig()``).
        """
        from repro.models import PAPER_CHARACTERISTICS

        quantized = PAPER_CHARACTERISTICS["mobilenet_v1"].deployed_graph(seed=100)
        config = NcoreConfig(slices=8, sram_rows=4096)
        result = compile_graph(quantized, config=config, name="mnv1_tall", cache=None)
        plan = result.model.loadables[result.model.ncore_segments[0]].memory_plan
        assert plan.weight_rows_used > NcoreConfig().sram_rows  # the premise
        executor = NcoreExecutor(result.model, soc=ChaSoc(ncore_config=config))
        assert executor.soc.ncore.config == config
