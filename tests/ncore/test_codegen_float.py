"""Tier-3 codegen leaves the bf16 float region to the reference walk.

Codegen lowers only the quantized region.  Every segment that touches
the float region (GNMT's LSTM/attention graph, the x86-resident float
tails) is recorded as uncovered with one reason, the IR dump prints that
reason, and a session serves such a model byte-for-byte like
``execute_quantized``.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import compile_graph
from repro.models import PAPER_CHARACTERISTICS
from repro.ncore.codegen import FLOAT_REGION_REASON
from repro.runtime import NcoreExecutor, execute_quantized


def tiny_gnmt(seq_len=4, hidden=32, layers=2, vocab=100):
    return PAPER_CHARACTERISTICS["gnmt"].deployed_graph(
        seq_len=seq_len, hidden=hidden, layers=layers, vocab=vocab
    )


def gnmt_feeds(graph, seed=7):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 90, size=graph.tensor(name).shape).astype(np.int32)
        for name in graph.inputs
    }


@pytest.fixture(scope="module")
def compiled():
    return compile_graph(tiny_gnmt(), cache=None, pipeline="O2")


class TestFloatCoverage:
    def test_unsupported_float_op_reports_a_reason(self, compiled):
        kset = compiled.macro_kernels
        assert kset.covered_segments == 0
        assert kset.uncovered_reason_counts() == {
            FLOAT_REGION_REASON: len(compiled.model.segments)
        }
        stats = compiled.context.stage_stats("codegen").changes
        assert stats["coverage"] == 0.0
        assert stats["uncovered_segments"] == len(compiled.model.segments)


class TestFloatObservability:
    def test_ir_dump_reports_coverage(self, tmp_path, capsys):
        from repro.graph.frontends import save_graph

        save_graph(tiny_gnmt(), tmp_path / "gnmt")
        assert main([
            "compile", str(tmp_path / "gnmt"), "-O", "O2",
            "--dump-ir=codegen", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "macro-kernels: 0 kernels" in out
        assert f"uncovered: {FLOAT_REGION_REASON}" in out


class TestFloatBitExactness:
    def test_gnmt_matches_the_interpreter_bit_for_bit(self, compiled):
        graph = compiled.model.graph
        feeds = gnmt_feeds(graph)
        want = execute_quantized(graph, feeds)
        executor = NcoreExecutor(
            compiled.model, verify=False, policy="codegen",
            macro_kernels=compiled.macro_kernels,
        )
        try:
            first = executor.execute(feeds).outputs
            steady = executor.execute(feeds).outputs
            assert executor.last_tier == "reference"
            for name, value in want.items():
                expected = np.asarray(value)
                for got in (first, steady):
                    out = np.asarray(got[name])
                    assert out.dtype == expected.dtype, name
                    assert out.tobytes() == expected.tobytes(), name
        finally:
            executor.close()
