"""Functional execution of the model zoo (float, quantized, bf16)."""

import numpy as np
import pytest

from repro.graph import execute_float
from repro.graph.passes import default_pipeline
from repro.models import (
    PAPER_CHARACTERISTICS,
    build_gnmt,
    build_mobilenet_v1,
    build_ssd_mobilenet_v1,
)
from repro.quantize import convert_to_bf16


class TestMobileNetExecution:
    def test_small_resolution_forward_pass(self):
        # A reduced-resolution MobileNet exercises every layer cheaply.
        g = build_mobilenet_v1(resolution=64)
        info = PAPER_CHARACTERISTICS["mobilenet_v1"]
        out = execute_float(g, info.sample_input(g))
        probs = list(out.values())[0]
        assert probs.shape == (1, 1001)
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)

    def test_optimization_pipeline_folds_all_batchnorms(self):
        g = build_mobilenet_v1(resolution=64)
        assert g.find_nodes("batch_norm")
        default_pipeline().run(g)
        assert g.find_nodes("batch_norm") == []

    def test_optimized_graph_numerically_equivalent(self):
        g1 = build_mobilenet_v1(resolution=64)
        g2 = build_mobilenet_v1(resolution=64)
        info = PAPER_CHARACTERISTICS["mobilenet_v1"]
        feeds = info.sample_input(g1)
        before = list(execute_float(g1, feeds).values())[0]
        default_pipeline().run(g2)
        after = list(execute_float(g2, feeds).values())[0]
        np.testing.assert_allclose(after, before, rtol=1e-3, atol=1e-5)


class TestSsdExecution:
    def test_detection_outputs(self):
        g = build_ssd_mobilenet_v1()
        info = PAPER_CHARACTERISTICS["ssd_mobilenet_v1"]
        out = execute_float(g, info.sample_input(g))
        assert out["detection_boxes"].shape == (10, 4)
        assert out["detection_scores"].shape == (10,)
        assert out["detection_classes"].shape == (10,)


class TestGnmtExecution:
    def test_tiny_gnmt_forward_pass(self):
        g = build_gnmt(seq_len=4, hidden=32, layers=2, vocab=100)
        feeds = {
            "source_ids": np.array([[1, 2, 3, 4]], np.int32),
            "target_ids": np.array([[0, 1, 2, 3]], np.int32),
        }
        out = execute_float(g, feeds)
        assert out["logits"].shape == (4, 100)

    def test_bf16_conversion_runs(self):
        from repro.runtime import execute_quantized

        g = build_gnmt(seq_len=3, hidden=16, layers=1, vocab=50)
        bg = convert_to_bf16(g)
        feeds = {
            "source_ids": np.array([[1, 2, 3]], np.int32),
            "target_ids": np.array([[0, 1, 2]], np.int32),
        }
        f = execute_float(g, feeds)["logits"]
        b = execute_quantized(bg, feeds)["logits"]
        # bf16 rounding error stays small relative to the logit scale.
        assert np.abs(b - f).max() < 0.05 * max(1e-3, np.abs(f).max())

    def test_each_encoder_layer_is_projected_once_per_query(self, monkeypatch):
        from repro.graph import reference
        from repro.runtime import NcoreExecutor, compile_model, execute_quantized

        layers = 3
        bg = convert_to_bf16(build_gnmt(seq_len=5, hidden=16, layers=layers, vocab=50))
        feeds = {
            "source_ids": np.array([[1, 2, 3, 4, 5]], np.int32),
            "target_ids": np.array([[0, 1, 2, 3, 4]], np.int32),
        }
        executor = NcoreExecutor(compile_model(bg), verify=False, policy="codegen")
        calls = []
        project = reference.lstm_step_project

        def counting(x_seq, wx):
            calls.append(x_seq.shape)
            return project(x_seq, wx)

        monkeypatch.setattr(reference, "lstm_step_project", counting)
        try:
            for walk in (
                lambda: execute_quantized(bg, feeds),
                lambda: executor.execute(feeds),
            ):
                calls.clear()
                walk()
                assert len(calls) == layers
        finally:
            executor.close()
