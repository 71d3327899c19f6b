"""Regression guard: codegen must stay well ahead of the per-node
reference walk on end-to-end zoo inference.

MobileNet (the cheapest zoo CNN) measures ~4-5x steady state on an idle
machine; GNMT's bf16 float region ~5-7x (the seqfuse variant computes
each encoder layer's sequence projection once instead of once per step).
Both are guarded at a conservative 3x so CI noise never flakes them,
while any change that quietly drops macro-kernel coverage (an op falling
out of the codegen vocabulary, the sidecar artifact missing from the
cache) still fails loudly.  The digest check keeps the guard honest: the
speed-up only counts if the bytes match the reference walk.
"""

import numpy as np
import pytest

from repro.perf.simbench import compile_zoo_model, measure_zoo_end_to_end
from repro.runtime import InferenceSession

GUARD_SPEEDUP = 3.0
MODELS = ("mobilenet_v1", "gnmt")


@pytest.mark.parametrize("model_key", MODELS)
def test_codegen_bit_exact_with_reference(model_key):
    model, feeds = compile_zoo_model(model_key)
    reference = InferenceSession(model, policy="reference")
    tier3 = InferenceSession(model, policy="codegen")
    try:
        want = reference.run(feeds).outputs
        got = tier3.run(feeds).outputs
        assert reference.executor.last_tier == "reference"
        assert tier3.executor.last_tier == "codegen"
        if model_key == "gnmt":
            kset = tier3.executor.macro_kernels
            assert kset is not None
            assert kset.coverage_fraction(len(model.segments)) > 0.8
        for name in want:
            assert np.asarray(got[name]).tobytes() == \
                np.asarray(want[name]).tobytes()
    finally:
        reference.close()
        tier3.close()


@pytest.mark.parametrize("model_key", MODELS)
def test_codegen_speedup_guard(model_key):
    tier3 = measure_zoo_end_to_end(model_key, queries=3, tier="codegen", warmup=1)
    reference = measure_zoo_end_to_end(
        model_key, queries=3, tier="reference", warmup=1
    )
    if model_key == "gnmt":
        assert tier3.get("coverage", 0.0) > 0.8
    speedup = reference["seconds"] / tier3["seconds"]
    assert speedup >= GUARD_SPEEDUP, (
        f"codegen only {speedup:.1f}x over the reference walk on "
        f"{model_key} (guard {GUARD_SPEEDUP}x) — did macro-kernel "
        "coverage regress?"
    )
