"""Regression guard: codegen must stay well ahead of the per-node
reference walk on end-to-end zoo inference.

MobileNet (the cheapest zoo CNN, its deployed graph at 64x64) measures
~4-6x steady state (median 5.4x over five runs on a 2-vCPU container),
guarded at a conservative 3x so CI noise never flakes it, while
any change that quietly drops macro-kernel coverage (an op falling out
of the codegen vocabulary, the sidecar artifact missing from the cache)
still fails loudly.  The digest check keeps the guard honest: the
speed-up only counts if the bytes match the reference walk.  Codegen
lowers only the quantized region, so bf16 GNMT has no macro-kernels to
guard: its float region runs on the reference walk under every tier.
"""

import numpy as np
import pytest

from repro.perf.simbench import compile_zoo_model, measure_zoo_end_to_end
from repro.runtime import InferenceSession

GUARD_SPEEDUP = 3.0
MODELS = ("mobilenet_v1",)


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
    speedup = reference["seconds"] / tier3["seconds"]
    assert speedup >= GUARD_SPEEDUP, (
        f"codegen only {speedup:.1f}x over the reference walk on "
        f"{model_key} (guard {GUARD_SPEEDUP}x) — did macro-kernel "
        "coverage regress?"
    )
