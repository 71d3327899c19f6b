"""TierPolicy: the two executor paths (reference, codegen) plus replay."""

import warnings

import numpy as np
import pytest

from repro.ncore.codegen import MacroKernelSet
from repro.runtime import (
    TIER_CHOICES,
    InferenceSession,
    NcoreExecutor,
    TierPolicy,
    compile_model,
    execute_quantized,
)
from repro.quantize import calibrate, quantize_graph

from tests.quantize.test_convert import calibration_batches, small_cnn


def quantized_model(name="tier-policy-cnn"):
    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_model(qg, name=name)


def sample_feeds(seed=3):
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}


class TestForTier:
    def test_auto_is_the_default_policy(self):
        assert TierPolicy.for_tier("auto") == TierPolicy()

    def test_reference_disables_everything(self):
        policy = TierPolicy.for_tier("reference")
        assert not policy.replay and not policy.codegen

    def test_codegen_disables_replay(self):
        policy = TierPolicy.for_tier("codegen")
        assert policy.codegen and not policy.replay

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            TierPolicy.for_tier("jit")

    @pytest.mark.parametrize("tier", ["fastpath", "interpreter", "replay", "predict"])
    def test_retired_tiers_rejected(self, tier):
        with pytest.raises(ValueError, match="unknown tier"):
            TierPolicy.for_tier(tier)

    def test_every_choice_resolves(self):
        assert TIER_CHOICES == ("auto", "reference", "codegen")
        for tier in TIER_CHOICES:
            assert isinstance(TierPolicy.for_tier(tier), TierPolicy)

    def test_cli_choices_stay_in_sync(self):
        from repro.cli import _TIER_CHOICES

        assert _TIER_CHOICES == TIER_CHOICES

    def test_retired_fields_rejected(self):
        assert set(TierPolicy.__dataclass_fields__) == {
            "replay", "replay_capacity", "codegen", "oracle",
        }
        for name in ("predict", "fastpath", "sanitize"):
            with pytest.raises(TypeError):
                TierPolicy(**{name: True})

    def test_invalid_oracle_mode_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            TierPolicy(oracle="maybe")

    def test_invalid_replay_capacity_rejected(self):
        with pytest.raises(ValueError, match="replay_capacity"):
            TierPolicy(replay_capacity=0)


class TestCliSurface:
    @pytest.mark.parametrize("tier", ["fastpath", "interpreter", "replay"])
    def test_run_rejects_retired_tiers(self, tier, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mobilenet_v1", "--tier", tier])
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_has_no_tier_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "mobilenet_v1", "--tier", "auto"])
        assert "--tier" in capsys.readouterr().err


class TestDefaultPolicy:
    def test_sessions_pick_up_the_default(self):
        session = InferenceSession(quantized_model())
        try:
            assert session.executor.policy == TierPolicy()
        finally:
            session.close()

    @pytest.mark.parametrize("policy", [True, 1, {"codegen": False}])
    def test_non_policy_rejected(self, policy):
        model = quantized_model()
        with pytest.raises(TypeError, match="policy"):
            NcoreExecutor(model, verify=False, policy=policy)
        with pytest.raises(TypeError, match="policy"):
            InferenceSession(model, policy=policy)


class TestLegacyKwargs:
    """The pre-TierPolicy executor kwargs are gone, not shimmed."""

    def _rejected(self, name, value):
        model = quantized_model()
        with pytest.raises(TypeError, match=name):
            NcoreExecutor(model, verify=False, **{name: value})

    def test_replay_kwarg(self):
        self._rejected("replay", False)
        with pytest.raises(TypeError, match="replay"):
            InferenceSession(quantized_model(), replay=False)

    def test_replay_capacity_kwarg(self):
        self._rejected("replay_capacity", 7)

    def test_fastpath_kwarg(self):
        self._rejected("fastpath", False)

    def test_sanitize_kwarg(self):
        self._rejected("sanitize", True)

    def test_policy_spelling_never_warns(self):
        model = quantized_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ex = NcoreExecutor(
                model, verify=False, policy=TierPolicy(replay=False)
            )
        assert ex.policy.replay is False
        ex.close()


class TestTierSelection:
    def test_last_tier_reflects_the_ladder(self):
        model = quantized_model()
        feeds = sample_feeds()
        session = InferenceSession(model, policy="auto")
        try:
            # auto: replay wins ahead of codegen on a repeat query.
            session.run(feeds)
            first = session.executor.last_tier
            session.run(feeds)
            assert first == "codegen"
            assert session.executor.last_tier == "replay"
        finally:
            session.close()

    def test_reference_tier_never_uses_codegen(self):
        model = quantized_model()
        session = InferenceSession(model, policy="reference")
        try:
            result = session.run(sample_feeds())
            assert session.executor.last_tier == "reference"
            assert session.executor.macro_kernels is None
            assert session.executor.dispatcher.stats.get("dispatches", 0) == 0
            want = execute_quantized(model.graph, sample_feeds())
            for name, value in want.items():
                assert result.outputs[name].tobytes() == value.tobytes()
        finally:
            session.close()

    def test_codegen_tier_reports_codegen(self):
        model = quantized_model()
        session = InferenceSession(model, policy="codegen")
        try:
            session.run(sample_feeds())
            assert session.executor.last_tier == "codegen"
        finally:
            session.close()

    def test_empty_macro_kernel_set_stamps_reference(self):
        model = quantized_model()
        executor = NcoreExecutor(
            model, verify=False, policy="codegen",
            macro_kernels=MacroKernelSet(model_name=model.name),
        )
        try:
            executor.execute(sample_feeds())
            assert executor.macro_kernels is not None
            assert executor.last_tier == "reference"
        finally:
            executor.close()

    def test_string_policy_equals_explicit_policy(self):
        model = quantized_model()
        a = NcoreExecutor(model, verify=False, policy="reference")
        b = NcoreExecutor(
            model, verify=False, policy=TierPolicy.for_tier("reference")
        )
        assert a.policy == b.policy
        a.close()
        b.close()
