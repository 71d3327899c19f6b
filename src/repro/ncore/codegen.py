"""Tier-3 fastpath: ahead-of-time segment codegen with multi-variant dispatch.

Tier 1 (:mod:`repro.ncore.fastpath`) fuses hardware loops at *load* time;
the replay cache (Tier 2) skips byte-identical queries.  This module is
the *compile*-time tier: each kernel segment of a quantized graph is
lowered to one or more vectorized-numpy **macro-kernels** — whole
loop-nests collapsed into a handful of BLAS-backed array operations —
emitted as picklable :class:`MacroKernel` artifacts that the compile
cache stores alongside the Loadable (``repro.compiler.cache`` artifact
kind ``codegen``).

Bit-exactness is the contract: a macro-kernel computes byte-for-byte what
:func:`repro.runtime.qkernels.execute_quantized` computes.  Two levers
make that fast without breaking it:

- **Exact float64 accumulation.**  Quantized conv/FC accumulators are
  bounded by ``max|x - zp| * sum|w - zp|`` which is far below ``2**53``
  for every representable uint8/int16 operand, so an f64 BLAS matmul over
  zero-offset operands is *exactly* the int64 matmul — 10-20x faster.
  The bound is checked per kernel at codegen time; kernels that could
  exceed it keep the int64 path.
- **Multi-variant dispatch** (the PyTorch-Inductor multi-kernel
  pattern): where several lowering strategies exist — a whole-loop-nest
  einsum/tensordot form vs. a fused per-tap row-sweep form — every
  variant is emitted, the :class:`MultiKernelDispatcher` benchmarks them
  once per (segment, input shapes), cross-checks their outputs
  byte-for-byte, and pins the winner; losers never run again.

The per-node reference walk stays on as the oracle: the executor
verifies a macro-kernel's outputs against it on first dispatch
(``oracle="first"``, the default policy), or on every dispatch
(``oracle="always"``).

Only the quantized region is lowered.  A segment that touches the float
region (GNMT's bf16 LSTM/attention graph, the x86-resident float tails,
NMS) raises :class:`UnsupportedSegment` with :data:`FLOAT_REGION_REASON`
and runs on the reference walk, which calls the very kernels a float
macro-kernel would and computes each LSTM chain's sequence projection
once per walk — so a float lowering would duplicate that path without
making it faster.  The one exception is a float32 ``dequantize`` at the
int8 boundary, which lowers to :class:`DequantizeStep`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np
import numpy.typing as npt

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    dequantize,
    dtype_info,
    quantize,
    quantize_multiplier,
    requantize,
    saturate,
)
from repro.graph.gir import Graph, Node
from repro.graph.loadable import NcoreLoadable
from repro.graph.partitioner import Segment
from repro.obs.metrics import get_metrics

Array = npt.NDArray[Any]
Env = dict[str, Array]

#: Artifact kind under which macro-kernel sets live in the compile cache.
CODEGEN_ARTIFACT_KIND = "codegen"

#: Largest integer magnitude float64 represents exactly.
_F64_EXACT_BOUND = 2**53

#: The int32 accumulator clamp the OUT unit applies (qkernels semantics).
_ACC_LO, _ACC_HI = -(2**31), 2**31 - 1

#: Variant strategy names (the lowering families emitted today).
STRATEGY_NEST = "nest"        # whole-loop-nest einsum/tensordot form
STRATEGY_ROWSWEEP = "rowsweep"  # fused per-tap row-sweep accumulation

#: Why a segment touching the float region has no macro-kernel.
FLOAT_REGION_REASON = "float region runs on the reference walk"


def note_stat(stats: dict[str, int], key: str, amount: int = 1) -> None:
    """Bump a codegen statistic and mirror it to ``repro.obs`` metrics."""
    if amount <= 0:
        return
    stats[key] = stats.get(key, 0) + amount
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(f"ncore.codegen.{key}").inc(amount)


class UnsupportedSegment(Exception):
    """Raised at codegen time when a segment has no macro-kernel form."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class CodegenDivergence(AssertionError):
    """A macro-kernel variant disagreed with its oracle (or a sibling
    variant) byte-for-byte — never expected; always a bug."""


# ----------------------------------------------------------------------
# Requantization spec: the OUT-unit datapath with precomputed constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RequantSpec:
    """Precomputed requantization of an int accumulator whose last axis is
    the output channel — per-tensor (one mult/shift) or per-channel
    (per-lane arrays), mirroring :func:`qkernels._requant_output`."""

    zero_point: int
    dtype: NcoreDType
    mult: int = 0
    shift: int = 0
    lane_mults: Array | None = None
    lane_shifts: Array | None = None

    @classmethod
    def build(cls, x_scale: float, w_qp: QuantParams | ChannelQuantParams,
              out_qp: QuantParams) -> "RequantSpec":
        if isinstance(w_qp, ChannelQuantParams):
            pairs = [
                quantize_multiplier(x_scale * scale / out_qp.scale)
                for scale in w_qp.scales
            ]
            return cls(
                zero_point=out_qp.zero_point, dtype=out_qp.dtype,
                lane_mults=np.array([p[0] for p in pairs], dtype=np.int64),
                lane_shifts=np.array([p[1] for p in pairs], dtype=np.int64),
            )
        mult, shift = quantize_multiplier(x_scale * w_qp.scale / out_qp.scale)
        return cls(
            zero_point=out_qp.zero_point, dtype=out_qp.dtype,
            mult=mult, shift=shift,
        )

    def apply(self, acc: Array) -> Array:
        """Requantize a clipped int64 accumulator to the narrow type."""
        acc = np.clip(acc, _ACC_LO, _ACC_HI)
        if self.lane_mults is None or self.lane_shifts is None:
            return requantize(
                acc.astype(np.int32), self.mult, self.shift,
                self.zero_point, self.dtype,
            )
        from repro.ncore.out import requantize_lanes

        channels = acc.shape[-1]
        flat = acc.astype(np.int32).reshape(-1, channels)
        values = requantize_lanes(
            flat,
            np.broadcast_to(self.lane_mults, flat.shape),
            np.broadcast_to(self.lane_shifts, flat.shape),
            np.full(flat.shape, self.zero_point, dtype=np.int64),
            self.dtype,
        )
        return saturate(values.reshape(acc.shape), self.dtype)


def _clamp(values: Array, activation: str, out_qp: QuantParams) -> Array:
    from repro.runtime.qkernels import _activation_clamp

    return np.asarray(
        _activation_clamp(values, activation, out_qp).astype(values.dtype)
    )


def _input_magnitude(qp: QuantParams) -> int:
    """Largest ``|code - zero_point|`` the input dtype can represent."""
    info = dtype_info(qp.dtype)
    return max(
        abs(int(info.min_value) - qp.zero_point),
        abs(int(info.max_value) - qp.zero_point),
    )


def _offset_weights(weights: Array, w_qp: QuantParams | ChannelQuantParams) -> Array:
    from repro.runtime.qkernels import _weight_offsets

    return np.asarray(_weight_offsets(weights, w_qp))


# ----------------------------------------------------------------------
# Steps: one macro-op per graph node, parameters precomputed at codegen
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelStep:
    """One lowered node: reads input names from the environment, writes
    its output name.  Subclasses hold everything precomputable."""

    node: str
    op: str
    inputs: tuple[str, ...]
    output: str

    def run(self, env: Env) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class QuantizeStep(KernelStep):
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))

    def run(self, env: Env) -> None:
        env[self.output] = quantize(env[self.inputs[0]], self.out_qp)


@dataclass(frozen=True)
class DequantizeStep(KernelStep):
    in_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))

    def run(self, env: Env) -> None:
        env[self.output] = dequantize(env[self.inputs[0]], self.in_qp)


@dataclass(frozen=True)
class ConvStep(KernelStep):
    """conv2d / depthwise_conv2d / fully_connected with baked weights.

    ``strategy`` picks the loop-nest collapse; ``exact_f64`` records the
    codegen-time proof that every f64 partial sum stays below 2**53 (the
    int64 path is kept otherwise, still one whole-nest matmul).
    """

    kind: str = "conv2d"
    strategy: str = STRATEGY_NEST
    weights: Array = field(default_factory=lambda: np.zeros(0))
    bias: Array | None = None
    x_zp: int = 0
    stride: tuple[int, int] = (1, 1)
    padding: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))
    activation: str = "none"
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    requant: RequantSpec = field(
        default_factory=lambda: RequantSpec(0, NcoreDType.UINT8, 1 << 30, 0)
    )
    exact_f64: bool = True

    # -- accumulation cores -------------------------------------------

    def _acc_dtype(self) -> type[np.floating[Any]] | type[np.signedinteger[Any]]:
        return np.float64 if self.exact_f64 else np.int64

    def _pad_input(self, x: Array) -> Array:
        (pt, pb), (pl, pr) = self.padding
        return np.asarray(np.pad(
            x.astype(self._acc_dtype()) - self.x_zp,
            ((0, 0), (pt, pb), (pl, pr), (0, 0)),
        ))

    def _conv_nest(self, xq: Array) -> Array:
        kh, kw, _, _ = self.weights.shape
        sh, sw = self.stride
        view = np.lib.stride_tricks.sliding_window_view(xq, (kh, kw), axis=(1, 2))
        view = view[:, ::sh, ::sw]
        # view: (n, oh, ow, cin, kh, kw) x weights (kh, kw, cin, cout)
        return np.asarray(np.tensordot(view, self.weights, axes=([3, 4, 5], [2, 0, 1])))

    def _conv_rowsweep(self, xq: Array) -> Array:
        kh, kw, cin, cout = self.weights.shape
        n, h, w, _ = xq.shape
        sh, sw = self.stride
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        acc = np.zeros((n * oh * ow, cout), dtype=xq.dtype)
        for i in range(kh):
            for j in range(kw):
                patch = xq[:, i: i + oh * sh: sh, j: j + ow * sw: sw, :]
                acc += patch.reshape(-1, cin) @ self.weights[i, j]
        return acc.reshape(n, oh, ow, cout)

    def _depthwise_nest(self, xq: Array) -> Array:
        kh, kw, _ = self.weights.shape
        sh, sw = self.stride
        view = np.lib.stride_tricks.sliding_window_view(xq, (kh, kw), axis=(1, 2))
        view = view[:, ::sh, ::sw]
        # view: (n, oh, ow, c, kh, kw) x weights (kh, kw, c)
        return np.asarray(np.einsum("nhwcij,ijc->nhwc", view, self.weights))

    def _depthwise_rowsweep(self, xq: Array) -> Array:
        kh, kw, c = self.weights.shape
        n, h, w, _ = xq.shape
        sh, sw = self.stride
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        acc = np.zeros((n, oh, ow, c), dtype=xq.dtype)
        for i in range(kh):
            for j in range(kw):
                acc += xq[:, i: i + oh * sh: sh, j: j + ow * sw: sw, :] * self.weights[i, j]
        return acc

    def _accumulate(self, x: Array) -> Array:
        if self.kind == "fully_connected":
            # nest: one f64 BLAS matmul; rowsweep: the int64 reference form.
            if self.strategy == STRATEGY_NEST and self.exact_f64:
                acc = (x.astype(np.float64) - self.x_zp) @ self.weights
            else:
                acc = (x.astype(np.int64) - self.x_zp) @ self.weights.astype(np.int64)
            return np.asarray(acc)
        xq = self._pad_input(x)
        if self.kind == "depthwise_conv2d":
            if self.strategy == STRATEGY_NEST:
                return self._depthwise_nest(xq)
            return self._depthwise_rowsweep(xq)
        if self.strategy == STRATEGY_NEST:
            return self._conv_nest(xq)
        return self._conv_rowsweep(xq)

    def run(self, env: Env) -> None:
        acc = self._accumulate(env[self.inputs[0]]).astype(np.int64)
        if self.bias is not None:
            acc = acc + self.bias
        out = self.requant.apply(acc)
        env[self.output] = _clamp(out, self.activation, self.out_qp)


@dataclass(frozen=True)
class AddStep(KernelStep):
    a_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    b_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    activation: str = "none"

    def run(self, env: Env) -> None:
        from repro.runtime.qkernels import qadd

        env[self.output] = qadd(
            env[self.inputs[0]], self.a_qp, env[self.inputs[1]], self.b_qp,
            self.out_qp, self.activation,
        )


@dataclass(frozen=True)
class PoolStep(KernelStep):
    ksize: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))

    def run(self, env: Env) -> None:
        from repro.runtime.qkernels import qavg_pool, qmax_pool

        fn = qmax_pool if self.op == "max_pool" else qavg_pool
        env[self.output] = fn(env[self.inputs[0]], self.ksize, self.stride, self.padding)


@dataclass(frozen=True)
class MeanStep(KernelStep):
    axis: tuple[int, ...] = (1, 2)
    count: int = 1
    in_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))

    def run(self, env: Env) -> None:
        from repro.runtime.qkernels import qrequant

        acc = np.sum(env[self.inputs[0]].astype(np.int64), axis=self.axis)
        mean_q = (acc + self.count // 2) // self.count
        if self.in_qp == self.out_qp:
            env[self.output] = saturate(mean_q, self.out_qp.dtype)
        else:
            env[self.output] = qrequant(
                saturate(mean_q, self.in_qp.dtype), self.in_qp, self.out_qp
            )


@dataclass(frozen=True)
class ConcatStep(KernelStep):
    in_qps: tuple[QuantParams, ...] = ()
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))
    axis: int = -1

    def run(self, env: Env) -> None:
        from repro.runtime.qkernels import qrequant

        parts = [
            qrequant(env[name], qp, self.out_qp)
            for name, qp in zip(self.inputs, self.in_qps, strict=True)
        ]
        env[self.output] = np.concatenate(parts, axis=self.axis)


@dataclass(frozen=True)
class ActivationStep(KernelStep):
    out_qp: QuantParams = field(default_factory=lambda: QuantParams(1.0, 0))

    def run(self, env: Env) -> None:
        env[self.output] = _clamp(env[self.inputs[0]], self.op, self.out_qp)


@dataclass(frozen=True)
class ReshapeStep(KernelStep):
    shape: tuple[int, ...] = ()

    def run(self, env: Env) -> None:
        env[self.output] = env[self.inputs[0]].reshape(self.shape)


@dataclass(frozen=True)
class IdentityStep(KernelStep):
    def run(self, env: Env) -> None:
        env[self.output] = env[self.inputs[0]]


# ----------------------------------------------------------------------
# The picklable artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelVariant:
    """One lowering of a segment: an ordered step program."""

    strategy: str
    steps: tuple[KernelStep, ...]

    def run(self, env: Env) -> None:
        for step in self.steps:
            step.run(env)


@dataclass(frozen=True)
class MacroKernel:
    """The AOT-compiled form of one kernel segment.

    ``compute_cycles``/``macs`` are the cycle-exact counts recorded from
    the segment's Loadable at codegen time — the executor's timing model
    keeps using the Loadable schedules, so perf reports are byte-identical
    whichever tier executes.
    """

    name: str
    segment_index: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    variants: tuple[KernelVariant, ...]
    compute_cycles: int = 0
    macs: int = 0
    node_count: int = 0

    def strategies(self) -> list[str]:
        return [variant.strategy for variant in self.variants]


@dataclass
class MacroKernelSet:
    """Every macro-kernel of one compiled model, by segment index —
    the ``codegen`` artifact the compile cache stores under the model's
    content key (same fingerprint: graph + weights + NcoreConfig +
    pipeline)."""

    model_name: str
    kernels: dict[int, MacroKernel] = field(default_factory=dict)
    uncovered: dict[int, str] = field(default_factory=dict)

    @property
    def covered_segments(self) -> int:
        return len(self.kernels)

    @property
    def variant_count(self) -> int:
        return sum(len(k.variants) for k in self.kernels.values())

    def get(self, index: int) -> MacroKernel | None:
        return self.kernels.get(index)

    def coverage_fraction(self, total_segments: int | None = None) -> float:
        """Covered fraction of the model's segments (0.0 when empty).

        ``codegen_model`` visits every segment, so covered + uncovered is
        the segment count; pass ``total_segments`` to override."""
        total = (
            total_segments
            if total_segments is not None
            else len(self.kernels) + len(self.uncovered)
        )
        return len(self.kernels) / total if total else 0.0

    def uncovered_reason_counts(self) -> dict[str, int]:
        """Histogram of why segments stayed on the interpreter."""
        counts: dict[str, int] = {}
        for reason in self.uncovered.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Codegen: lower one segment's nodes into step programs
# ----------------------------------------------------------------------


def _qp(graph: Graph, name: str) -> QuantParams:
    qp = graph.tensor(name).quant
    if not isinstance(qp, QuantParams):
        raise UnsupportedSegment(f"tensor {name!r} lacks tensor quant params")
    return qp


def _constant(graph: Graph, name: str) -> Array:
    tensor = graph.tensor(name)
    if not tensor.is_constant:
        raise UnsupportedSegment(f"tensor {name!r} is not a bakeable constant")
    return np.asarray(tensor.data)


def _matmul_steps(graph: Graph, node: Node) -> tuple[ConvStep, ConvStep]:
    """Both variants of a conv2d / depthwise_conv2d / fully_connected."""
    x_qp = _qp(graph, node.inputs[0])
    w_tensor = graph.tensor(node.inputs[1])
    w_qp = w_tensor.quant
    if w_qp is None:
        raise UnsupportedSegment(f"weights {node.inputs[1]!r} lack quant params")
    out_qp = _qp(graph, node.outputs[0])
    weights = _constant(graph, node.inputs[1])
    bias: Array | None = None
    if len(node.inputs) > 2:
        bias = _constant(graph, node.inputs[2]).astype(np.int64)
    wq = _offset_weights(weights, w_qp)
    # f64 exactness proof: the largest |partial sum| any accumulation
    # order can produce is max|x - zp| * sum|w - zp| per output channel.
    magnitude = _input_magnitude(x_qp)
    if node.op == "depthwise_conv2d":
        tap_sum = np.abs(wq).sum(axis=(0, 1)).max() if wq.size else 0
    elif node.op == "fully_connected":
        tap_sum = np.abs(wq).sum(axis=0).max() if wq.size else 0
    else:
        tap_sum = np.abs(wq).sum(axis=(0, 1, 2)).max() if wq.size else 0
    exact = magnitude * int(tap_sum) < _F64_EXACT_BOUND
    common = dict(
        node=node.name, op=node.op, inputs=(node.inputs[0],),
        output=node.outputs[0], kind=node.op,
        weights=wq.astype(np.float64) if exact else wq,
        bias=bias, x_zp=x_qp.zero_point,
        stride=tuple(node.attrs.get("stride", (1, 1))),
        padding=_pad_attr(node),
        activation=node.attrs.get("activation") or "none",
        out_qp=out_qp,
        requant=RequantSpec.build(x_qp.scale, w_qp, out_qp),
        exact_f64=exact,
    )
    return (
        ConvStep(strategy=STRATEGY_NEST, **common),      # type: ignore[arg-type]
        ConvStep(strategy=STRATEGY_ROWSWEEP, **common),  # type: ignore[arg-type]
    )


def _pad_attr(node: Node) -> tuple[tuple[int, int], tuple[int, int]]:
    (pt, pb), (pl, pr) = node.attrs.get("padding", ((0, 0), (0, 0)))
    return ((int(pt), int(pb)), (int(pl), int(pr)))


def _lower_node(graph: Graph, node: Node) -> tuple[KernelStep, ...] | None:
    """The shared (strategy-independent) step for one node, or ``None``
    when the node is a matmul op with per-strategy forms."""
    out_name = node.outputs[0]
    out_tensor = graph.tensor(out_name)
    if out_tensor.quant is None and node.op != "quantize":
        if node.op == "dequantize" and out_tensor.type.dtype is not NcoreDType.BF16:
            return (DequantizeStep(
                in_qp=_qp(graph, node.inputs[0]), node=node.name, op=node.op,
                inputs=tuple(node.inputs), output=out_name,
            ),)
        raise UnsupportedSegment(FLOAT_REGION_REASON)
    if len(node.outputs) != 1:
        raise UnsupportedSegment(f"node {node.name!r} has multiple outputs")
    base = dict(node=node.name, op=node.op, inputs=tuple(node.inputs), output=out_name)
    if node.op == "quantize":
        return (QuantizeStep(out_qp=_qp(graph, out_name), **base),)  # type: ignore[arg-type]
    attrs = node.attrs
    if node.op in ("conv2d", "depthwise_conv2d", "fully_connected"):
        return None  # per-strategy, handled by _matmul_steps
    if node.op == "add":
        return (AddStep(
            a_qp=_qp(graph, node.inputs[0]), b_qp=_qp(graph, node.inputs[1]),
            out_qp=_qp(graph, out_name),
            activation=attrs.get("activation") or "none", **base,  # type: ignore[arg-type]
        ),)
    if node.op in ("max_pool", "avg_pool"):
        return (PoolStep(
            ksize=tuple(attrs["ksize"]), stride=tuple(attrs["stride"]),
            padding=_pad_attr(node), **base,  # type: ignore[arg-type]
        ),)
    if node.op == "mean":
        axis = tuple(attrs.get("axis", (1, 2)))
        shape = graph.tensor(node.inputs[0]).shape
        count = int(np.prod([shape[a] for a in axis]))
        return (MeanStep(
            axis=axis, count=count, in_qp=_qp(graph, node.inputs[0]),
            out_qp=_qp(graph, out_name), **base,  # type: ignore[arg-type]
        ),)
    if node.op == "concat":
        return (ConcatStep(
            in_qps=tuple(_qp(graph, name) for name in node.inputs),
            out_qp=_qp(graph, out_name),
            axis=int(attrs.get("axis", -1)), **base,  # type: ignore[arg-type]
        ),)
    if node.op in ("relu", "relu6"):
        return (ActivationStep(out_qp=_qp(graph, out_name), **base),)  # type: ignore[arg-type]
    if node.op == "reshape":
        return (ReshapeStep(shape=tuple(attrs["shape"]), **base),)  # type: ignore[arg-type]
    if node.op == "identity":
        return (IdentityStep(**base),)  # type: ignore[arg-type]
    raise UnsupportedSegment(f"op {node.op!r} has no macro-kernel form")


def compile_segment(
    graph: Graph,
    segment: Segment,
    index: int,
    name: str,
    loadable: NcoreLoadable | None = None,
) -> MacroKernel:
    """Lower one segment to a :class:`MacroKernel` (all variants).

    Raises :class:`UnsupportedSegment` when any node falls outside the
    quantized-kernel op set — the executor keeps the per-node interpreter
    for such segments, preserving bit-exactness everywhere.
    """
    if not segment.nodes:
        raise UnsupportedSegment("empty segment")
    nest_steps: list[KernelStep] = []
    sweep_steps: list[KernelStep] = []
    multi_variant = False
    for node in segment.nodes:
        shared = _lower_node(graph, node)
        if shared is None:
            nest, sweep = _matmul_steps(graph, node)
            nest_steps.append(nest)
            sweep_steps.append(sweep)
            multi_variant = True
        else:
            nest_steps.extend(shared)
            sweep_steps.extend(shared)
    variants = [KernelVariant(STRATEGY_NEST, tuple(nest_steps))]
    if multi_variant:
        variants.append(KernelVariant(STRATEGY_ROWSWEEP, tuple(sweep_steps)))
    return MacroKernel(
        name=name,
        segment_index=index,
        inputs=tuple(segment.input_tensors(graph)),
        outputs=tuple(segment.output_tensors(graph)),
        variants=tuple(variants),
        compute_cycles=loadable.compute_cycles if loadable is not None else 0,
        macs=sum(k.macs for k in loadable.kernels) if loadable is not None else 0,
        node_count=len(segment.nodes),
    )


def codegen_model(
    graph: Graph,
    segments: Iterable[Segment],
    loadables: dict[int, NcoreLoadable],
    name: str,
    stats: dict[str, int] | None = None,
) -> MacroKernelSet:
    """Lower every supported segment of a partitioned graph.

    Unsupported segments (float regions, x86-only ops like NMS) are
    recorded with their reason; at runtime they fall back to the per-node
    interpreter, so Tier 3 is always whole-graph bit-exact.
    """
    stats = stats if stats is not None else {}
    kset = MacroKernelSet(model_name=name)
    for index, segment in enumerate(segments):
        try:
            kernel = compile_segment(
                graph, segment, index, f"{name}_seg{index}",
                loadable=loadables.get(index),
            )
        except UnsupportedSegment as unsupported:
            kset.uncovered[index] = unsupported.reason
            note_stat(stats, "uncovered_segments")
            continue
        kset.kernels[index] = kernel
        note_stat(stats, "kernels")
        note_stat(stats, "variants", len(kernel.variants))
        note_stat(stats, "steps", sum(len(v.steps) for v in kernel.variants))
    return kset


# ----------------------------------------------------------------------
# Runtime: benchmark-and-pin multi-kernel dispatch
# ----------------------------------------------------------------------

#: Computes a segment's reference outputs from a (read-only) environment.
OracleFn = Callable[[Env], dict[str, Array]]


def _outputs_equal(a: dict[str, Array], b: dict[str, Array]) -> bool:
    for name, value in a.items():
        other = b[name]
        if (
            value.shape != other.shape
            or value.dtype != other.dtype
            or np.asarray(value).tobytes() != np.asarray(other).tobytes()
        ):
            return False
    return True


class MultiKernelDispatcher:
    """Benchmark a macro-kernel's variants once, pin the winner.

    The PyTorch-Inductor multi-kernel pattern: on the first dispatch of a
    (kernel, input-shapes) pair every variant runs on the same inputs,
    their outputs are cross-checked byte-for-byte, wall time picks the
    winner, and only the winner ever runs again.  ``oracle`` controls the
    interpreter differential: ``"first"`` verifies on the benchmark
    dispatch, ``"always"`` on every dispatch, ``"off"`` never.
    """

    def __init__(self, oracle: str = "first") -> None:
        if oracle not in ("off", "first", "always"):
            raise ValueError(f"unknown oracle mode {oracle!r}")
        self.oracle = oracle
        self.stats: dict[str, int] = {}
        #: (kernel name, shape key) -> winning variant index.
        self._winners: dict[tuple[str, tuple[tuple[int, ...], ...]], int] = {}
        #: (kernel name, strategy) -> times that variant actually ran.
        self.variant_runs: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------

    def _shape_key(self, kernel: MacroKernel, env: Env) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(env[name].shape) for name in kernel.inputs)

    def winner_for(self, kernel: MacroKernel, env: Env) -> str | None:
        """The pinned strategy for these input shapes (None = not yet)."""
        index = self._winners.get((kernel.name, self._shape_key(kernel, env)))
        return kernel.variants[index].strategy if index is not None else None

    def _note_run(self, kernel: MacroKernel, variant: KernelVariant) -> None:
        key = (kernel.name, variant.strategy)
        self.variant_runs[key] = self.variant_runs.get(key, 0) + 1

    def _check_oracle(
        self, kernel: MacroKernel, env: Env, outputs: dict[str, Array],
        oracle_fn: OracleFn | None,
    ) -> None:
        if oracle_fn is None:
            return
        note_stat(self.stats, "oracle_checks")
        expected = oracle_fn(env)
        if not _outputs_equal(outputs, expected):
            raise CodegenDivergence(
                f"macro-kernel {kernel.name!r} diverged from the "
                "interpreter oracle"
            )

    # ------------------------------------------------------------------

    def dispatch(
        self, kernel: MacroKernel, env: Env, oracle_fn: OracleFn | None = None
    ) -> None:
        """Run ``kernel`` against ``env`` in place (winner or benchmark)."""
        note_stat(self.stats, "dispatches")
        key = (kernel.name, self._shape_key(kernel, env))
        pinned = self._winners.get(key)
        if pinned is not None:
            variant = kernel.variants[pinned]
            self._note_run(kernel, variant)
            variant.run(env)
            if self.oracle == "always":
                outputs = {name: env[name] for name in kernel.outputs}
                self._check_oracle(kernel, env, outputs, oracle_fn)
            return
        self._winners[key] = self._benchmark(
            kernel, env, oracle_fn if self.oracle != "off" else None
        )

    def _benchmark(
        self, kernel: MacroKernel, env: Env, oracle_fn: OracleFn | None
    ) -> int:
        """First dispatch: time every variant, cross-check, commit winner."""
        note_stat(self.stats, "benchmarks")
        runs: list[tuple[float, Env]] = []
        for variant in kernel.variants:
            scratch = dict(env)
            start = time.perf_counter()
            variant.run(scratch)
            runs.append((time.perf_counter() - start, scratch))
            self._note_run(kernel, variant)
        first = {name: runs[0][1][name] for name in kernel.outputs}
        for seconds, scratch in runs[1:]:
            outputs = {name: scratch[name] for name in kernel.outputs}
            if not _outputs_equal(first, outputs):
                raise CodegenDivergence(
                    f"macro-kernel {kernel.name!r} variants disagree "
                    f"byte-for-byte ({kernel.strategies()})"
                )
        self._check_oracle(kernel, env, first, oracle_fn)
        winner = min(range(len(runs)), key=lambda i: runs[i][0])
        strategy = kernel.variants[winner].strategy
        note_stat(self.stats, f"wins.{strategy}")
        env.update(runs[winner][1])
        return winner


__all__ = [
    "CODEGEN_ARTIFACT_KIND",
    "FLOAT_REGION_REASON",
    "CodegenDivergence",
    "KernelStep",
    "KernelVariant",
    "MacroKernel",
    "MacroKernelSet",
    "MultiKernelDispatcher",
    "RequantSpec",
    "STRATEGY_NEST",
    "STRATEGY_ROWSWEEP",
    "UnsupportedSegment",
    "codegen_model",
    "compile_segment",
    "note_stat",
]
