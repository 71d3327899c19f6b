"""Simulator throughput measurement: how fast the golden model replays.

The paper's golden model existed to replay full workloads quickly; this
module measures how close the instruction-level simulator gets, with and
without the :mod:`repro.ncore.fastpath` tiers.  It owns the Fig. 6 fused
convolution inner loop used by ``benchmarks/bench_simulator.py`` and the
fastpath CI guard, and records the ``BENCH_simulator.json`` baseline.

Wall-clock numbers here describe the *simulator*, not the modelled
hardware — simulated cycle counts are identical either way (the fastpath
differential tests prove it).
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

from repro.isa import Instruction, assemble
from repro.ncore import Ncore

#: Trip count of the Fig. 6 inner loop used for throughput measurement.
FIG6_ITERATIONS = 512


def fig6_program(iterations: int = FIG6_ITERATIONS) -> list[Instruction]:
    """The Fig. 6 fused convolution inner loop (one MAC issue per trip)."""
    return assemble(
        f"""
        setaddr a0, 0
        setaddr a3, 0
        setaddr a5, 0
        bypass n0, dram[a0]
        loop {iterations} {{
          broadcast64 n1, wtram[a3], a5, inc
          mac.uint8 dlast, n1
          rotl n0, n0, 64
        }}
        halt
        """
    )


def fig6_machine(
    iterations: int = FIG6_ITERATIONS, fastpath: bool | None = None
) -> tuple[Ncore, list[Instruction]]:
    """A machine with deterministic RAM contents plus the Fig. 6 program."""
    machine = Ncore(fastpath=fastpath)
    row_bytes = machine.config.row_bytes
    machine.write_data_ram(0, bytes(np.full(row_bytes, 3, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(row_bytes, 2, np.uint8)))
    return machine, fig6_program(iterations)


def measure_inner_loop(
    iterations: int = FIG6_ITERATIONS,
    repeats: int = 5,
    fastpath: bool = True,
) -> dict[str, float]:
    """Best-of-``repeats`` wall time executing the Fig. 6 inner loop.

    Returns instructions/sec and cycles/sec of *simulated* work per
    second of host wall time — the simulator's replay throughput.
    """
    machine, program = fig6_machine(iterations, fastpath=fastpath)
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        machine.reset()
        start = time.perf_counter()
        result = machine.execute_program(program)
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return {
        "seconds": best,
        "cycles": float(result.cycles),
        "instructions": float(machine.total_instructions),
        "cycles_per_second": result.cycles / best,
        "instructions_per_second": machine.total_instructions / best,
    }


#: Reduced builds that keep the simulator baselines cheap enough for CI
#: while still walking every layer.  Full-size GNMT holds 131 M bf16
#: weights; its reduced build keeps the real topology — unrolled
#: lstm_step encoder, attention decoder, embeddings and the softmax/mean
#: float tails — with a long sequence and a wide hidden state.  ResNet-50
#: and SSD build at full size.
REDUCED_BUILDS: dict[str, dict[str, int]] = {
    "mobilenet_v1": {"resolution": 64},
    "gnmt": {
        "seq_len": 288, "hidden": 512, "layers": 2,
        "vocab": 4096,  # row-bytes-ok: reduced BPE vocab, not a row size
    },
}


def compile_zoo_model(model_key: str = "mobilenet_v1"):
    """O2-compile one zoo model's deployed graph at its
    :data:`REDUCED_BUILDS` size; returns ``(model, calibration feeds)``.

    Compiling at O2 means the Tier-3 ``codegen`` stage runs and the
    macro-kernel artifact lands in the compile cache, so sessions opened
    on the result can use any tier.
    """
    from repro.models import PAPER_CHARACTERISTICS, sample_input
    from repro.runtime.delegate import compile_model

    graph = PAPER_CHARACTERISTICS[model_key].deployed_graph(
        seed=0, **REDUCED_BUILDS.get(model_key, {})
    )
    return compile_model(graph, name=model_key), sample_input(graph, seed=0)


def measure_zoo_end_to_end(
    model_key: str = "mobilenet_v1",
    queries: int = 3,
    tier: str = "auto",
    warmup: int = 0,
) -> dict[str, float]:
    """Wall time for repeated end-to-end quantized inference of one zoo
    model.

    ``tier`` is a :data:`~repro.runtime.TIER_CHOICES` spelling: ``auto``
    (the default policy, replay cache included), ``reference`` or
    ``codegen``.  Pass ``warmup`` > 0 to exclude the first-dispatch
    variant benchmarking and oracle cross-check from the measured window.
    """
    from repro.runtime.delegate import InferenceSession

    model, feeds = compile_zoo_model(model_key)
    session = InferenceSession(model, policy=tier)
    for _ in range(max(0, warmup)):
        session.run(feeds)
    start = time.perf_counter()
    for _ in range(max(1, queries)):
        session.run(feeds)
    elapsed = time.perf_counter() - start
    result = {
        "seconds": elapsed,
        "queries": float(queries),
        "queries_per_second": queries / elapsed,
    }
    if tier == "codegen":
        kset = session.executor.macro_kernels
        total = len(model.segments)
        result["coverage"] = (
            kset.coverage_fraction(total) if kset is not None else 0.0
        )
    session.close()
    return result


#: Executor paths compared by :func:`measure_zoo_tiers` — the ones with
#: distinct end-to-end execution (replay memoizes whole queries, which
#: would measure the cache, not the simulator).
ZOO_TIERS = ("reference", "codegen")


def measure_zoo_tiers(
    model_key: str = "mobilenet_v1",
    queries: int = 3,
    tiers: tuple[str, ...] = ZOO_TIERS,
) -> dict[str, Any]:
    """Steady-state zoo end-to-end throughput at each execution tier.

    One warm-up query per tier (codegen benchmarks its kernel variants
    and runs the reference oracle on first dispatch), then ``queries``
    timed queries.  Returns per-tier timings plus each tier's speedup
    over the reference walk.
    """
    per_tier: dict[str, Any] = {}
    for tier in tiers:
        per_tier[tier] = measure_zoo_end_to_end(
            model_key, queries=queries, tier=tier, warmup=1
        )
    result: dict[str, Any] = {"model": model_key, "tiers": per_tier}
    reference = per_tier.get("reference")
    if reference is not None:
        result["speedups"] = {
            tier: reference["seconds"] / timing["seconds"]
            for tier, timing in per_tier.items()
        }
    return result


#: Models whose per-tier steady-state numbers ``record_baseline`` records.
ZOO_MODELS = ("mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1", "gnmt")


def record_baseline(path: str, zoo_model: str = "mobilenet_v1") -> dict[str, Any]:
    """Measure and write the ``BENCH_simulator.json`` baseline."""
    inner_fast = measure_inner_loop(fastpath=True)
    inner_interp = measure_inner_loop(fastpath=False)
    zoo = measure_zoo_end_to_end(zoo_model)
    baseline: dict[str, Any] = {
        "inner_loop": {
            "iterations": FIG6_ITERATIONS,
            "fastpath": inner_fast,
            "interpreter": inner_interp,
            "speedup": inner_interp["seconds"] / inner_fast["seconds"],
        },
        "zoo_end_to_end": {"model": zoo_model, **zoo},
        "zoo_tiers": {key: measure_zoo_tiers(key) for key in ZOO_MODELS},
    }
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return baseline
