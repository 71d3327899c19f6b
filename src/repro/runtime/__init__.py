"""The Ncore runtime: kernel driver model, delegate integration, execution.

Section V-C/D: the runtime provides a high-level abstraction of the
memory-mapped Ncore interface, integrates with the framework's Delegate
interface to run mixed Ncore/x86 graphs, and talks to a kernel-mode driver
that owns the protected settings (DMA windows, power).
"""

from repro.runtime.delegate import InferenceSession, compile_model
from repro.runtime.driver import DriverError, NcoreKernelDriver
from repro.runtime.executor import (
    TIER_CHOICES,
    EngineExecutor,
    NcoreExecutor,
    QueryTicket,
    SessionHandle,
    TierPolicy,
)
from repro.runtime.luts import build_activation_lut, sigmoid_lut, tanh_lut
from repro.runtime.profiler import EventLogOverflowError, Profiler, Trace
from repro.runtime.qkernels import execute_quantized
from repro.runtime.selftest import SelfTestReport, power_on_self_test

__all__ = [
    "DriverError",
    "EngineExecutor",
    "EventLogOverflowError",
    "InferenceSession",
    "NcoreExecutor",
    "NcoreKernelDriver",
    "Profiler",
    "QueryTicket",
    "SessionHandle",
    "SelfTestReport",
    "TIER_CHOICES",
    "TierPolicy",
    "Trace",
    "build_activation_lut",
    "compile_model",
    "execute_quantized",
    "power_on_self_test",
    "sigmoid_lut",
    "tanh_lut",
]
