"""No source module references removed spellings.

The machine-level ``RunResult`` was renamed ``MachineRunResult`` and its
warn-once module alias is gone; the runtime tier ladder collapsed to the
``reference`` and ``codegen`` paths, dropping the fastpath/interpreter
labels, the process-wide default policy, the legacy executor kwargs and
the reserved ``predict`` tier; the float-region codegen family and its
``seqfuse`` variant were deleted once the reference walk projected each
LSTM sequence once.  These tests grep the source tree so a
stray reference (or a reintroduced shim) fails loudly rather than
resurrecting the old name.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to say ``RunResult`` because they define or consume the
#: *runtime-level* result type (``repro.runtime.delegate.RunResult``),
#: which was never deprecated.
_RUNTIME_RESULT_FILES = {
    SRC / "runtime" / "delegate.py",
    SRC / "runtime" / "executor.py",
}


def _source_files():
    return sorted(SRC.rglob("*.py"))


def test_no_machine_level_runresult_references():
    pattern = re.compile(r"\bRunResult\b")
    offenders = []
    for path in _source_files():
        if path in _RUNTIME_RESULT_FILES:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line) and "MachineRunResult" not in line:
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, (
        "machine-level 'RunResult' spelling resurfaced:\n"
        + "\n".join(offenders)
    )


def test_no_module_getattr_shim_in_machine():
    text = (SRC / "ncore" / "machine.py").read_text()
    assert "__getattr__" not in text
    assert "RunResult =" not in text


def test_machine_module_has_no_alias_attribute():
    import repro.ncore.machine as machine_module

    assert not hasattr(machine_module, "RunResult")
    assert hasattr(machine_module, "MachineRunResult")


#: Names deleted when the executor tier ladder collapsed to two paths.
_RETIRED_TIER_NAMES = (
    "TIER_FASTPATH",
    "TIER_INTERPRETER",
    "_warn_legacy_kwarg",
    "_legacy_warned",
    "set_default_tier_policy",
    "get_default_tier_policy",
)


def test_no_retired_tier_names():
    pattern = re.compile(r"\b(" + "|".join(_RETIRED_TIER_NAMES) + r")\b")
    offenders = [
        f"{path}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not offenders, (
        "retired tier-ladder name resurfaced:\n" + "\n".join(offenders)
    )


def test_no_predict_tier_in_runtime():
    offenders = [
        str(path)
        for path in sorted((SRC / "runtime").rglob("*.py"))
        if "predict" in path.read_text()
    ]
    assert not offenders, f"'predict' resurfaced in the runtime: {offenders}"


#: Names deleted with the float-region codegen lowering family.
_DELETED_FLOAT_CODEGEN_NAMES = (
    "FloatStep",
    "FloatEvalStep",
    "FloatMatmulStep",
    "EmbeddingStep",
    "FloatSliceStep",
    "FloatConcatStep",
    "FloatReshapeStep",
    "LstmCellStep",
    "LstmSeqStep",
    "SeqFuseStep",
    "CellFuseStep",
    "STRATEGY_SEQFUSE",
    "float_steps",
    "seqfuse_variants",
)


def test_no_float_region_codegen_names():
    pattern = re.compile(
        r"\b(" + "|".join(_DELETED_FLOAT_CODEGEN_NAMES) + r")\b|seqfuse",
        re.IGNORECASE,
    )
    offenders = [
        f"{path}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not offenders, (
        "deleted float-region codegen name resurfaced:\n" + "\n".join(offenders)
    )
