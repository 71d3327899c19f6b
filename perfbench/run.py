#!/usr/bin/env python3
"""Deployed-graph zoo benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload resnet50-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload runs in this process; ``--workload all`` runs each workload in
a child process of its own, one after another.  The program is imported
from ``src/`` of the checkout.  Output: a metrics table (name, value,
unit), a ``perfbench-details`` JSON line (environment, replay and
winner accounting, sim results, problems found), and as the last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, whose spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_query_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "sim_queries_per_host_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_per_host_s", "_qps")):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("share.") or name.endswith(("ratio", "share", "coverage", "fraction")):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("cycles"):
        return "cycles"
    return "count"


def load_manifest() -> dict:
    with open(HERE / "manifest.json", encoding="utf-8") as handle:
        return json.load(handle)


def cap_blas_threads(cap: int | None) -> int:
    """Keep BLAS threads at or below the usable cores and the workload's
    ``blas_threads`` cap; returns nproc.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    limit = min(nproc, cap or nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            requested = int(os.environ.get(var, limit))
        except ValueError:
            requested = limit
        os.environ[var] = str(max(1, min(requested, limit)))
    return nproc


def environment(nproc: int) -> dict:
    """What a result must carry so numbers from other machines are never
    compared with it."""
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def print_table(metrics: dict[str, dict]) -> None:
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>16.6g}  {entry['unit']}")


def run_one(args, spec: dict, nproc: int) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import run_workload

    run = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    end_to_end = run.details.pop("end_to_end")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in run.per_layer().items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{args.workload}-s{args.seed}.trace.json"
        run.details["spans_written"] = run.probe.write(str(trace_path))
        run.details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    steady = len(run.steady_times(traced=False))
    tail = spec["tail_percentile"]
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    correct = run.failed == 0 and not run.problems
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc),
        "error_rate": error_rate,
        "query_tail": {"percentile": tail, "steady_samples": steady,
                       "samples_beyond": int(steady * (100 - tail) / 100)},
        **run.details,
        "sim": {name: value for name, value in run.layers.items()
                if name.startswith(("sim.", "serving."))},
        "problems": run.problems,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print_table(metrics)
    print(f"  {'error_rate':<24}  {error_rate:>16.6g}  ratio")
    print("perfbench-details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args, workloads: list[str]) -> int:
    """Each workload in its own child process; prints a combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*manifest, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, list(manifest))
    spec = manifest[args.workload]
    return run_one(args, spec, cap_blas_threads(spec.get("blas_threads")))


if __name__ == "__main__":
    sys.exit(main())
