#!/usr/bin/env python3
"""Run-to-run steadiness report for the benchmark.

Runs one or more workloads once per seed, one process at a time, and
reports for every end-to-end metric the distance between the first and
third quartile of its values as a share of their median (the spread the
benchmark's bounds are judged against).  It also groups the runs by their
Tier-3 winner mix (``codegen.wins.*``): a winner is picked from a single
timing sample, so a flip between runs changes the program that serves the
steady queries.  When the spread of ``query_p50_s`` shrinks inside the
groups, winner flips account for it.

    python3 perfbench/steadiness.py --workload ssd-samplepool --seeds 1-5 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {child.returncode}:\n"
                           f"{child.stderr}")
    lines = child.stdout.strip().splitlines()
    details = next(
        json.loads(line.split(" ", 1)[1]) for line in lines
        if line.startswith("perfbench-details ")
    )
    return json.loads(lines[-1]), details


def report(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        result, details = run_once(workload, seed, seconds)
        wins = details.get("codegen_wins", {})
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wins": "/".join(f"{k}={v}" for k, v in sorted(wins.items()) if v),
        })
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()
        ) + f" wins[{runs[-1]['wins']}]", file=sys.stderr)
    names = list(runs[0]["metrics"])
    summary = {
        name: {
            "median": statistics.median(r["metrics"][name] for r in runs),
            "spread": spread([r["metrics"][name] for r in runs]),
        }
        for name in names
    }
    groups: dict[str, list[float]] = {}
    for r in runs:
        groups.setdefault(r["wins"], []).append(r["metrics"]["query_p50_s"])
    within = [spread(values) for values in groups.values() if len(values) >= 2]
    flips = len(groups) > 1
    return {
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "metrics": summary,
        "winner_mixes": {mix: len(values) for mix, values in groups.items()},
        "winner_flips": flips,
        "query_p50_spread_within_mix": max(within) if within else None,
        "flips_account_for_spread": (
            flips and bool(within)
            and max(within) < summary["query_p50_s"]["spread"] / 2
        ),
        "runs": runs,
    }


def main() -> int:
    manifest = json.loads((HERE / "manifest.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(manifest),
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    reports = [report(w, seeds, args.seconds) for w in (args.workload or list(manifest))]
    for entry in reports:
        print(f"{entry['workload']}: correct={entry['all_correct']} "
              f"winner mixes={entry['winner_mixes']} "
              f"flips account for p50 spread={entry['flips_account_for_spread']}")
        for name, stats in entry["metrics"].items():
            print(f"  {name:<24} median {stats['median']:12.6g}  "
                  f"spread {stats['spread'] * 100:6.2f}%")
    print(json.dumps(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
