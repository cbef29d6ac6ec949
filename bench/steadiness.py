"""Run the benchmark once per seed, one run at a time, and report each
metric's median and spread: the distance between the first and third
quartiles as a share of the median, the figure the bounds in BENCHMARK.json
are set against.

    python3 bench/steadiness.py --workload train_tiny --seeds 1-10
    python3 bench/steadiness.py --workload eval_paper --seeds 1-5 --trace 1

Run from the root of a source checkout. Each run's last stdout line is
appended to ``.bench_out/steadiness.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".bench_out" / "steadiness.jsonl"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) with statistics.quantiles' default method."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    LOG.parent.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", seconds, "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        result = json.loads(last)
        with open(LOG, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "trace": args.trace, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}"
                                          for k, m in result["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        med, iqr = spread(vs)
        bound = bounds.get(name)
        note = "" if bound is None else \
            f"  bound {bound}  {'ok' if iqr < bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {med:.6g}  iqr/median {iqr:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
