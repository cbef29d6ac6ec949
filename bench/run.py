"""mmsum benchmark: one closed-loop workload per run, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload train_tiny --seed 1 --seconds 20 --trace 0

Workloads: train_tiny, train_paper, eval_paper, ablate_matrix (see
bench/README.md). The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and sample count, the output checks and the
environment. The exit code is 0 only when every check passed and no
operation failed. Run from the root of a source checkout: the package is
imported from ``src/``.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread for this process before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("M2SM_SEED", None)   # would override every seed the workloads set

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("train_tiny", "train_paper", "eval_paper", "ablate_matrix")
HASH_SEED = "0"
MAX_UNTRACED_SHARE = 0.10   # median share of a step outside every traced layer


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import mmsum from this checkout's src/, never from anywhere else."""
    if not (SRC / "mmsum" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mmsum package under {SRC}; run from a source "
                         f"checkout")
    sys.path.insert(0, str(SRC))
    import mmsum
    if SRC not in Path(mmsum.__file__).resolve().parents:
        raise SystemExit(f"bench: imported mmsum from {mmsum.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(wl, seed, seconds, workdir, measure):
    wl.make_corpus(seed, workdir)
    setup_times, states = measure.repeat_setup(lambda: wl.setup(seed, workdir),
                                               wl.setup_reps)
    ops = measure.OpTimer()
    loop_s = measure.closed_loop(lambda: wl.round(states[0], ops), ops, seconds,
                                 wl.min_ops)
    checks, ce_mean, notes = wl.finish(states)
    scale = measure.probe_scale(ops.speed)
    raw_ms = [1e3 * t for t in ops.latencies]
    lat_ms = [1e3 * t for t in ops.scaled_latencies()]
    # time between operations (loop and matrix overhead) takes the run's scale
    scaled_loop_s = sum(lat_ms) / 1e3 + (loop_s - sum(ops.latencies)) * scale
    q = measure.tail_percentile(wl.min_ops)
    p50, tail = measure.median(lat_ms), measure.percentile(lat_ms, q)
    beyond = sum(1 for t in lat_ms if t > tail)
    rate_name, lat_name = wl.specific_names
    metrics = {
        "setup_s": (measure.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "ops_per_s": (ops.attempted / scaled_loop_s, "1/s",
                      f"{rate_name}; {ops.attempted} {wl.op_label} in {loop_s:.2f} s, "
                      f"raw {ops.attempted / loop_s:.4g}/s"),
        "op_ms.p50": (p50, "ms", f"{lat_name}.p50; n={len(lat_ms)}, "
                                 f"raw {measure.median(raw_ms):.4g} ms"),
        "op_ms.tail": (tail, "ms", f"{lat_name}.p{q}; n={len(lat_ms)}, {beyond} beyond, "
                                   f"raw {measure.percentile(raw_ms, q):.4g} ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of this process"),
        "ce_mean": (ce_mean, "nat", "deterministic given the seed"),
    }
    notes.insert(0, f"times scaled to the reference speed by {scale:.4f} over the run "
                    f"(n={len(ops.speed)} probe samples), per operation by its "
                    f"neighbours' samples")
    return metrics, checks, notes, ops.attempted, ops.failed, ops.errors, None


def traced_run(wl, seed, seconds, workdir, measure, tracing):
    """Set up once traced, then run half the time untraced and half traced;
    the difference in throughput is the tracing overhead."""
    tracer = tracing.Tracer()
    wl.make_corpus(seed, workdir)
    with tracing.traced_layers(tracer):
        state = wl.setup(seed, workdir)
    states = [state, wl.setup(seed, workdir)]
    plain = measure.OpTimer()
    e_plain = measure.closed_loop(lambda: wl.round(state, plain), plain, seconds / 2, 1)
    traced = measure.OpTimer(tracer)
    with tracing.traced_layers(tracer):
        e_traced = measure.closed_loop(lambda: wl.round(state, traced), traced,
                                       seconds / 2, 1)
    checks, _, notes = wl.finish(states)

    # each phase's rate at the reference speed, so a drift between them is not
    # taken for tracing overhead
    rate_plain = plain.attempted / (e_plain * measure.probe_scale(plain.speed))
    rate_traced = traced.attempted / (e_traced * measure.probe_scale(traced.speed))
    overhead = 1.0 - rate_traced / rate_plain
    scale = measure.probe_scale(plain.speed + traced.speed)
    layer = tracing.layer_metrics(tracer, overhead)
    metrics = {name: (value * scale if unit in ("ms", "us") else value, unit, "")
               for name, (value, unit) in layer.items()}
    metrics["trace.overhead_share"] = (
        overhead, "share", f"{rate_plain:.4f} ops/s untraced ({plain.attempted} ops), "
                           f"{rate_traced:.4f} traced ({traced.attempted} ops)")

    shares = tracing.op_self_shares(tracer.spans)
    checks[f"traced layers leave under {MAX_UNTRACED_SHARE:.0%} of the median step "
           f"untraced"] = bool(shares) and measure.median(shares) < MAX_UNTRACED_SHARE
    notes.append(f"ms and us scaled to the reference speed by {scale:.4f}")
    notes.append(f"{len(tracer.spans)} spans over {tracer.n_ops} traced {wl.op_label}; "
                 f"untraced share of a step (op self time): median "
                 f"{measure.median(shares) if shares else math.nan:.4f}, "
                 f"max {max(shares, default=math.nan):.4f}")
    top = tracing.self_time_by_name(tracer.spans).most_common(8)
    notes.append("self ms per op: " + ", ".join(
        f"{k} {1e3 * v * scale / max(tracer.n_ops, 1):.3f}" for k, v in top))
    errors = plain.errors + traced.errors
    return (metrics, checks, notes, plain.attempted + traced.attempted, len(errors),
            errors, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import measure
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=OUT))
    try:
        if args.trace:
            result = traced_run(wl, args.seed, args.seconds, workdir, measure, tracing)
        else:
            result = timed_run(wl, args.seed, args.seconds, workdir, measure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, checks, notes, attempted, failed, errors, tracer = result

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(measure.environment(THREAD_VARS), sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value!r:>24} {unit:6s} {note}")
    print(f"  {'failed_share':32s} {failed / max(attempted, 1)!r:>24} share  "
          f"{failed} failed of {attempted} attempted")
    for note in notes:
        print(f"  {note}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for err in errors[:3]:
        print("  failure: " + err.strip().replace("\n", "\n    "))
    if tracer is not None:
        path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")

    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    # String hashing is randomised per process, and with it the layout, and
    # so the speed, of every dict and set: the same set-up took 40 ms in some
    # processes and 46 ms in others. Fix the hash seed by running again.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
