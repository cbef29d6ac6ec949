"""Timing primitives shared by every workload: percentiles, the machine-speed
probe, the closed loop that drives a workload for a fixed wall time,
the per-operation timer, and the environment record printed beside each
result.

The speed of a shared machine drifts: on a 2-vCPU Intel Xeon virtual machine
one core ran the same training step anywhere from 50 to 97 ms over a few
minutes, in phases longer than a run, while the process was on the CPU the
whole time. So every operation is followed by three short fixed kernels,
and times are reported scaled to the speed at which the kernels take their
reference times. One is a pure-Python integer loop; one is a small
recurrent cell in numpy, the kind of per-timestep work that dominates
mmsum's encoders; one is a matrix-vector product and an outer product over
a frame-LSTM-sized matrix, bound by memory traffic. None depends on what the
operation left behind: each runs an untimed warm-up before it is timed, the
numpy kernels write only into preallocated buffers, and the garbage
collector is paused during the probe, so the probe never collects the
operation's garbage. The kernels are part of the
benchmark, so they are the same code on every commit measured.
"""
from __future__ import annotations

import gc
import math
import os
import platform
import time
import traceback
from pathlib import Path

import numpy as np

# Candidate percentiles for a latency tail, highest first.
TAIL_LADDER = (99, 90, 75, 50)
MIN_BEYOND = 10
PROBE_ITERATIONS = 14_000         # interpreter kernel: about 1 ms on a quiet core
PROBE_PASSES = 5                  # recurrent kernel: about 1 ms on a quiet core
PROBE_REF_S = (1e-3, 1e-3, 1e-3)  # each kernel's time at the reference speed
SCALE_WINDOW = 2                  # neighbours on each side whose probes scale an op


def tail_percentile(n: int) -> int | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of ``n``
    samples above it, or None when ``n`` is too small even for the median."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= MIN_BEYOND:
            return q
    return None


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


_rng = np.random.default_rng(0)
_CELL_W = 0.1 * _rng.normal(size=(64, 256))     # 128 KB: stays in L2
_CELL_X = _rng.normal(size=(20, 192))            # one sequence of inputs
_xh, _z, _t, _u = np.zeros(256), np.empty(64), np.empty(64), np.empty(64)
_MEM_W = _rng.normal(size=(2112, 256))           # 4.3 MB: larger than L2
_MEM_X, _MEM_G = _rng.normal(size=2112), _rng.normal(size=256)
_mem_v, _mem_out = np.empty(256), np.empty((2112, 256))


def _cell_pass() -> None:
    """h <- tanh(z) * sigmoid(z), z = W [x; h], over one input sequence."""
    for x in _CELL_X:
        _xh[:192] = x
        np.dot(_CELL_W, _xh, out=_z)
        np.tanh(_z, out=_t)
        np.negative(_z, out=_u)
        np.exp(_u, out=_u)
        np.add(_u, 1.0, out=_u)
        np.reciprocal(_u, out=_u)
        np.multiply(_t, _u, out=_xh[192:])


def _mem_pass() -> None:
    np.dot(_MEM_X, _MEM_W, out=_mem_v)
    np.outer(_MEM_X, _MEM_G, out=_mem_out)


def probe() -> tuple[float, float, float]:
    """One speed-probe sample: each kernel's time in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for i in range(PROBE_ITERATIONS // 10):     # untimed warm-up
            acc += (i * 7) & 15
        t0 = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            acc += (i * 7) & 15
        t1 = time.perf_counter()
        _xh[192:] = 0.0
        _cell_pass()                      # untimed warm-up
        t2 = time.perf_counter()
        for _ in range(PROBE_PASSES):
            _cell_pass()
        t3 = time.perf_counter()
        _mem_pass()                       # untimed warm-up
        t4 = time.perf_counter()
        _mem_pass()
        t5 = time.perf_counter()
    finally:
        if collecting:
            gc.enable()
    return t1 - t0, t3 - t2, t5 - t4


def probe_scale(samples) -> float:
    """The factor that turns seconds measured beside ``samples`` into seconds
    at the reference speed: the geometric mean of the kernels' reference
    times over their median times."""
    ratios = [ref / median([s[k] for s in samples])
              for k, ref in enumerate(PROBE_REF_S)]
    return math.prod(ratios) ** (1 / len(ratios))


class OpTimer:
    """Times each closed-loop operation and counts the ones that fail.

    An operation fails when it raises or when ``ok(result)`` is false. With a
    tracer attached, each operation is also the root span of one trace step.
    Each operation is followed by one speed-probe sample, outside its time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.speed: list[tuple[float, float, float]] = []
        self.probe_s = 0.0        # wall time spent in probes, warm-ups included
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def run(self, fn, *args, ok=lambda result: result is not False, **kwargs):
        if self.tracer is not None:
            self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=3)
        else:
            error = None if ok(result) else f"operation returned {result!r:.200}"
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.end_op()
        if error is not None:
            self.errors.append(error)
        t0 = time.perf_counter()
        self.speed.append(probe())
        self.probe_s += time.perf_counter() - t0
        return result

    def scaled_latencies(self) -> list[float]:
        return scaled(self.latencies, self.speed)


def scaled(times, speed) -> list[float]:
    """Each time at the reference speed, scaled by the probe samples taken
    after it and after the SCALE_WINDOW times on each side of it."""
    w = SCALE_WINDOW
    return [t * probe_scale(speed[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def closed_loop(round_fn, ops: OpTimer, seconds: float, min_ops: int) -> float:
    """Call ``round_fn`` back to back (one caller, each call starting when
    the previous returned) until ``seconds`` have passed and ``ops`` holds at
    least ``min_ops`` operations, or until three times ``seconds`` have
    passed. Returns the elapsed wall time less the speed probes'."""
    start = time.perf_counter()
    while True:
        round_fn()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (ops.attempted >= min_ops or elapsed >= 3 * seconds):
            return elapsed - ops.probe_s


def repeat_setup(setup_fn, reps: int):
    """Run ``setup_fn`` ``reps`` times, each followed by one probe sample. A
    fixed count keeps the allocation history, and so the peak RSS, the same
    from run to run. Returns the per-run times scaled to the reference speed
    as operations are, and the first two results (the timed run and the
    same-seed determinism rerun use one each)."""
    times, speed, kept = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        state = setup_fn()
        times.append(time.perf_counter() - t0)
        speed.append(probe())
        if len(kept) < 2:
            kept.append(state)
    return scaled(times, speed), kept


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(thread_vars) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "cpu": _cpu_model(),
    }
