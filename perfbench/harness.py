"""Closed loop: one client, one op after another, until time is up.

The host's speed is not steady: the same code runs up to 1.8x slower for
seconds to minutes at a time, in pure Python and in numpy alike.  So a timed
loop also runs a fixed calibration kernel between ops (each workload picks one
like its ops), and each op's time is reported in units of the kernel's time
measured around it.
"""

import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

TAIL_BEYOND = 10
CAL_SHARE = 0.05  # calibration time after an op, as a share of the op's time

_cal_rng = np.random.default_rng(2404_12830)
_CAL_PHI = _cal_rng.standard_normal((24, 7)) + 1j * _cal_rng.standard_normal((24, 7))
_CAL_R = _cal_rng.standard_normal(24) + 1j * _cal_rng.standard_normal(24)
_CAL_GRID = _cal_rng.standard_normal((2001, 7)) + 1j * _cal_rng.standard_normal((2001, 7))


def calibration_kernel():
    """Fixed work that does not touch patrain: 4 to 9 ms on a 2-vCPU VM.

    It mixes what the in-process workloads run: an interpreted loop, small
    least-squares solves (24 x 7, as in a prior fit) and passes over a
    2001-point grid.
    """
    total = 0
    for k in range(20_000):
        total += k * k % 7
    for _ in range(60):
        total += np.linalg.lstsq(_CAL_PHI, _CAL_R, rcond=None)[0].real.sum()
    for _ in range(20):
        total += float(np.max(np.abs(_CAL_GRID @ _CAL_PHI[0]) ** 2))
    return total


def calibrate(kernel, budget_ms):
    """Run ``kernel`` at least once and until ``budget_ms`` is spent; ms per run."""
    times = []
    while not times or sum(times) < budget_ms:
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return times


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile that still has ``beyond`` samples above it.

    With ``n`` samples sorted increasingly, the nearest-rank percentile
    ``100 * (n - beyond) / n`` is the ``(n - beyond)``-th smallest sample and
    exactly ``beyond`` samples lie beyond it; any higher percentile has fewer.
    Returns ``(value, percentile, samples_beyond, n)``.  With ``beyond`` or
    fewer samples no percentile qualifies: the largest sample is returned as
    the 100th percentile with 0 samples beyond, so the short count shows.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, 0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond, n


@dataclass
class LoopResult:
    op_ms: list = field(default_factory=list)  # per op, in start order
    traced: list = field(default_factory=list)  # per op: ran under the tracer
    outputs: list = field(default_factory=list)  # per op: op output (None on exception)
    misses: list = field(default_factory=list)  # per op: check misses
    cal_ms: list = field(default_factory=list)  # per op: calibration kernel ms around it (timed loops)

    @property
    def attempted(self):
        return len(self.op_ms)

    @property
    def failed(self):
        return sum(1 for misses in self.misses if misses)


def closed_loop(op, check, seconds, cycle=1, tracer=None, kernel=None):
    """Run ``op(i, tracer_or_None)`` back to back for about ``seconds``.

    The loop runs whole cycles of ``cycle`` ops, so every run weighs each
    distinct op the same.  No cycle starts when, at the mean wall time per op
    so far, it would end past the deadline, so the phase stays within
    ``seconds`` (at least one cycle always runs).  With a ``tracer``, cycles
    alternate untraced and traced, and the loop goes on until one has run
    traced.
    ``check(i, output)`` runs outside the timed region; an exception or any
    reported miss makes the op a failure.  With a calibration ``kernel``, it
    runs once before the first op and after each op for ``CAL_SHARE`` of the
    op's time (at least once); an op's ``cal_ms`` is the mean kernel time over
    the runs just before and just after it.
    """
    result = LoopResult()
    start = time.perf_counter()
    before = calibrate(kernel, 0.0) if kernel else []
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        traced_yet = tracer is None or any(result.traced)
        if i and i % cycle == 0 and traced_yet and elapsed * (1 + cycle / i) > seconds:
            break
        traced = tracer is not None and (i // cycle) % 2 == 1
        t0 = time.perf_counter()
        try:
            output = op(i, tracer if traced else None)
            misses = None
        except Exception:  # the op boundary: record the failure and go on
            output, misses = None, [traceback.format_exc(limit=3)]
        result.op_ms.append((time.perf_counter() - t0) * 1e3)
        if kernel:
            after = calibrate(kernel, CAL_SHARE * result.op_ms[-1])
            result.cal_ms.append(statistics.mean(before + after))
            before = after
        if misses is None:
            try:
                misses = check(i, output)
            except Exception:
                misses = [traceback.format_exc(limit=3)]
        result.traced.append(traced)
        result.outputs.append(output)
        result.misses.append(misses)
        i += 1
    return result


def end_to_end(loop, setup_seconds, peak_rss_mb):
    """End-to-end metrics of a timed run, with the notes each one states.

    ``op_cal.*`` are op times in units of the calibration kernel's time
    around each op; the rest are plain wall times and rates.
    """
    completed = loop.attempted - loop.failed
    value, percentile, beyond, n = tail(loop.op_ms)
    op_seconds = sum(loop.op_ms) / 1e3
    ratios = [ms / cal for ms, cal in zip(loop.op_ms, loop.cal_ms)]
    cal_note = f"{len(ratios)} ops; calibration kernel p50 {statistics.median(loop.cal_ms):.3f} ms" if ratios else ""
    return {
        "setup_s": (setup_seconds, "s", ""),
        "op_cal.p50": (statistics.median(ratios) if ratios else float("nan"), "cal", cal_note),
        "op_cal.mean": (statistics.fmean(ratios) if ratios else float("nan"), "cal", cal_note),
        "ops_per_s": (completed / op_seconds, "1/s", f"{completed} ops in {op_seconds:.3f} s of op time"),
        "op_ms.p50": (statistics.median(loop.op_ms), "ms", f"{n} samples"),
        "op_ms.tail": (value, "ms", f"p{percentile:.1f}, {beyond} samples beyond, {n} samples"),
        "fail_frac": (loop.failed / loop.attempted, "ratio", f"{loop.failed} of {loop.attempted}"),
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
    }
