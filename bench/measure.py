"""Timed passes over a workload's operations, with oracle bookkeeping."""

import gc
import time

import calibrate
from workloads import OracleError


class Book:
    """Outcome of every operation run, warm-up included."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected = []
        self.outcomes = {}

    def record(self, op, result, exc, counted: bool):
        if exc is None:
            try:
                op.check(result)
                outcome = "ok"
            except (OracleError, ValueError, KeyError, IndexError,
                    TypeError) as err:
                outcome = f"wrong output: {type(err).__name__}: {err}"
        else:
            outcome = f"raised {type(exc).__name__}: {exc}"
        if outcome != "ok" and op.known_defect and op.known_defect(result, exc):
            outcome = f"known defect: {op.defect}"
        elif outcome != "ok":
            self.unexpected.append(f"{op.name}: {outcome}")
        self.outcomes.setdefault(op.name, outcome)
        if counted:
            self.attempted += 1
            self.failed += outcome != "ok"


class Pass:
    """Raw operation times of one pass and the reference runs around them.

    ``refs[i]`` and ``refs[i + 1]`` are the calibration kernel runs just
    before and just after operation ``i``; ``calibrated`` rescales each
    operation by ``NOMINAL_S`` over their mean.
    """

    def __init__(self, times, refs):
        self.times = times
        self.refs = refs

    @property
    def wall(self):
        return sum(self.times)

    @property
    def calibrated(self):
        return [t * 2 * calibrate.NOMINAL_S / (a + b)
                for t, a, b in zip(self.times, self.refs, self.refs[1:])]


def run_pass(ops, book, counted=True, tracer=None) -> Pass:
    gc.collect()
    times, refs = [], [calibrate.reference_seconds()]
    for op in ops:
        exc = result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op(op.name):
                    result = op.run()
        except Exception as err:  # an operation that raises has failed
            exc = err
        times.append(time.perf_counter() - t0)
        refs.append(calibrate.reference_seconds())
        book.record(op, result, exc, counted)
    return Pass(times, refs)


def repeat_passes(ops, book, seconds, min_passes, tracer=None, on_pass=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset(record=not passes)
        passes.append(run_pass(ops, book, tracer=tracer))
        if on_pass is not None:
            on_pass()
    return passes
