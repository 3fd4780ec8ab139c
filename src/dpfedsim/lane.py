"""The helper lane: one daemon thread, started on first use, that runs the
parts of a wide private step whose bits cannot depend on where they run
(README, Helper lane).  With one CPU everything runs inline; work narrower
than _LANE_MIN_WIDTH columns always does, as the hand-off costs more there.

Callers reach it through the module (``lane.on_lane(...)``), so one patch of
this module sees every hand-off.
"""

from __future__ import annotations

import os
import threading

try:
    _LANES = min(2, len(os.sched_getaffinity(0)))
except AttributeError:  # no sched_getaffinity on this platform
    _LANES = min(2, os.cpu_count() or 1)
_LANE_MIN_WIDTH = 4096
_lane_jobs = None  # the lane's queue.SimpleQueue once it has started
_lane_start = threading.Lock()


class _Job:
    """fn(*args) handed to the lane.  ``result`` returns its value or re-raises
    its error, once; if the lane has not started the job by then, the caller
    runs it itself rather than wait for a thread that may have no CPU.  The
    job lets go of its arguments once it has run and of its outcome once
    handed over, so the lane keeps no buffer alive."""

    def __init__(self, fn, args: tuple) -> None:
        self.call, self.outcome = (fn, args), None
        self.claim, self.done = threading.Lock(), threading.Event()

    def run(self) -> None:
        if not self.claim.acquire(blocking=False):
            return  # already taken, by the lane or by its caller
        fn, args = self.call
        self.call = None
        try:
            self.outcome = (fn(*args), None)
        except BaseException as exc:
            self.outcome = (None, exc)
        del fn, args
        self.done.set()

    def result(self):
        self.run()
        self.done.wait()
        (value, error), self.outcome = self.outcome, None
        if error is not None:
            raise error
        return value


def _serve(jobs) -> None:
    while True:
        jobs.get().run()


def on_lane(fn, *args) -> _Job:
    """Queue fn(*args) on the helper lane, starting the lane on first use."""
    global _lane_jobs
    with _lane_start:
        if _lane_jobs is None:
            from queue import SimpleQueue  # imported here: a narrow run never needs it

            _lane_jobs = SimpleQueue()
            lane = threading.Thread(target=_serve, args=(_lane_jobs,), daemon=True)
            lane.name = "dpfedsim-lane"
            lane.start()
        jobs = _lane_jobs
    job = _Job(fn, args)
    jobs.put(job)
    return job


def _forget_lane() -> None:
    # a forked child inherits the lane's queue but not its thread
    global _lane_jobs, _lane_start
    _lane_jobs, _lane_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def uses_lane(width: int) -> bool:
    """Whether work this many columns wide is shared with the lane."""
    return width >= _LANE_MIN_WIDTH and _LANES > 1


def in_halves(task, count: int, width: int | None = None) -> None:
    """Run ``task(part)`` over ``range(count)``: work ``width`` columns wide
    (default ``count``) as two halves, the first on the lane, when it is
    shared (see uses_lane) and there are two parts to split.  Only for work
    whose every part writes the bytes it writes in the whole: elementwise
    work, per-column reductions, and products of one term each."""
    if count < 2 or not uses_lane(count if width is None else width):
        task(slice(0, count))
        return
    job = on_lane(task, slice(0, count // 2))
    try:
        task(slice(count // 2, count))
    finally:
        job.result()
