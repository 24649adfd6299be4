"""Helpers shared by the three workloads: the seeded request deck,
percentiles, the answer tally, timed set-up and peak memory."""

from __future__ import annotations

import bisect
import gc
import math
import resource
import time

#: Set-up samples per run, before and after the measured phase (the
#: last one before is the state that is measured); ``setup_s`` is their
#: median, so a run samples set-up across its whole length.
SETUPS_BEFORE = 4
SETUPS_AFTER = 3

#: Mismatch messages kept for the report (the count is never capped).
MISMATCH_EXAMPLES = 5

#: Seconds per window of a measured phase (:func:`quiet_windows`).
WINDOW_S = 1.0


def deck(rng, entries):
    """Endless seeded draws that cover *entries* evenly: each pass is a
    fresh shuffle of all of them, so every run sees the same request
    population in a seed-specific order."""
    while True:
        cards = list(entries)
        rng.shuffle(cards)
        yield from cards


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation between the
    closest ranks, as ``numpy.percentile`` computes it by default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the whole machine from
    ``/proc/stat``, or None where it does not exist.  Steal is time the
    hypervisor ran someone else while this machine had work: the report
    prints its share of the measured phase, so a run slowed by its host
    can be told from one slowed by the program."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return None
    ticks = [int(field) for field in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def tick_mark() -> tuple[float, int, int]:
    """``(perf_counter time, steal, total)``: one sample for
    :func:`quiet_windows`."""
    return (time.perf_counter(), *(cpu_ticks() or (0, 0)))


def quiet_windows(marks) -> list[tuple[float, float]]:
    """The quieter half of a phase's windows, as ``(start, end)`` times
    in order.  *marks* are :func:`tick_mark` samples taken about every
    :data:`WINDOW_S` seconds; window ``k`` runs from ``marks[k]`` to
    ``marks[k + 1]``.  Windows are ranked by the share of the machine's
    CPU ticks that the host stole in them, ties by order.

    On a shared host a window with steal stretches every wake-up in it,
    and latency with it.  Steal is the host's, not the program's, and
    the windows are chosen by it alone, never by what was measured in
    them, so a program that slows down still shows in every window."""
    ranked = sorted(
        (window_steal(marks[index:index + 2]), index)
        for index in range(len(marks) - 1)
    )
    kept = sorted(index for _, index in ranked[:math.ceil(len(ranked) / 2)])
    return [(marks[index][0], marks[index + 1][0]) for index in kept]


def window_steal(marks, windows=None) -> float:
    """Share of CPU ticks stolen over the windows between consecutive
    *marks* (or only over the ``(start, end)`` *windows* among them)."""
    stolen = total = 0
    for before, after in zip(marks, marks[1:]):
        if windows is None or (before[0], after[0]) in windows:
            stolen += after[1] - before[1]
            total += after[2] - before[2]
    return stolen / total if total else 0.0


def in_windows(moment: float, windows) -> bool:
    """Whether *moment* falls in one of the ordered ``(start, end)``
    *windows*."""
    index = bisect.bisect_right(windows, (moment, math.inf)) - 1
    return index >= 0 and windows[index][0] <= moment < windows[index][1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations.  A failure is an error raised by
    the program, a refused request, or an answer that differs from the
    evaluator oracle; every one is counted, none is skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.examples) < MISMATCH_EXAMPLES:
            self.examples.append(message)

    def check(self, got, expected, label: str) -> None:
        if got == expected:
            self.ok()
        else:
            self.fail(
                f"{label}: got {_clip(got)}, expected {_clip(expected)}"
            )

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = MISMATCH_EXAMPLES - len(self.examples)
        self.examples.extend(other.examples[:max(room, 0)])


def _clip(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def timed_build(build):
    """One set-up sample: ``build()`` returns ``(state, ingest_seconds,
    ingest_bytes)``; returns ``(state, setup_seconds, ingest_mb_s)``."""
    # Every sample starts from the same collector state.
    gc.collect()
    started = time.perf_counter()
    state, ingest_seconds, ingest_bytes = build()
    elapsed = time.perf_counter() - started
    return state, elapsed, ingest_bytes / 1e6 / ingest_seconds


def covered(intervals, low: float, high: float) -> float:
    """Length of the union of *intervals* clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def latency_summary(seconds: list[float]) -> tuple[float, float]:
    """``(p50_ms, p99_ms)`` of a latency sample in seconds."""
    return percentile(seconds, 50) * 1e3, percentile(seconds, 99) * 1e3
