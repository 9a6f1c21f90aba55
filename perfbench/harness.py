"""Pass loop shared by every workload.

A run is: set-up (imports and corpus generation), then whole timed passes
over the same corpus until the run length is reached, then the independent
checks.  Only the calls into the program are timed; preparing an
item's inputs, comparing outputs and checking them happen outside the timed
region.  Every pass attempts every item once, so the share of failed items
does not depend on how many passes fit into a run.
"""

from __future__ import annotations

import signal
import statistics
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional


# An item that runs longer than this counts as failed; the run goes on.
ITEM_LIMIT_S = 10.0
MIN_PASSES = 3
# Time of one reference_loop() call at the machine speed that every timing is
# rescaled to (about its median on the 2-core machine the README describes).
REFERENCE_S = 0.0015


def reference_loop() -> float:
    """A fixed piece of pure-Python work like the program's inner loops
    (rational arithmetic, dict and tuple traffic, sorting); returns its wall
    time.  The machine's speed drifts by up to 2x over tens of seconds, and
    this loop slows down with it, so a timing is rescaled by
    REFERENCE_S / (loop time measured beside it)."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 13)] = acc.numerator % 1000003
    total = 0
    for key, value in sorted(table.items()):
        total += value * key[1]
    return perf_counter() - start


MISMATCH = "output differs from the first pass"


class CheckFailed(AssertionError):
    """An output failed its independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class ItemFailed(Exception):
    """The program raised, or ran past the per-item limit."""

    def __init__(self, message: str, seconds: float = 0.0):
        super().__init__(message)
        self.seconds = seconds


class _Timeout(BaseException):
    pass


@dataclass
class Item:
    """One unit of work.  ``run`` receives what ``prepare`` built and returns
    the program's output; ``digest`` turns an output into canonical text, so
    later passes can be compared with the first; ``check`` verifies an output
    independently and raises CheckFailed."""

    name: str
    run: Callable[[Any], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], None]
    prepare: Optional[Callable[[], Any]] = None
    # Items that time themselves (child processes) return (output, seconds).
    self_timed: bool = False


def _alarm(signum, frame):
    raise _Timeout()


def run_item(item: Item, tracer=None) -> tuple[float, Any]:
    state = item.prepare() if item.prepare else None
    if item.self_timed:
        try:
            out, seconds = item.run(state)
        except ItemFailed:
            raise
        except Exception as exc:
            raise ItemFailed(f"{type(exc).__name__}: {exc}") from exc
        return seconds, out
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
    if tracer is not None:
        tracer.on = True
    start = perf_counter()
    try:
        out = item.run(state)
        seconds = perf_counter() - start
    except _Timeout:
        raise ItemFailed(f"ran past the {ITEM_LIMIT_S:g} s item limit",
                         perf_counter() - start) from None
    except Exception as exc:
        raise ItemFailed(f"{type(exc).__name__}: {exc}", perf_counter() - start) from exc
    finally:
        if tracer is not None:
            tracer.on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return seconds, out


@dataclass
class PassRecord:
    """One timed pass.  ``times`` and ``scaled_wall`` are rescaled to the
    reference speed; ``wall`` is the raw wall time of every attempt."""

    times: dict[str, float] = field(default_factory=dict)   # successful items
    scaled_wall: float = 0.0                               # every attempt
    wall: float = 0.0
    failures: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    # Reference-loop times measured just before and just after each item.
    reference: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that rescales this pass's timings to the reference speed."""
        return REFERENCE_S / statistics.median(self.reference)


@dataclass
class Reference:
    """Outputs of the first timed pass, which later passes must reproduce."""

    outputs: dict[str, Any] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def timed_passes(items: list[Item], seconds: float, tracer=None,
                 layer_values=None) -> tuple[list[PassRecord], Reference]:
    """Whole passes until `seconds` have gone by (at least MIN_PASSES).  The
    first pass's outputs are the reference for the later ones."""
    passes: list[PassRecord] = []
    ref = Reference()
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        rec = PassRecord()
        if tracer is not None:
            tracer.reset_pass()
            tracer.keep_spans = not passes
        first = not passes
        for item in items:
            before = reference_loop()
            try:
                dt, out = run_item(item, tracer)
            except ItemFailed as exc:
                dt, out = exc.seconds, exc
            after = reference_loop()
            rec.reference += [before, after]
            scaled = dt * 2 * REFERENCE_S / (before + after)
            rec.wall += dt
            rec.scaled_wall += scaled
            if isinstance(out, ItemFailed):
                rec.failures[item.name] = str(out)
                continue
            digest = item.digest(out)
            if first:
                ref.outputs[item.name] = out
                ref.digests[item.name] = digest
            elif ref.digests.get(item.name) != digest:
                rec.failures[item.name] = MISMATCH
                continue
            rec.times[item.name] = scaled
        if tracer is not None:
            tracer.keep_spans = False
            rec.layers = layer_values(tracer)
        passes.append(rec)
    return passes, ref


def run_checks(items: list[Item], ref: Reference) -> dict[str, str]:
    """Check each distinct item once; returns item name -> reason for every
    output that fails its independent check."""
    wrong: dict[str, str] = {}
    for item in items:
        if item.name not in ref.outputs:
            continue
        try:
            item.check(ref.outputs[item.name])
        except CheckFailed as exc:
            wrong[item.name] = f"check failed: {exc}"
        except Exception as exc:  # a checker that crashes is a failed check
            wrong[item.name] = "checker raised: " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
    return wrong


def summarize(items: list[Item], passes: list[PassRecord],
              wrong: dict[str, str]) -> dict:
    """End-to-end figures: each is a median over the timed passes of a
    figure of one pass, with the pass's timings rescaled to the reference
    speed.  An item whose output failed its check counts as failed in every
    pass."""
    attempted = len(items) * len(passes)
    failed = 0
    rates, p50s, maxes, p90s = [], [], [], []
    for rec in passes:
        good = sorted(t for n, t in rec.times.items() if n not in wrong)
        failed += len(items) - len(good)
        if not good:
            continue
        rates.append(len(good) / rec.scaled_wall)
        p50s.append(statistics.median(good))
        maxes.append(good[-1])
        p90s.append(statistics.quantiles(good, n=10)[8] if len(good) > 1 else good[0])

    def median(values, scale=1.0):
        return scale * statistics.median(values) if values else 0.0

    return {
        "attempted": attempted,
        "failed": failed,
        "items_per_s": median(rates),
        "item_p50_ms": median(p50s, 1000.0),
        "item_max_ms": median(maxes, 1000.0),
        "item_p90_ms": median(p90s, 1000.0),
    }
