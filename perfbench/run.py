"""Seeded, single-process benchmark of fakesaddle's three layers.

Run from the repository root (stdlib only, no build step):

    python3 perfbench/run.py --workload transit --seed 1 --seconds 20 --trace 0

The seed makes a fixed pool of inputs for the workload (workloads.py);
the library sees only those inputs.  Set-up -- importing the package
afresh from ``src/``, generating the pool and one warm-up item on the
workload's casebook reference -- is repeated SETUP_REPS times and its
median reported.  The timed phase then runs the pool in order, cyclically,
until ``--seconds`` have passed and every pool item has run once; timings
are taken over whole passes.  Every item runs its gates; an item that
raises or fails a gate counts as failed and is never dropped.  Accuracy
figures come from the first pass over the pool, so they repeat exactly
for a given seed.  ``attempted`` and ``failed`` count pool inputs, not
item runs: an input fails when any of its runs fails.  Every run puts the
whole pool through its gates, so both counts depend on the seed alone,
not on how many passes the host's speed allowed.

Times are given at reference speed.  On a shared host the same
single-threaded work can take twice as long from one minute to the next,
so a fixed stdlib workload (``probe``) is timed before the first item and
after every SEGMENT_S of items, and every interval is scaled by
PROBE_S / (mean of the probes around it): a time reads as it would on a
machine where the probe takes PROBE_S.  Wall-clock figures are printed
alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time, and at least one pass, untraced and then the same items traced,
followed by one traced reference item of every workload and the four
casebook cases, and reports the per-layer metrics plus the tracing
overhead; its spans are written to ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when a zero-tolerance check of the
exact layers fails on any item, when a casebook reference fails its gates
during warm-up, or (traced) when a casebook case fails.  Inputs whose
numeric gates do not hold count in ``failed``.  Exit code 2: the package cannot be
imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import List

import spans
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("polyfield", "normalform", "blowup", "asymptotics", "flow",
           "casebook", "cli")
SETUP_REPS = 3
SEGMENT_S = 0.05
PROBE_S = 0.0013
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"),
              ("item_ms_p50", "ms"), ("item_ms_tail", "ms"),
              ("ref_digits_p50", "digits"), ("peak_rss_mb", "MB"))


class LibraryMissing(Exception):
    """The package is not importable from this checkout's src/."""


def load_library() -> SimpleNamespace:
    """Import every module of the package afresh from ``src/``."""
    for name in [m for m in sys.modules
                 if m == "fakesaddle" or m.startswith("fakesaddle.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("fakesaddle")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import fakesaddle: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"fakesaddle imported from {pkg.__file__}, "
                             f"not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"fakesaddle.{m}")
                              for m in MODULES})


def probe() -> float:
    """Seconds a fixed mix of Fraction, dict and float work takes now.

    The mix follows the library's: a float-only loop tracks the
    Fraction-heavy exact layers less well under contention.
    """
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i, 7)
        seen[i, i + 1] = total
    x = 0.0
    for i in range(12000):
        x += (i * 1.000001) ** 0.5
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Reference speed over the speed the probes around an interval saw."""
    return 2 * PROBE_S / (before + after)


class Deadline(BaseException):
    """An item ran past its workload's deadline (raised by SIGALRM).

    A BaseException, so no ``except Exception`` on the way can swallow it.
    """


DEADLINE_STOP = "stopped at the deadline"


def _raise_deadline(_signum, _frame):
    raise Deadline


def run_item(work, lib, calls, inp, deadline_s=None) -> Outcome:
    """Run one item through its gates.  With ``deadline_s`` (wall seconds)
    an item still running after that long is stopped and fails; main()
    installs the SIGALRM handler this needs.  An item that raises or is
    stopped records an infinite deviation for each comparison it did not
    make, so failing can never improve the accuracy figure."""
    out = Outcome()
    try:
        if deadline_s is not None:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            work.item(lib, calls, inp, out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        out.failures.append(f"{DEADLINE_STOP} ({work.deadline_s:g} s at "
                            f"reference speed)")
    except Exception as exc:  # item boundary: a raising item is a failed item
        out.failures.append(f"raised {type(exc).__name__}: {exc}")
    else:
        return out
    out.deviations += [math.inf] * (work.comparisons - len(out.deviations))
    return out


@dataclass
class SetUp:
    scaled: float  # seconds at reference speed
    wall: float
    lib: SimpleNamespace
    pool: list
    calls: dict
    warm: Outcome  # the warm-up item on the casebook reference


def set_up(work, seed) -> SetUp:
    before = probe()
    start = perf_counter()
    lib = load_library()
    pool = work.generate(lib, random.Random(seed), work.pool_size)
    calls = spans.library_calls(lib)
    warm = run_item(work, lib, calls, work.reference(lib))
    wall = perf_counter() - start
    return SetUp(wall * speed_factor(before, probe()), wall, lib, pool, calls,
                 warm)


@dataclass
class Timed:
    wall: List[float]      # seconds per item, wall clock
    factors: List[float]   # per item: reference speed / speed around it
    outcomes: List[Outcome]
    elapsed: float         # wall seconds of the whole phase

    @property
    def scaled(self) -> List[float]:
        return [w * f for w, f in zip(self.wall, self.factors)]


def run_timed(work, lib, calls, pool, seconds, min_items,
              tracer=None) -> Timed:
    """Run pool items in order, cyclically, until ``min_items`` have run
    and ``seconds`` have passed, probing the speed between segments."""
    t = Timed([], [], [], 0.0)
    start = perf_counter()
    before, segment = probe(), 0.0
    while True:
        inp = pool[len(t.wall) % len(pool)]
        deadline = (None if work.deadline_s is None
                    else work.deadline_s * before / PROBE_S)
        t0 = perf_counter()
        if tracer is None:
            out = run_item(work, lib, calls, inp, deadline)
        else:
            out = tracer.run_item(
                lambda: run_item(work, lib, calls, inp, deadline))
        t1 = perf_counter()
        t.wall.append(t1 - t0)
        t.outcomes.append(out)
        segment += t1 - t0
        done = len(t.wall) >= min_items and t1 - start >= seconds
        if segment >= SEGMENT_S or done:
            after = probe()
            t.factors += ([speed_factor(before, after)]
                          * (len(t.wall) - len(t.factors)))
            before, segment = after, 0.0
        if done:
            t.elapsed = perf_counter() - start
            return t


def tail_percentile(pool_size: int) -> float:
    """Highest percentile with at least ten samples beyond it in one pass
    over the pool (every run makes at least one), else the median."""
    for p in TAIL_PERCENTILES:
        if pool_size - math.ceil(p * pool_size / 100) >= 10:
            return p
    return 50.0


def failed_inputs(pool_size: int, *runs: List[Outcome]) -> int:
    """Pool inputs that failed in any of ``runs`` (each a run_timed
    outcome list, which starts at the first input of the pool)."""
    return len({i % pool_size for outcomes in runs
                for i, out in enumerate(outcomes) if out.failed})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(work, t: Timed, setup_s):
    """(metrics for the JSON line, extra lines for the human report)."""
    k = work.pool_size
    first = t.outcomes[:k]
    devs = [d for o in first for d in o.deviations]
    bars = [b for o in first for b in o.bars]
    # Timings over whole passes only, so every input weighs the same.
    scaled = t.scaled[:len(t.wall) // k * k]
    ms = sorted(s * 1e3 for s in scaled)
    n = len(ms)
    p = tail_percentile(k)
    rank = math.ceil(p * n / 100)
    attempted = len(t.outcomes)
    failed = sum(o.failed for o in t.outcomes)
    failed_pool = failed_inputs(k, t.outcomes)
    ref_p50 = statistics.median(devs)
    stopped = sum(f.startswith(DEADLINE_STOP)
                  for o in t.outcomes for f in o.failures)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": n / sum(scaled),
        "item_ms_p50": ms[math.ceil(n / 2) - 1],
        "item_ms_tail": ms[rank - 1],
        # Clamped so that a median of inf (most items failing) stays a number.
        "ref_digits_p50": -math.log10(min(max(ref_p50, 1e-17), 1e17)),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"timings over {n // k} whole passes of {k} items; item_ms_tail is "
        f"p{p:g}, {n - rank} of {n} samples beyond it",
        f"wall clock: {attempted / t.elapsed!r} items/s, {attempted} items "
        f"in {t.elapsed:.2f} s; speed factor median "
        f"{statistics.median(t.factors):.3f}",
        f"failed_share {failed / attempted!r} ({failed} of {attempted} timed "
        f"items, {stopped} of them stopped at the deadline; "
        f"{failed_pool} of {k} pool items)",
        f"ref_err_p50 {ref_p50!r}  ref_err_max {max(devs)!r} "
        f"({len(devs)} comparisons in the pool)",
    ]
    if bars:
        notes.append(f"bar_coverage {sum(bars) / len(bars)!r} "
                     f"({sum(bars)} of {len(bars)} measured slopes)")
    return metrics, notes


def run_case(lib, tracer, case_id) -> bool:
    start = perf_counter()
    result = lib.casebook.run_case(case_id)
    tracer.record(f"casebook.{case_id}", start, perf_counter())
    return result.passed


def traced_run(work, lib, calls, pool, seconds):
    """Untraced half (at least one pass), the same items traced, then the
    cross-layer tail: one reference item of every workload and the
    casebook cases."""
    untraced = run_timed(work, lib, calls, pool, seconds / 2, len(pool))
    main = spans.Tracer(lib)
    traced = run_timed(work, lib, main.calls(calls), pool, 0.0,
                       len(untraced.wall), tracer=main)
    tail = spans.Tracer(lib)
    tail_calls = tail.calls(calls)
    units = [lambda w=w: not run_item(w, lib, tail_calls,
                                      w.reference(lib)).failed
             for w in WORKLOADS.values()]
    units += [lambda c=c: run_case(lib, tail, c) for c in spans.CASE_IDS]
    tail_factors, refs_ok = [], True
    for unit in units:
        before = probe()
        refs_ok = tail.run_item(unit) and refs_ok
        tail_factors.append(speed_factor(before, probe()))
    metrics = spans.layer_metrics(
        main, traced.factors, tail, tail_factors,
        len(lib.flow.DEFAULT_OFFSETS),
        sum(traced.scaled) / sum(untraced.scaled))
    return (metrics, [untraced.outcomes, traced.outcomes], refs_ok, main,
            tail)


def report(name, value, unit):
    print(f"  {name:<44} {value!r:>24} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    work = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _raise_deadline)

    try:
        reps = [set_up(work, args.seed) for _ in range(SETUP_REPS)]
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(r.scaled for r in reps)
    lib, pool, calls = reps[-1].lib, reps[-1].pool, reps[-1].calls
    warm_ok = all(not r.warm.failed for r in reps)

    nproc = len(os.sched_getaffinity(0))
    print(f"perfbench {work.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} "
          f"nproc={nproc} pool={len(pool)}")
    print(f"  set-up wall clock: {[round(r.wall, 4) for r in reps]} s")
    if args.trace:
        metrics, runs, refs_ok, main_t, tail_t = traced_run(
            work, lib, calls, pool, args.seconds)
        units = spans.per_layer_units()
        for name, unit in units:
            report(name, metrics[name], unit)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{work.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": work.name, "seed": args.seed,
            "python": platform.python_version(), "nproc": nproc,
            "layer_targets": spans.LAYER_TARGETS, "metrics": metrics,
            "main": main_t.to_json(), "tail": tail_t.to_json()}))
        print(f"  spans written to {path.relative_to(ROOT)}")
        correct = refs_ok
    else:
        timed = run_timed(work, lib, calls, pool, args.seconds, len(pool))
        metrics, notes = end_to_end(work, timed, setup_s)
        runs = [timed.outcomes]
        units = END_TO_END
        for name, unit in units:
            report(name, metrics[name], unit)
        for note in notes:
            print(f"  {note}")
        correct = True

    algebra = sorted({f for outcomes in runs for o in outcomes
                      for f in o.algebra_failures})
    for failure in algebra:
        print(f"  zero-tolerance check failed: {failure}")
    correct = correct and warm_ok and not algebra
    print(json.dumps({
        "correct": correct, "attempted": len(pool),
        "failed": failed_inputs(len(pool), *runs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
