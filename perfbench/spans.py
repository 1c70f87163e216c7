"""The benchmark's call table into the library, its traced variant, and
the per-layer metrics computed from the spans.

Untraced, every entry of the table is the library function itself (or a
one-line composition of public calls), so calling through it costs
nothing measurable.  The traced table wraps each entry in a span: name,
start, end and the item span that caused it, kept in memory and written
when the run ends.  Integrator calls also get their field argument
replaced by a subclass whose ``as_rhs`` counts its evaluations; only the
traced table does this.  Spans inside the library are not recorded.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter
from typing import Dict, List, Tuple

SPAN_NAMES = (
    "normalform.field", "polyfield.json_roundtrip",
    "normalform.validate_and_build", "normalform.invariants",
    "normalform.classify", "blowup.divisor_report", "blowup.saddle_data",
    "blowup.blow_up", "polyfield.pullback_affine",
    "asymptotics.transition_report", "asymptotics.pv_integral",
    "asymptotics.pv_integral_eps_oracle", "asymptotics.gamma_pm",
    "asymptotics.gamma_pm_infinite", "casebook.build_z",
    "casebook.build_z_normalform", "flow.transition_slope", "flow.integrate",
    "flow.monodromy_probe", "flow.return_slope",
)
FLOW_CALLS = SPAN_NAMES[-4:]
CASE_IDS = ("example6", "x3-script", "x4-chain", "z-chain")

# Which end-to-end metric each layer metric should move; on the other
# workloads the prediction is no change.
LAYER_TARGETS = {
    "polyfield.json_roundtrip": "closed-sweep.items_per_s",
    "normalform.validate_and_build": "closed-sweep.items_per_s",
    "normalform.classify": "closed-sweep.items_per_s",
    "blowup.divisor_report": "closed-sweep.items_per_s",
    "blowup.saddle_data": "closed-sweep.items_per_s",
    "asymptotics.transition_report": "closed-sweep.items_per_s",
    "asymptotics.pv_integral": "pv-oracle.items_per_s",
    "asymptotics.pv_integral_eps_oracle": "pv-oracle.items_per_s",
    "asymptotics.gamma_pm": "transit.items_per_s (small share)",
    "asymptotics.gamma_pm_infinite": "z-family.items_per_s (small share)",
    "blowup.blow_up": "z-family.items_per_s (small share)",
    "polyfield.pullback_affine": "z-family.items_per_s (small share)",
    "flow.transition_slope": "transit.items_per_s, transit.item_ms_*",
    "flow.integrate": "transit.items_per_s, transit.item_ms_*",
    "flow.monodromy_probe": "z-family.items_per_s",
    "flow.return_slope": "z-family.items_per_s",
    "flow.slope.exponent_fit_share":
        "ref_digits_p50 and bar coverage on transit and z-family",
    "casebook.example6": "transit", "casebook.x4-chain": "transit",
    "casebook.z-chain": "z-family", "casebook.x3-script": "closed-sweep",
    "bench.item_self": "the benchmark's own cost",
    "trace_overhead": "the benchmark's own cost",
}


def library_calls(lib) -> Dict[str, object]:
    """Every public library call the workloads make, keyed by span name."""
    pf, nfm, bu = lib.polyfield, lib.normalform, lib.blowup
    asy, fl, cb = lib.asymptotics, lib.flow, lib.casebook
    table = (
        lambda nf: nf.field(),
        lambda fld: pf.PlanarField.from_json(fld.to_json()),
        nfm.validate_and_build, nfm.invariants, nfm.classify,
        bu.divisor_report, bu.saddle_data, bu.blow_up, pf.pullback_affine,
        asy.transition_report, asy.pv_integral, asy.pv_integral_eps_oracle,
        asy.gamma_pm, lambda nf: asy.gamma_pm(nf, None),
        cb.build_z, cb.build_z_normalform,
        fl.transition_slope, fl.integrate, fl.monodromy_probe,
        fl.return_slope,
    )
    return dict(zip(SPAN_NAMES, table, strict=True))


# -- counting fields ------------------------------------------------------------


class Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _with_counter(cls, value, counter: Counter):
    out = cls(**{f.name: getattr(value, f.name)
                 for f in dataclasses.fields(value)})
    object.__setattr__(out, "counter", counter)
    return out


def counting_classes(lib):
    """Field subclasses whose compiled right-hand side counts its calls.

    ``CountingField`` is a PlanarField; ``CountingNormalForm`` is a
    NormalFormField whose ``field()`` returns a CountingField, for the
    integrator calls that take a normal form.
    """

    class CountingField(lib.polyfield.PlanarField):
        def as_rhs(self):
            rhs = super().as_rhs()
            counter = self.counter

            def counted(x, y):
                counter.n += 1
                return rhs(x, y)

            return counted

    class CountingNormalForm(lib.normalform.NormalFormField):
        def field(self):
            return _with_counter(CountingField, super().field(), self.counter)

    return CountingField, CountingNormalForm


def _result_counts(result) -> dict:
    if hasattr(result, "samples"):  # Trajectory: one sample per accepted step
        return {"steps": len(result.samples) - 1}
    if hasattr(result, "offsets_used"):  # SlopeEstimate
        return {"offsets_used": len(result.offsets_used),
                "exponent_fit": result.exponent is not None}
    return {}


# -- tracer ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, start, end, parent item id, counts)."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: List[tuple] = []
        self.items: List[Tuple[float, float]] = []
        self.parent = None

    def record(self, name, start, end, counts=None):
        self.spans.append((name, start, end, self.parent, counts))

    def run_item(self, fn):
        """Run ``fn()`` inside a new item span; its calls become children."""
        self.parent = len(self.items)
        start = perf_counter()
        try:
            return fn()
        finally:
            self.items.append((start, perf_counter()))
            self.parent = None

    def calls(self, plain: Dict[str, object]) -> Dict[str, object]:
        return {name: self._wrap(name, fn) for name, fn in plain.items()}

    def _wrap(self, name, fn):
        if name not in FLOW_CALLS:
            def traced(*args, **kw):
                start = perf_counter()
                try:
                    return fn(*args, **kw)
                finally:
                    self.record(name, start, perf_counter())
            return traced

        field_cls, nf_cls = counting_classes(self.lib)
        nf_type = self.lib.normalform.NormalFormField

        def traced_flow(target, *args, **kw):
            counter = Counter()
            target = _with_counter(
                nf_cls if isinstance(target, nf_type) else field_cls,
                target, counter)
            counts = {}
            start = perf_counter()
            try:
                result = fn(target, *args, **kw)
            finally:
                counts["rhs"] = counter.n
                self.record(name, start, perf_counter(), counts)
            counts.update(_result_counts(result))
            return result
        return traced_flow

    def to_json(self) -> dict:
        return {"items": [list(i) for i in self.items],
                "spans": [[n, s, e, p, c] for n, s, e, p, c in self.spans]}


# -- per-layer metrics ------------------------------------------------------------


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.ms", "ms"), (f"{name}.calls", "count")]
    out += [("flow.integrate.steps", "count"),
            ("flow.integrate.us_per_step", "us"),
            ("flow.integrate.rhs_per_step", "count"),
            ("flow.transition_slope.rhs_evals", "count"),
            ("flow.transition_slope.offsets_used_share", "share"),
            ("flow.monodromy_probe.rhs_evals", "count"),
            ("flow.return_slope.rhs_evals", "count"),
            ("flow.slope.exponent_fit_share", "share")]
    out += [(f"casebook.{cid}.s", "s") for cid in CASE_IDS]
    out += [("bench.item_self.ms", "ms"), ("trace_overhead", "ratio")]
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _by_name(tracer: Tracer, factors: List[float]) -> Dict[str, list]:
    """Spans by name as (scaled seconds, counts); a span takes the speed
    factor of the item that caused it."""
    out: Dict[str, list] = {}
    for name, start, end, parent, counts in tracer.spans:
        out.setdefault(name, []).append(((end - start) * factors[parent],
                                         counts))
    return out


def layer_metrics(main: Tracer, main_factors: List[float], tail: Tracer,
                  tail_factors: List[float], n_offsets: int,
                  trace_overhead: float) -> Dict[str, float]:
    """Per-call medians and counts.  A layer the main workload never calls
    is measured on the tail (casebook references and cases) instead."""
    main_by = _by_name(main, main_factors)
    tail_by = _by_name(tail, tail_factors)
    by = {name: main_by.get(name) or tail_by.get(name, [])
          for name in set(main_by) | set(tail_by)}
    m: Dict[str, float] = {}
    for name in SPAN_NAMES:
        calls = by.get(name, [])
        m[f"{name}.ms"] = _median([d * 1e3 for d, _ in calls])
        m[f"{name}.calls"] = len(calls)

    done = [(d, c) for d, c in by.get("flow.integrate", []) if "steps" in c]
    m["flow.integrate.steps"] = _median([c["steps"] for _, c in done])
    m["flow.integrate.us_per_step"] = _median(
        [d * 1e6 / max(c["steps"], 1) for d, c in done])
    m["flow.integrate.rhs_per_step"] = _median(
        [c["rhs"] / max(c["steps"], 1) for _, c in done])
    for name in ("flow.transition_slope", "flow.monodromy_probe",
                 "flow.return_slope"):
        m[f"{name}.rhs_evals"] = _median([c["rhs"] for _, c in by.get(name, [])])

    slopes = [c for _, c in by.get("flow.transition_slope", [])
              if "offsets_used" in c]
    computed = sum(min(c["offsets_used"] + 1, n_offsets) for c in slopes)
    m["flow.transition_slope.offsets_used_share"] = (
        sum(c["offsets_used"] for c in slopes) / computed if computed else 0.0)
    fits = [c["exponent_fit"] for name in ("flow.transition_slope",
                                           "flow.return_slope")
            for _, c in by.get(name, []) if "exponent_fit" in c]
    m["flow.slope.exponent_fit_share"] = sum(fits) / len(fits) if fits else 0.0

    for cid in CASE_IDS:
        m[f"casebook.{cid}.s"] = _median(
            [d for d, _ in tail_by.get(f"casebook.{cid}", [])])

    child = [0.0] * len(main.items)
    for _, start, end, parent, _ in main.spans:
        child[parent] += end - start
    m["bench.item_self.ms"] = _median(
        [(end - start - c) * f * 1e3
         for (start, end), c, f in zip(main.items, child, main_factors)])
    m["trace_overhead"] = trace_overhead
    return m
