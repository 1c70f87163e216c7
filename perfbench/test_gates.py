"""Self-test of the benchmark's gates, generator and traced call table.

The two known-bad outputs below were produced by the library as it stood
when the benchmark was written; they raise nothing, so only the gates
can catch them.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fakesaddle import (asymptotics, blowup, casebook, cli, flow,  # noqa: E402
                        normalform, polyfield)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (WORKLOADS, Outcome, transit_gate,  # noqa: E402
                       z_gate)

# The modules as imported by this test session: the benchmark's own
# re-import would give the other test files' classes a second identity.
LIB = SimpleNamespace(polyfield=polyfield, normalform=normalform,
                      blowup=blowup, asymptotics=asymptotics, flow=flow,
                      casebook=casebook, cli=cli)


def _known_bad_transit_member():
    x, y = polyfield.Poly2.gens()
    q = Fraction
    f1 = 1 - x * q(1, 16) + x ** 2 * q(1, 4) + x ** 3 * q(1, 8) \
        + x * y * q(7, 16) + y ** 2 * q(3, 16)
    f2 = 1 + x * q(5, 16) + y * q(3, 16)
    g1 = q(11, 16) - x * q(1, 2) + x ** 2 * q(1, 8) + y * q(3, 8) \
        - x * y * q(1, 2)
    g2 = q(3, 4) - y * q(1, 16) - y ** 2 * q(3, 16)
    return normalform.NormalFormField(f1, f2, g1, g2, q(-1, 16))


def test_transit_gates_flag_known_bad_member():
    nf = _known_bad_transit_member()
    sections = asymptotics.SectionPair(-1.0, 1.0)
    closed = math.exp(asymptotics.gamma_pm(nf, sections)[0])
    assert abs(closed - 27.24) < 0.01
    # transition_slope('+') extrapolated per-offset values 13.2, 19.8,
    # 24.2, -0.25, -0.55 to -0.549; integrate from (-1, 1e-4) ended at
    # y = -5.5e-5, on the far side of the invariant line y = 0.
    slope_only, sign_only = Outcome(), Outcome()
    transit_gate(slope_only, [("+", -0.549, 0.5, closed)], 1e-4, 1e-4)
    transit_gate(sign_only, [("+", closed, 0.0, closed)], 1e-4, -5.5e-5)
    assert [f.split(":")[0] for f in slope_only.failures] == \
        ["transition_slope+"]
    assert [f.split(":")[0] for f in sign_only.failures] == ["integrate"]


def test_z_gate_flags_known_bad_return_slope():
    alpha, beta = Fraction(5, 8), Fraction(1, 2)
    closed = casebook.z_return_slope_closed(alpha, beta)
    assert abs(closed - 93.18) < 0.01
    gamma = casebook.z_gamma_closed(alpha, beta)
    out = Outcome()
    z_gate(out, True, gamma, gamma, -102.35, 1.0, closed)
    assert [f.split(":")[0] for f in out.failures] == ["return_slope"]


def test_gates_pass_on_casebook_references():
    calls = spans.library_calls(LIB)
    for work in WORKLOADS.values():
        out = run.run_item(work, LIB, calls, work.reference(LIB))
        assert not out.failed, (work.name, out)
        assert out.deviations


def test_raising_item_counts_as_infinite_deviation():
    def raises(lib, calls, inp, out):
        raise ZeroDivisionError("no slope")

    work = dataclasses.replace(WORKLOADS["transit"], item=raises)
    out = run.run_item(work, LIB, {}, None)
    assert out.failed and out.deviations == [math.inf, math.inf]


def test_failures_count_pool_inputs_not_runs():
    bad = Outcome(failures=["gate"])
    # Pool of 3, input 1 fails; two and a half passes, then a traced pass.
    untraced = [Outcome(), bad, Outcome()] * 2 + [Outcome(), bad]
    traced = [Outcome(), bad, Outcome()]
    assert run.failed_inputs(3, untraced) == 1
    assert run.failed_inputs(3, untraced, traced) == 1
    assert run.failed_inputs(3, [Outcome()] * 5, traced) == 1


def test_counting_trace_leaves_results_unchanged():
    work = WORKLOADS["transit"]
    nf, sections, _ = work.reference(LIB)
    plain = spans.library_calls(LIB)
    tracer = spans.Tracer(LIB)
    traced = tracer.calls(plain)
    for side in "+-":
        assert traced["flow.transition_slope"](nf, sections, side) == \
            plain["flow.transition_slope"](nf, sections, side)
    name, start, end, parent, counts = tracer.spans[0]
    assert name == "flow.transition_slope" and end > start and parent is None
    assert counts["rhs"] > 0 and counts["offsets_used"] >= 3


def test_inputs_repeat_for_a_seed():
    for work in WORKLOADS.values():
        if work.name == "z-family":
            pool = work.generate(LIB, random.Random(7), work.pool_size)
            betas = [b for _a, b in pool]
            assert betas == sorted(betas) and len(set(betas)) == len(betas)
            assert all(Fraction(1, 4) < b <= 2 for b in betas)
            assert all(-1 <= a <= 1 for a, _b in pool)
        first = work.generate(LIB, random.Random(7), 8)
        assert first == work.generate(LIB, random.Random(7), 8)


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.per_layer_units()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert list(spans.library_calls(LIB)) == list(spans.SPAN_NAMES)
    assert tuple(sorted(casebook.CASES)) == spans.CASE_IDS
