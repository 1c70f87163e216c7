"""Normal form of a generic fake-saddle candidate and its classifier.

The family handled here is

    xdot = x^2 f1(x,y) + a x y + y^2 f2(x,y),
    ydot = (x g1(x,y) + y g2(y)) y,

with f1(0,0) = f2(0,0) = 1.  The invariants (a, b, c) with b = g2(0) and
c = g1(0,0), together with d = 4(1-c) - (a-b)^2, decide whether the
origin is a fake saddle: it is one exactly when d > 0 (hyperbolic
divisor saddle of hyperbolicity ratio 1-c) or c = 1 and a = b
(semi-hyperbolic divisor saddle), provided (a, b, c) avoids the fully
degenerate stratum {d = 0, a^2 - b^2 = 4}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from ._univariate import split_roots
from .polyfield import Coeff, PlanarField, Poly2, _cached, _coerce, \
    _fields_state, coeff_json

FLOAT_ZERO_TOL = 1e-12


class NotInNormalForm(Exception):
    """Input field cannot be decomposed into the normal-form shape."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class NotHyperbolicFakeSaddle(Exception):
    """Operation requires invariants with d > 0."""


@dataclass(frozen=True)
class NormalFormField:
    """One member of the normal-form family (one parameter value)."""

    f1: Poly2
    f2: Poly2
    g1: Poly2
    g2: Poly2  # depends on the second variable only
    a: Coeff

    def __post_init__(self):
        object.__setattr__(self, "a", _coerce(self.a))
        if any(i != 0 for (i, _j) in self.g2.terms):
            raise NotInNormalForm("g2 must depend on y only")

    @property
    def is_float(self) -> bool:
        return (isinstance(self.a, float) or self.f1.is_float
                or self.f2.is_float or self.g1.is_float or self.g2.is_float)

    def field(self) -> PlanarField:
        """Reconstruct the planar field induced by the normal form.

        Built once; later calls return the same field, and with it the
        field's compiled right-hand side.
        """
        return _cached(self, "_field", _build_field)

    __getstate__ = _fields_state

    def to_json(self) -> dict:
        return {"f1": self.f1.to_json(), "f2": self.f2.to_json(),
                "g1": self.g1.to_json(), "g2": self.g2.to_json(),
                "a": coeff_json(self.a)}

    @classmethod
    def from_json(cls, data: dict) -> "NormalFormField":
        """The member of ``to_json``'s form: exactly the keys f1, f2, g1
        and g2, each a polynomial (``Poly2.from_json``), and a, a number
        or a "num/den" string, not a bool.  Anything else is a ValueError
        naming the key."""
        keys = ("f1", "f2", "g1", "g2", "a")
        if set(data) != set(keys):
            raise ValueError('a normal form has exactly the keys "f1", "f2", '
                             f'"g1", "g2" and "a"; got {sorted(map(str, data))}')
        polys = []
        for key in keys[:4]:
            try:
                polys.append(Poly2.from_json(data[key]))
            except ValueError as exc:
                raise ValueError(f'"{key}": {exc}') from None
        a = data["a"]
        if type(a) not in (int, float, str):
            raise ValueError(f'"a" must be a number or a "num/den" string, '
                             f"got {a!r}")
        return cls(*polys, float(a) if isinstance(a, float) else Fraction(a))


def _build_field(nf: NormalFormField) -> PlanarField:
    x, y = Poly2.gens()
    return PlanarField(x * x * nf.f1 + x * y * nf.a + y * y * nf.f2,
                       (x * nf.g1 + y * nf.g2) * y)


@dataclass(frozen=True)
class Invariants:
    a: Coeff
    b: Coeff
    c: Coeff
    d: Coeff

    @property
    def is_exact(self) -> bool:
        return not any(isinstance(v, float) for v in (self.a, self.b, self.c, self.d))

    def to_json(self) -> dict:
        return {k: coeff_json(getattr(self, k)) for k in ("a", "b", "c", "d")}


class Verdict(enum.Enum):
    HYPERBOLIC_FAKE_SADDLE = "HyperbolicFakeSaddle"
    SEMI_HYPERBOLIC_FAKE_SADDLE = "SemiHyperbolicFakeSaddle"
    NOT_FAKE_SADDLE = "NotFakeSaddle"
    BOUNDARY_INDETERMINATE = "BoundaryIndeterminate"


@dataclass(frozen=True)
class Classification:
    """Classifier verdict with the extra-singularity report on the divisor.

    ``extra_count`` / ``extra_locations`` describe real roots of the
    divisor restriction Q(0, v) = -v^2 + (b-a) v + c - 1 away from v = 0,
    i.e. singular points created on the exceptional divisor besides the
    origin of the chart.
    """

    verdict: Verdict
    ratio: Coeff | None = None
    extra_count: int | None = None
    extra_locations: Tuple[float, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def is_fake_saddle(self) -> bool:
        return self.verdict in (Verdict.HYPERBOLIC_FAKE_SADDLE,
                                Verdict.SEMI_HYPERBOLIC_FAKE_SADDLE)

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.ratio is not None:
            out["ratio"] = float(self.ratio)
        if self.extra_count is not None:
            out["extra_divisor_singularities"] = {
                "count": self.extra_count,
                "locations": [float(v) for v in self.extra_locations],
            }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def validate_and_build(raw: PlanarField) -> NormalFormField:
    """Decompose a planar field into the normal form, or explain why not.

    Split convention for the first component p: the xy coefficient is a;
    monomials x^i y^j with i >= 2 go to f1 (as x^(i-2) y^j); everything
    else must be divisible by y^2 and goes to f2 (as x^i y^(j-2)).  The
    second component must factor as (x g1 + y g2(y)) y.
    """
    a: Coeff = Fraction(0)
    f1_terms, f2_terms = {}, {}
    for (i, j), c in raw.p.terms.items():
        if (i, j) == (1, 1):
            a = c
        elif i >= 2:
            f1_terms[(i - 2, j)] = c
        elif j >= 2:
            f2_terms[(i, j - 2)] = c
        else:
            raise NotInNormalForm(
                f"p has a term x^{i} y^{j} below quadratic order")
    f1, f2 = Poly2(f1_terms), Poly2(f2_terms)

    q = raw.q
    if any(j == 0 for (_i, j) in q.terms):
        raise NotInNormalForm("q is not divisible by y")
    r = Poly2({(i, j - 1): c for (i, j), c in q.terms.items()})
    g2_terms, g1_terms = {}, {}
    for (i, j), c in r.terms.items():
        if i == 0:
            if j == 0:
                raise NotInNormalForm(
                    "q/y has a constant term; it must split as x*g1 + y*g2(y)")
            g2_terms[(0, j - 1)] = c
        else:
            g1_terms[(i - 1, j)] = c
    g1, g2 = Poly2(g1_terms), Poly2(g2_terms)

    one = 1.0 if raw.is_float else Fraction(1)
    for name, poly in (("f1", f1), ("f2", f2)):
        c00 = poly.coeff(0, 0)
        ok = (abs(c00 - 1) < FLOAT_ZERO_TOL) if raw.is_float else (c00 == one)
        if not ok:
            raise NotInNormalForm(f"{name}(0,0) = {c00}, expected 1")
    return NormalFormField(f1, f2, g1, g2, a)


def invariants(nf: NormalFormField) -> Invariants:
    a = nf.a
    b = nf.g2.coeff(0, 0)
    c = nf.g1.coeff(0, 0)
    d = 4 * (1 - c) - (a - b) ** 2
    return Invariants(a, b, c, d)


def classify(inv: Invariants) -> Classification:
    """Verdict from the invariants alone, no blow-up required.

    In float mode an exact zero test on d is meaningless; |d| below
    1e-12 is treated as the d = 0 stratum and flagged with a
    BoundaryNearZero warning instead of silently branching.
    """
    a, b, c, d = inv.a, inv.b, inv.c, inv.d
    warnings: Tuple[str, ...] = ()
    if inv.is_exact:
        d_is_zero = d == 0
        ab_excluded = a * a - b * b == 4
        semi = c == 1 and a == b
    else:
        d_is_zero = abs(d) < FLOAT_ZERO_TOL
        if d_is_zero and d != 0:
            warnings = ("BoundaryNearZero",)
        ab_excluded = abs(a * a - b * b - 4) < FLOAT_ZERO_TOL
        semi = abs(c - 1) < FLOAT_ZERO_TOL and abs(a - b) < FLOAT_ZERO_TOL

    if not d_is_zero and d > 0:
        return Classification(Verdict.HYPERBOLIC_FAKE_SADDLE, ratio=1 - c,
                              warnings=warnings)
    if d_is_zero:
        if semi:
            return Classification(Verdict.SEMI_HYPERBOLIC_FAKE_SADDLE,
                                  warnings=warnings)
        if ab_excluded:
            return Classification(Verdict.BOUNDARY_INDETERMINATE,
                                  warnings=warnings)
        d = 0 * d  # one double root
    # the quadratic's discriminant equals -d; v = 0 is the chart's origin
    locs = [v for v in split_roots((b - a) / 2, -d) if v != 0]
    return Classification(Verdict.NOT_FAKE_SADDLE, extra_count=len(locs),
                          extra_locations=tuple(float(v) for v in locs),
                          warnings=warnings)
