"""Exact sparse bivariate polynomials and planar polynomial vector fields.

A field is its two components (p, q).  Division is by a single term
only, as the blow-up charts (``blowup``) need it, and a quotient that is
not polynomial raises NotDivisible.  ``newton_weights`` reads the
weights of a field's quasi-homogeneous principal part off its support.

Coefficients are exact rationals (Fraction) by default.  A parallel
float-coefficient mode exists solely for irrational coordinate
rescalings; any operation touching a float-mode value yields a
float-mode result, and ``is_float`` flags every derived object so tests
know which comparisons must be exact and which are toleranced.

Input is validated once, at the public ``Poly2`` constructor: integer,
nonnegative exponents, coefficients coerced to Fraction or float, no
zeros, and the float mode applied to all or none.  Arithmetic keeps
those invariants by construction, so it builds its results through the
private ``Poly2._trusted``, which only drops zeros and applies the float
mode.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple, Union

Coeff = Union[Fraction, float]
Exponents = Tuple[int, int]

NEG_INF = float("-inf")


class NotDivisible(Exception):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, component: str, remainder: "Poly2"):
        self.component = component
        self.remainder = remainder
        super().__init__(
            f"component {component!r} is not divisible; remainder {remainder}"
        )


class SingularMap(Exception):
    """Affine coordinate change with zero determinant."""


def _coerce(c) -> Coeff:
    if isinstance(c, float):
        return float(c)
    return Fraction(c)


def coeff_json(c: Coeff):
    """A float as itself, an exact rational as the string "num/den"."""
    return c if isinstance(c, float) else f"{c.numerator}/{c.denominator}"


class Poly2:
    """Sparse bivariate polynomial: {(i, j): coeff} for x^i * y^j.

    No zero coefficients are stored; the zero polynomial has an empty
    term map and degree -inf.  If any coefficient is a float the whole
    polynomial is held in float mode.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponents, Coeff] | None = None):
        clean: Dict[Exponents, Coeff] = {}
        float_mode = False
        if terms:
            for (i, j), c in terms.items():
                i, j = int(i), int(j)
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i},{j})")
                c = _coerce(c)
                if c == 0:
                    continue
                if isinstance(c, float):
                    float_mode = True
                clean[(i, j)] = c
        if float_mode:
            # a nonzero Fraction can round to 0.0, which is dropped too
            clean = {k: f for k, v in clean.items() if (f := float(v))}
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: Dict[Exponents, Coeff]) -> "Poly2":
        """Wrap a term map computed from the coefficients of clean Poly2s.

        The keys must be nonnegative int pairs and the values Fraction or
        float, as arithmetic on existing terms guarantees; only zeros are
        dropped and the float-mode rule applied, in the public
        constructor's order.
        """
        if not all(terms.values()):
            terms = {k: c for k, c in terms.items() if c}
        if float in map(type, terms.values()):
            terms = {k: f for k, c in terms.items() if (f := float(c))}
        self = object.__new__(cls)
        self.terms = terms
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def gens(cls) -> Tuple["Poly2", "Poly2"]:
        """The two coordinate polynomials (x, y)."""
        return cls({(1, 0): 1}), cls({(0, 1): 1})

    @classmethod
    def from_univariate(cls, coeffs, var: int = 0) -> "Poly2":
        """Lift a coefficient list c0 + c1 t + ... into variable 0 or 1."""
        if var == 0:
            return cls({(k, 0): c for k, c in enumerate(coeffs)})
        return cls({(0, k): c for k, c in enumerate(coeffs)})

    # -- basic queries ---------------------------------------------------

    @property
    def is_float(self) -> bool:
        return any(isinstance(c, float) for c in self.terms.values())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(i + j for i, j in self.terms)

    def coeff(self, i: int, j: int) -> Coeff:
        return self.terms.get((i, j), Fraction(0))

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic -------------------------------------------------------

    def _as_poly(self, other) -> "Poly2":
        if isinstance(other, Poly2):
            return other
        return Poly2.const(other)

    def __add__(self, other) -> "Poly2":
        other = self._as_poly(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return Poly2._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2._trusted({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "Poly2":
        return self + (-self._as_poly(other))

    def __rsub__(self, other) -> "Poly2":
        return self._as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        other = self._as_poly(other)
        out: Dict[Exponents, Coeff] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return Poly2._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly2":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation and calculus ------------------------------------------

    def eval(self, x, y):
        """Exact on rational points, float otherwise.  At Poly2 arguments
        it is the composition p(x(u, v), y(u, v)), a Poly2, summed term by
        term as x^i * y^j * c."""
        total = Poly2() if isinstance(x, Poly2) or isinstance(y, Poly2) else 0
        powx: Dict[int, object] = {0: 1}
        powy: Dict[int, object] = {0: 1}

        def p(cache, base, n):
            if n not in cache:
                cache[n] = p(cache, base, n - 1) * base
            return cache[n]

        for (i, j), c in self.terms.items():
            total += p(powx, x, i) * p(powy, y, j) * c
        return total

    def __call__(self, x, y):
        return self.eval(x, y)

    def diff_x(self) -> "Poly2":
        return Poly2._trusted({(i - 1, j): i * c
                               for (i, j), c in self.terms.items() if i > 0})

    def diff_y(self) -> "Poly2":
        return Poly2._trusted({(i, j - 1): j * c
                               for (i, j), c in self.terms.items() if j > 0})

    def transpose(self) -> "Poly2":
        """Swap the two variables."""
        return Poly2._trusted({(j, i): c for (i, j), c in self.terms.items()})

    def _restrict(self, var: int):
        """Coefficient list of p(t, 0) (``var`` 0) or p(0, t) (``var`` 1)."""
        row = {k[var]: c for k, c in self.terms.items() if not k[1 - var]}
        out = [Fraction(0)] * (max(row, default=-1) + 1)
        for n, c in row.items():
            out[n] = c
        if self.is_float:
            out = [float(v) for v in out]
        return out

    def restrict_y0(self):
        """Coefficient list of p(x, 0)."""
        return self._restrict(0)

    def restrict_x0(self):
        """Coefficient list of p(0, y)."""
        return self._restrict(1)

    # -- division ----------------------------------------------------------

    def divide_exact(self, divisor: "Poly2") -> "Poly2":
        """Exact quotient self / divisor by a single term c x^i y^j.

        Any other divisor raises ValueError (ZeroDivisionError for zero);
        a quotient that is not polynomial raises NotDivisible carrying the
        terms that x^i y^j does not divide.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_monomial():
            raise ValueError(f"divisor {divisor} is not a single term")
        ((di, dj), dc), = divisor.terms.items()
        # c / 1 == c exactly, but only an exact 1 keeps c's mode
        unit = not isinstance(dc, float) and dc == 1
        out = {}
        rem = {}
        for (i, j), c in self.terms.items():
            if i >= di and j >= dj:
                out[(i - di, j - dj)] = c if unit else c / dc
            else:
                rem[(i, j)] = c
        if rem:
            raise NotDivisible("poly", Poly2._trusted(rem))
        return Poly2._trusted(out)

    # -- serialization / display -------------------------------------------

    def to_json(self) -> dict:
        out = {"terms": [[i, j, coeff_json(c)]
                         for (i, j), c in sorted(self.terms.items())]}
        if self.is_float:
            out["mode"] = "float"
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Poly2":
        terms = {}
        float_mode = data.get("mode") == "float"
        for i, j, c in data.get("terms", []):
            terms[(int(i), int(j))] = float(c) if float_mode else Fraction(c)
        return cls(terms)

    def __repr__(self):
        if not self.terms:
            return "Poly2(0)"

        def fmt(i, j, c):
            mono = ""
            if i:
                mono += "x" + (f"^{i}" if i > 1 else "")
            if j:
                mono += ("*" if mono else "") + "y" + (f"^{j}" if j > 1 else "")
            cs = str(c)
            if mono and c == 1:
                return mono
            if mono and c == -1:
                return f"-{mono}"
            return f"{cs}*{mono}" if mono else cs

        parts = [fmt(i, j, c) for (i, j), c in sorted(self.terms.items())]
        return "Poly2(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _horner_expr(poly: Poly2) -> str:
    """Source of a sparse Horner scheme: rows in x nested in y.

    The nesting is that of dense Horner over the full (i, j) grid,
    ((c00 + x*(c10 + ...)) + y*(row1 + y*...)), with only the nonzero
    coefficients written.  Left out are the ``0.0+`` addends, each row's
    trailing ``x*0.0`` tail, all-zero rows and the factors ``*1.0`` and
    ``*-1.0`` (written ``x`` and ``-x``).  For finite x and y each is an
    exact IEEE identity up to the sign of a zero, and every other
    operation is done in the same order, so the value is bit for bit the
    dense scheme's, except that a zero may come out as -0.0.  Dense
    Horner never returns -0.0; one ``0.0+`` kept at the outermost level
    turns it back into 0.0.
    """
    if poly.is_zero:
        return "0.0"
    rows: Dict[int, Dict[int, str]] = {}
    for (i, j), c in poly.terms.items():
        c = float(c)
        if not math.isfinite(c):
            # repr(inf) and repr(nan) are not Python literals
            raise ValueError(f"coefficient of x^{i} y^{j} is {c}; "
                             "only finite coefficients compile")
        rows.setdefault(j, {})[i] = repr(c)
    row_exprs = {j: _horner_nest(row, "x") for j, row in rows.items()}
    return f"0.0+{_horner_nest(row_exprs, 'y')}"


def _horner_nest(terms: Dict[int, str], var: str) -> str:
    """Horner in ``var`` over the nonzero ``terms`` {degree: source}."""
    top = max(terms)
    expr = terms[top]
    for d in range(top - 1, -1, -1):
        if expr == "1.0":
            expr = var
        elif expr == "-1.0":
            expr = f"-{var}"
        else:
            # parenthesized, so that x*(x*e) never regroups as (x*x)*e
            expr = f"({var}*{expr})"
        if d in terms:
            expr = f"({terms[d]}+{expr})"
    return expr


def _compile_horner_pair(p: Poly2, q: Poly2):
    src = (f"def _f(x, y):\n"
           f"    return ({_horner_expr(p)}, {_horner_expr(q)})\n")
    ns: dict = {}
    # codegen over trusted numeric literals.  The file name carries a
    # checksum of the source, so that profiles, which key their entries
    # by file name, keep one entry per field, and tracebacks tell fields
    # apart.  (zlib's crc32, because hashlib loads OpenSSL: about 4 MB of
    # resident memory.)
    digest = f"{zlib.crc32(src.encode()):08x}"
    code = compile(src, f"<fakesaddle.polyfield field {digest}>", "exec")
    exec(code, ns)  # noqa: S102
    return ns["_f"]


@dataclass(frozen=True)
class PlanarField:
    """Planar polynomial vector field p(x,y) d/dx + q(x,y) d/dy."""

    p: Poly2
    q: Poly2

    @property
    def is_float(self) -> bool:
        return self.p.is_float or self.q.is_float

    def as_rhs(self) -> Callable[[float, float], Tuple[float, float]]:
        """Compile to a fast float evaluator returning (p, q).

        Each component is a sparse nested Horner scheme: only the nonzero
        coefficients are written, and zero addends, zero rows and tails
        and the factors 1.0 and -1.0 are skipped.  For finite arguments
        each value is bit for bit that of dense Horner over the full
        (i, j) grid, signed zeros included; ``_horner_expr`` says why.
        The field compiles once; later calls return the same function.
        """
        rhs = self.__dict__.get("_rhs")
        if rhs is None:
            rhs = _compile_horner_pair(self.p, self.q)
            # a pure function of the frozen (p, q): safe to share
            object.__setattr__(self, "_rhs", rhs)
        return rhs

    def __getstate__(self):
        # the compiled function is a cache, not data: copies and pickles
        # leave it out and compile again
        return {k: v for k, v in self.__dict__.items() if k != "_rhs"}

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "PlanarField":
        if set(data) != {"p", "q"}:
            raise ValueError('a field has exactly the keys "p" and "q"; '
                             f"got {sorted(map(str, data))}")
        return cls(Poly2.from_json(data["p"]), Poly2.from_json(data["q"]))


@dataclass(frozen=True)
class AffineMap2:
    """Affine coordinate change (x, y) = L*(u, v) + t with invertible L."""

    m11: Coeff
    m12: Coeff
    m21: Coeff
    m22: Coeff
    t1: Coeff = 0
    t2: Coeff = 0

    def __post_init__(self):
        for name in ("m11", "m12", "m21", "m22", "t1", "t2"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))

    @classmethod
    def scaling(cls, sx, sy) -> "AffineMap2":
        return cls(sx, 0, 0, sy)

    @classmethod
    def translation(cls, tx, ty) -> "AffineMap2":
        return cls(1, 0, 0, 1, tx, ty)

    @property
    def det(self) -> Coeff:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "AffineMap2":
        d = self.det
        if d == 0:
            raise SingularMap("affine map has zero determinant")
        i11, i12 = self.m22 / d, -self.m12 / d
        i21, i22 = -self.m21 / d, self.m11 / d
        return AffineMap2(i11, i12, i21, i22,
                          -(i11 * self.t1 + i12 * self.t2),
                          -(i21 * self.t1 + i22 * self.t2))

    def as_polys(self) -> Tuple[Poly2, Poly2]:
        return (Poly2({(1, 0): self.m11, (0, 1): self.m12, (0, 0): self.t1}),
                Poly2({(1, 0): self.m21, (0, 1): self.m22, (0, 0): self.t2}))


# -- field operations ---------------------------------------------------------


def newton_weights(field: PlanarField) -> Tuple[int, int, int]:
    """Weights (a, b) and weighted degree d of the field's principal part.

    The Newton diagram has a point (i - 1, j) for each term x^i y^j of p
    and (i, j - 1) for each term of q.  (a, b) is the primitive normal of
    the compact edge of its lower-left hull with the largest max(a, b)/
    min(a, b), the leftmost of equals, or (1, 1) where there is none; d
    is the least a*u + b*v over the points, so that x = r^a c, y = r^b s
    make p = r^(d+a) P and q = r^(d+b) Q, with P and Q polynomial in r.
    Only the support counts: the result is exact for any coefficients.
    """
    pts = ({(i - 1, j) for i, j in field.p.terms}
           | {(i, j - 1) for i, j in field.q.terms})
    if not pts:
        return 1, 1, 0
    end = min(pts, key=lambda pt: (pt[1], pt[0]))  # lowest, then leftmost
    hull: list = []
    for u, v in sorted(pt for pt in pts if pt[0] < end[0]) + [end]:
        # Andrew's lower hull, in integers: drop clockwise and straight turns
        while len(hull) > 1:
            (u0, v0), (u1, v1) = hull[-2:]
            if (u1 - u0) * (v - v0) > (v1 - v0) * (u - u0):
                break
            hull.pop()
        hull.append((u, v))
    a, b = 1, 1
    for (u1, v1), (u2, v2) in zip(hull, hull[1:]):
        g = math.gcd(v1 - v2, u2 - u1)
        ea, eb = (v1 - v2) // g, (u2 - u1) // g
        if max(ea, eb) * min(a, b) > max(a, b) * min(ea, eb):
            a, b = ea, eb
    return a, b, min(a * u + b * v for u, v in pts)


def pullback_affine(field: PlanarField, amap: AffineMap2) -> PlanarField:
    """Conjugate the field by an affine coordinate change.

    Irrational scale factors enter as floats; the result is then in
    float-coefficient mode (see PlanarField.is_float).
    """
    inv = amap.inverse()  # raises SingularMap
    sx, sy = amap.as_polys()
    p_sub = field.p.eval(sx, sy)
    q_sub = field.q.eval(sx, sy)
    return PlanarField(p_sub * inv.m11 + q_sub * inv.m12,
                       p_sub * inv.m21 + q_sub * inv.m22)
