"""Exact sparse bivariate polynomials and planar polynomial vector fields.

A field is its two components (p, q).  ``newton_weights`` reads the
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
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, Tuple, Union

Coeff = Union[Fraction, float]
Exponents = Tuple[int, int]

NEG_INF = float("-inf")


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

    # -- serialization / display -------------------------------------------

    def to_json(self) -> dict:
        out = {"terms": [[i, j, coeff_json(c)]
                         for (i, j), c in sorted(self.terms.items())]}
        if self.is_float:
            out["mode"] = "float"
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Poly2":
        """The polynomial of ``to_json``'s form: "terms", a list of [i, j,
        coeff] with non-negative int exponents, a number or "num/den"
        string, not a bool, as coeff and no (i, j) twice, and an optional
        "mode", "float" or "exact".  Anything else is a ValueError."""
        if not (isinstance(data, dict) and "terms" in data
                and set(data) <= {"terms", "mode"}):
            raise ValueError('a polynomial has the key "terms" and at most '
                             f'"mode"; got {data!r}')
        mode = data.get("mode", "exact")
        if mode not in ("float", "exact"):
            raise ValueError(f'"mode" must be "float" or "exact", got {mode!r}')
        if not isinstance(data["terms"], list):
            raise ValueError(f'"terms" must be a list, got {data["terms"]!r}')
        terms = {}
        for term in data["terms"]:
            i, j, c = term if type(term) is list and len(term) == 3 else \
                (None, None, None)
            if not (type(i) is int and type(j) is int and i >= 0 and j >= 0):
                raise ValueError("a term is [i, j, coeff] with non-negative "
                                 f"int exponents, got {term!r}")
            if type(c) not in (int, float, str):
                raise ValueError(f"the coefficient of term ({i}, {j}) must be "
                                 f'a number or a "num/den" string, got {c!r}')
            if (i, j) in terms:
                raise ValueError(f"term ({i}, {j}) appears twice")
            terms[(i, j)] = float(c) if mode == "float" else Fraction(c)
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


def _horner_expr(literals: Dict[Exponents, str]) -> str:
    """Source of sparse Horner, rows in x nested in y, over ``_literals``.

    The nesting is that of dense Horner over the full (i, j) grid,
    ((c00 + x*(c10 + ...)) + y*(row1 + y*...)), with only the nonzero
    coefficients written (``_horner_rows``).  Left out are the ``0.0+``
    addends, each row's trailing ``x*0.0`` tail, all-zero rows and the
    factors ``*1.0`` and ``*-1.0`` (written ``x`` and ``-x``).  For finite
    x and y each is an exact IEEE identity up to the sign of a zero, and
    every other operation is done in the same order, so the value is bit
    for bit the dense scheme's, except that a zero may come out as -0.0.
    Dense Horner never returns -0.0; one ``0.0+`` kept at the outermost
    level turns it back into 0.0.
    """
    if not literals:
        return "0.0"
    return f"0.0+{_horner_rows(literals, 'x', 'y')}"


def _coeff_literal(c: Coeff, i: int, j: int, name: str) -> str:
    """The float literal of the coefficient ``c`` of x^i y^j in the field's
    component ``name``, p or q: ValueError where its float is not finite,
    an exact ``c`` beyond float range included (repr(inf) and repr(nan)
    are not Python literals)."""
    try:
        f = float(c)
    except OverflowError:
        f = math.inf if c > 0 else -math.inf
    if not math.isfinite(f):
        raise ValueError(f"coefficient of x^{i} y^{j} in {name} is {f} as a "
                         "float; only finite coefficients compile")
    return repr(f)


def _literals(field: "PlanarField") -> Tuple[Dict[Exponents, str], ...]:
    """p's and q's {(i, j): ``_coeff_literal`` of x^i y^j}."""
    return tuple({(i, j): _coeff_literal(c, i, j, name)
                  for (i, j), c in poly.terms.items()}
                 for name, poly in (("p", field.p), ("q", field.q)))


def _horner_rows(literals: Dict[Exponents, str], x: str, y: str) -> str:
    """Sparse Horner in ``x`` nested in ``y`` over {(i, j): literal}."""
    rows: Dict[int, Dict[int, str]] = {}
    for (i, j), k in literals.items():
        rows.setdefault(j, {})[i] = k
    return _horner_nest({j: _horner_nest(row, x) for j, row in rows.items()},
                        y)


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


def _compile(src: str, kind: str):
    """The ``_f`` that ``src`` defines, a function or a tuple of them,
    compiled under a label of its ``kind`` and a checksum of the source:
    profiles, which key their entries by file name, keep one entry per
    field, and tracebacks tell fields apart.  (zlib's crc32, because
    hashlib loads OpenSSL: about 4 MB of resident memory.)"""
    ns: dict = {"cos": math.cos, "sin": math.sin, "exp": math.exp,
                "inf": math.inf}
    digest = f"{zlib.crc32(src.encode()):08x}"
    # codegen over trusted numeric literals
    code = compile(src, f"<fakesaddle.polyfield {kind} {digest}>", "exec")
    exec(code, ns)  # noqa: S102
    return ns["_f"]


def _compile_horner_pair(field: "PlanarField"):
    p, q = _literals(field)
    return _compile(f"def _f(x, y):\n"
                    f"    return ({_horner_expr(p)}, {_horner_expr(q)})\n",
                    "field")


def _chart_stage(field: "PlanarField", a: int, b: int, d: int):
    """Source lines that set big_p and big_q to P = p/r^(d+a) and Q =
    q/r^(d+b) at x = r^a c, y = r^b s from r, c and s: each Horner in r
    over rows that sum coefficient*monomial, every power of r at least 0,
    after lines that bind the monomials c^i s^j.  Each power c^n and s^n,
    n > 1, is bound once as the product of two lower ones (c4 = c2*c2, c5
    = c4*c), and each mixed monomial that both P and Q have as c^i*s^j."""
    shared = field.p.terms.keys() & field.q.terms.keys()
    bound: Dict[str, str] = {}  # name: source, each after its factors

    def power(v: str, n: int) -> str:
        if n > 1 and f"{v}{n}" not in bound:
            bound[f"{v}{n}"] = (f"{power(v, n // 2)}*{power(v, n // 2)}"
                                if n % 2 == 0 else f"{power(v, n - 1)}*{v}")
        return f"{v}{n}" if n > 1 else v

    def term(i: int, j: int, k: str) -> str:
        if i and j and (i, j) in shared:
            mono = f"c{i}s{j}"
            bound.setdefault(mono, f"{power('c', i)}*{power('s', j)}")
        elif i and j:
            mono = f"({power('c', i)}*{power('s', j)})"
        elif i or j:
            mono = power("c", i) if i else power("s", j)
        else:
            return k
        return {"1.0": mono, "-1.0": f"-{mono}"}.get(k, f"{k}*{mono}")

    def chart_poly(literals: Dict[Exponents, str], shift: int) -> str:
        rows: Dict[int, list] = {}
        for (i, j), k in sorted(literals.items()):
            rows.setdefault(a * i + b * j - shift, []).append(term(i, j, k))
        sums = {}
        for e, row in rows.items():
            src = "+".join(row).replace("+-", "-")
            # in parentheses, so that r*(k*m) never regroups as (r*k)*m
            sums[e] = src if len(row) == 1 and "*" not in src else f"({src})"
        return _horner_nest(sums, "r") if sums else "0.0"

    p, q = _literals(field)
    big_p, big_q = chart_poly(p, d + a), chart_poly(q, d + b)
    return [f"    {n} = {src}" for n, src in
            [*bound.items(), ("big_p", big_p), ("big_q", big_q)]]


def _compile_weighted_polar(field: "PlanarField"):
    a, b, d = newton_weights(field)
    # float literals: CPython specialises float*float, not int*float
    a_c = "c" if a == 1 else f"{float(a)!r}*c"
    b_s = "s" if b == 1 else f"{float(b)!r}*s"
    stage = "\n".join([
        "    try:{clock}",
        "        c, s = cos(theta), sin(theta)",
        "        r = exp(rho)",
        "    except (ValueError, OverflowError):",
        "        return {fail}",
        *_chart_stage(field, a, b, d),
    ])
    theta_dot = f"{a_c}*big_q - {b_s}*big_p"
    return _compile("\n".join([
        "def _chart(rho, theta):",
        stage.format(clock="", fail="inf, inf"),
        f"    return c*big_p + s*big_q, {theta_dot}",
        "def _leg(sigma, phi_f, e):",
        "    e = float(e)",
        "    def _slope(t, rho):",
        "    " + stage.format(
            clock="\n        u = exp(e*t)\n"
                  "        theta = sigma*(phi_f + e*u if e else t)",
            fail="inf").replace("\n", "\n    "),
        f"        den = sigma*({theta_dot})",
        "        return u*(c*big_p + s*big_q)/den if den > 0.0 else inf",
        "    return _slope",
        "_f = _chart, _leg",
    ]) + "\n", "chart")


def _compile_x_dir_slope(field: "PlanarField"):
    if any(i + j < 2 for i, j in [*field.p.terms, *field.q.terms]) or any(
            j < 1 for _i, j in field.q.terms):
        raise ValueError("the X_DIR slope needs y to divide q and terms of "
                         f"degree at least 2 in p and q, got {field}")
    p, q = _literals(field)
    # x^i y^j = x^(i+j) w^j: Pt = p/x^2 and Qt = q/(x^2 w) in x and w
    pt, qt = (_horner_rows(terms, "x", "w") if terms else "0.0" for terms in (
        {(i + j - 2, j): k for (i, j), k in p.items()},
        {(i + j - 2, j - 1): k for (i, j), k in q.items()}))
    return _compile(f"""def _f(y0, sign):
    def _slope(s, v):
        try:
            x = sign*exp(sign*s)
            w = y0*exp(v)/x
        except ArithmeticError:
            return inf
        pt = {pt}
        return sign*({qt})/pt if pt > 0.0 else inf
    return _slope
""", "x_dir")


def _cached(value, name: str, build):
    """``build(value)``, a pure function of the frozen dataclass ``value``,
    built once and kept on it as ``name``."""
    out = value.__dict__.get(name)
    if out is None:
        out = build(value)
        object.__setattr__(value, name, out)
    return out


def _fields_state(value) -> dict:
    """``__getstate__`` without the ``_cached`` values: copies rebuild."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


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
        A coefficient whose float is not finite raises ValueError
        (``_coeff_literal``).  The field compiles once; later calls
        return the same function.
        """
        return _cached(self, "_rhs", _compile_horner_pair)

    def as_chart(self) -> Callable[[float, float], Tuple[float, float]]:
        """Compile the field in the weighted polar chart of its Newton
        weights (a, b, d) (``newton_weights``) to a fast float evaluator
        ``f(rho, theta) -> (rho', theta')``.

        Under x = r^a c, y = r^b s, r = exp(rho), c = cos(theta), s =
        sin(theta), each term p_ij x^i y^j of p is p_ij r^(a i + b j) c^i
        s^j, so P = p/r^(d+a) and Q = q/r^(d+b) are polynomials in (r, c,
        s), every power of r at least 0.  Each is compiled from the exact
        terms as Horner in r over rows that sum coefficient times c^i s^j,
        with no division and no float ``**``; each power of c and s and
        each monomial P and Q share is computed once (``_chart_stage``),
        and the weights enter as float literals.  With the
        time dt = (a c^2 + b s^2) dtau/r^d, rho' = c P + s Q and theta' =
        a c Q - b s P.  At r = 0 this is the principal part's value, so
        the chart holds at any depth.  An infinite theta or an exp(rho)
        that overflows gives (inf, inf), a product that overflows an
        infinite or NaN value: no call raises.  A coefficient whose float
        is not finite raises ValueError here, as in ``as_rhs``, an exact
        one beyond float range included.  The chart compiles
        once; later calls return the same function.
        """
        return _cached(self, "_chart", _compile_weighted_polar)[0]

    def as_chart_slope(self, sigma: float, phi_f: float,
                       e: int) -> Callable[[float, float], float]:
        """The slope ``g(t, rho) -> drho/dt`` of a chart orbit as a graph
        of rho over a clock t of phi = sigma theta, sigma = +-1, on the
        leg (sigma, phi_f, e).  With e = 0 the clock is phi itself and the
        slope (c P + s Q)/(sigma (a c Q - b s P)) at theta = sigma t; with
        e = +-1 it is phi = phi_f + e exp(e t), and the slope is u times
        that at u = exp(e t) = dphi/dt (u = 1.0 for e = 0, so both are one
        expression); inf where sigma theta' is not positive or a stage
        fails.  Near a fiber direction phi_f (``fiber_directions``), where
        drho/dphi behaves like a multiple of 1/(phi - phi_f), t = log(phi
        - phi_f) away from it (e = 1) and t = -log(phi_f - phi) toward it
        (e = -1) make the slope bounded.  Compiled once per field, with
        ``as_chart`` from one source; each call closes it over its leg, as
        ``as_x_dir_slope`` does."""
        leg = _cached(self, "_chart", _compile_weighted_polar)[1]
        return leg(sigma, phi_f, e)

    def as_x_dir_slope(self, y0, sign) -> Callable[[float, float], float]:
        """The slope ``f(s, v) -> dv/ds`` of v = log(y/y0) over s = -log(-x)
        (``sign`` -1) or log(x) (+1): |x| (q/y)/p = sign Qt/Pt at w = y/x,
        inf where Pt <= 0 or a stage fails.  Pt = p/x^2 and Qt = q/(x^2 w),
        ``blow_up``'s X_DIR chart, are Horner in x over w from the field's
        own terms, compiled once per field (ValueError unless y divides q
        and no term has degree < 2, or as ``as_rhs``); each call closes it
        over y0 and sign."""
        return _cached(self, "_x_dir", _compile_x_dir_slope)(y0, sign)

    __getstate__ = _fields_state

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


def fiber_directions(field: PlanarField) -> Tuple[float, ...]:
    """The axis directions theta in [0, 2*pi) at which theta' of the
    weighted polar chart (``PlanarField.as_chart``) vanishes at r = 0,
    read off the support under ``newton_weights``.  There theta' = a c Q
    - b s P is -b s P at c = 0, where P is p's principal term in y alone,
    and a c Q at s = 0, where Q is q's principal term in x alone.  So
    pi/2 and 3*pi/2 are fiber directions when p's principal part has no
    pure-y term (c divides theta'), 0 and pi when q's has no pure-x term
    (s divides it)."""
    a, b, d = newton_weights(field)
    no_y = not any(i == 0 and b * j == d + a for i, j in field.p.terms)
    no_x = not any(j == 0 and a * i == d + b for i, j in field.q.terms)
    return tuple(k * 0.5 * math.pi for k in range(4)
                 if (no_x, no_y)[k % 2])


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
