"""Homogeneous elements over the two power-series coordinate rings and
the approximation machinery between them.

Elements here are finite sums of monomials in T_0, ..., T_{n-1} with
exponents in Z[1/p] (denominators capped by the config) and coefficients
from the digit rings; every term of one element shares a single total
degree.  The pivotal algorithm takes an integral homogeneous f on the
characteristic-0 side and produces a characteristic-p element g whose
sharp image tracks f up to a quantified error:

    |f(x) - g^sharp(x)| <= |w|^(1-eps) * max(|f(x)|, |w|^c)

at every point of the unit polydisc, where w is the uniformizer.  The
contract verifier checks exactly that inequality (and the max-equality
it implies) pointwise; it shares only the digit arithmetic with the
construction and is the authority on whether an approximation is
acceptable.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping

from .arith import (
    ConfigError,
    DencapError,
    DivisionError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    ValExp,
    divide_exact,
    element_from_json,
    lift_mod_uniformizer,
    reduce_mod_uniformizer,
)
from .tiltkit import sharp


class ApproximationError(KernelError):
    """The expansion step cannot represent a remainder within budget."""


_KIND_CLASS = {"tilt": TiltElement, "untilt": UntiltElement}


def _exp_json(f: Fraction, p: int) -> dict:
    v = ValExp.from_fraction(f, p)
    return {"num": v.num, "denpow": v.denpow}


def _exp_from_json(data: dict, p: int) -> Fraction:
    return Fraction(int(data["num"]), p ** int(data["denpow"]))


# =====================================================================
# Monomials
# =====================================================================

class Monomial:
    """Exponent vector over the variables T_0, ..., T_{n-1}.

    Entries are nonnegative elements of Z[1/p] on the dencap lattice.
    Monomials are immutable and usable as dict keys; the order used for
    leading-term selection is graded lexicographic (total degree first,
    then entrywise comparison).
    """

    __slots__ = ("config", "exps")

    def __init__(self, config: FieldConfig, exps):
        tup = tuple(config.exp(Fraction(e) if not isinstance(e, ValExp)
                               else e.as_fraction())
                    for e in exps)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "exps", tup)

    def __setattr__(self, name, value):
        raise AttributeError("monomials are immutable")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def total_degree(self) -> Fraction:
        return sum((e.as_fraction() for e in self.exps), Fraction(0))

    def sort_key(self):
        return (self.total_degree(),
                tuple(e.as_fraction() for e in self.exps))

    def scaled(self, factor: Fraction) -> "Monomial":
        """Entrywise multiple; the route to fractional powers T^(e*i)."""
        f = Fraction(factor)
        if f < 0:
            raise KernelError(f"negative monomial power {f}")
        return Monomial(self.config,
                        [e.as_fraction() * f for e in self.exps])

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a.as_fraction() <= b.as_fraction()
                   for a, b in zip(self.exps, other.exps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.config,
                        [a.as_fraction() + b.as_fraction()
                         for a, b in zip(self.exps, other.exps)])

    def __truediv__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        diffs = [a.as_fraction() - b.as_fraction()
                 for a, b in zip(self.exps, other.exps)]
        if any(d < 0 for d in diffs):
            raise DivisionError(f"{other!r} does not divide {self!r}")
        return Monomial(self.config, diffs)

    def _check(self, other):
        if not isinstance(other, Monomial):
            raise ConfigError(f"expected a monomial, got {type(other).__name__}")
        if other.config != self.config or other.nvars != self.nvars:
            raise ConfigError("monomials over different variable sets")

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.config == other.config and self.exps == other.exps

    def __lt__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        self._check(other)
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash((self.config, self.exps))

    def to_json(self) -> list:
        return [{"num": e.num, "denpow": e.denpow} for e in self.exps]

    @classmethod
    def from_json(cls, config: FieldConfig, data: list) -> "Monomial":
        return cls(config, [_exp_from_json(d, config.p) for d in data])

    def __repr__(self):
        parts = []
        for j, e in enumerate(self.exps):
            f = e.as_fraction()
            if f == 0:
                continue
            if f == 1:
                parts.append(f"T{j}")
            elif f.denominator == 1:
                parts.append(f"T{j}^{f.numerator}")
            else:
                parts.append(f"T{j}^({f})")
        return "*".join(parts) if parts else "1"


# =====================================================================
# Homogeneous elements
# =====================================================================

class HomogeneousElement:
    """A finite sum of monomials of one total degree.

    ``terms`` maps Monomial -> digit element of the stated kind; zero
    coefficients are dropped and every coefficient is truncated to the
    common precision exponent (the minimum of the given bound and the
    coefficients' own bounds).  Immutable, with structural equality.
    """

    __slots__ = ("config", "kind", "nvars", "degree", "terms", "precexp")

    def __init__(self, config: FieldConfig, kind: str, nvars: int,
                 degree, terms: Mapping[Monomial, object] | None = None,
                 precexp=None):
        if kind not in _KIND_CLASS:
            raise ConfigError(f"unknown element kind {kind!r}")
        if not isinstance(nvars, int) or nvars < 1:
            raise ConfigError(f"variable count must be a positive integer, "
                              f"got {nvars!r}")
        d = Fraction(degree)
        config.exp(d)    # degree must sit on the exponent lattice
        cls = _KIND_CLASS[kind]
        items = dict(terms or {})
        kf = Fraction(config.prec) if precexp is None else Fraction(precexp)
        if kf < 0:
            raise PrecisionError(f"negative precision exponent {kf}")
        kf = min(kf, Fraction(config.prec))
        for mono, coeff in items.items():
            if not isinstance(mono, Monomial) or mono.config != config:
                raise ConfigError(f"bad monomial key {mono!r}")
            if mono.nvars != nvars:
                raise ConfigError(
                    f"monomial {mono!r} has {mono.nvars} variables, "
                    f"element has {nvars}")
            if mono.total_degree() != d:
                raise KernelError(
                    f"monomial {mono!r} has degree {mono.total_degree()}, "
                    f"element is homogeneous of degree {d}")
            if not isinstance(coeff, cls):
                raise ConfigError(
                    f"coefficient kind {getattr(coeff, 'kind', '?')} does "
                    f"not match element kind {kind}")
            if coeff.config != config:
                raise ConfigError("coefficient config mismatch")
            kf = min(kf, coeff.precexp.as_fraction())
        acc = {}
        for mono, coeff in items.items():
            cut = coeff.with_precision(kf)
            if not cut.is_zero():
                acc[mono] = cut
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "terms", acc)
        object.__setattr__(self, "precexp", kf)

    def __setattr__(self, name, value):
        raise AttributeError("homogeneous elements are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config: FieldConfig, kind: str, nvars: int, degree,
             precexp=None) -> "HomogeneousElement":
        return cls(config, kind, nvars, degree, {}, precexp)

    @classmethod
    def one(cls, config: FieldConfig, kind: str,
            nvars: int) -> "HomogeneousElement":
        mono = Monomial(config, [0] * nvars)
        coeff = _KIND_CLASS[kind].one(config)
        return cls(config, kind, nvars, 0, {mono: coeff})

    @classmethod
    def variable(cls, config: FieldConfig, kind: str, nvars: int,
                 j: int, coeff=None) -> "HomogeneousElement":
        """coeff * T_j (coefficient defaults to 1)."""
        if not 0 <= j < nvars:
            raise ConfigError(f"variable index {j} out of range")
        exps = [0] * nvars
        exps[j] = 1
        if coeff is None:
            coeff = _KIND_CLASS[kind].one(config)
        return cls(config, kind, nvars, 1,
                   {Monomial(config, exps): coeff})

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple:
        """(monomial, coefficient) at the graded-lex maximum."""
        if not self.terms:
            raise KernelError("the zero element has no leading term")
        mono = max(self.terms, key=Monomial.sort_key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(),
                      key=lambda kv: kv[0].sort_key(), reverse=True)

    # -- precision -------------------------------------------------------

    def with_precision(self, precexp) -> "HomogeneousElement":
        """Truncates, or promotes every coefficient as a chosen
        representative of its residue class."""
        kf = Fraction(precexp)
        return HomogeneousElement(
            self.config, self.kind, self.nvars, self.degree,
            {m: c.with_precision(kf) for m, c in self.terms.items()}, kf)

    # -- ring structure --------------------------------------------------

    def _check(self, other, same_degree: bool):
        if not isinstance(other, HomogeneousElement):
            raise ConfigError(
                f"expected a homogeneous element, got {type(other).__name__}")
        if (other.config != self.config or other.kind != self.kind
                or other.nvars != self.nvars):
            raise ConfigError("homogeneous elements are not compatible")
        if same_degree and other.degree != self.degree:
            raise KernelError(
                f"degree mismatch: {self.degree} vs {other.degree} "
                f"(sums of homogeneous elements must share one degree)")

    def __add__(self, other):
        self._check(other, same_degree=True)
        acc = dict(self.terms)
        cls = _KIND_CLASS[self.kind]
        for mono, coeff in other.terms.items():
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = coeff
        kf = min(self.precexp, other.precexp)
        return HomogeneousElement(self.config, self.kind, self.nvars,
                                  self.degree, acc, kf)

    def __neg__(self):
        return HomogeneousElement(
            self.config, self.kind, self.nvars, self.degree,
            {m: -c for m, c in self.terms.items()}, self.precexp)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other, same_degree=False)
        acc: dict[Monomial, object] = {}
        kf = Fraction(self.config.prec)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = c1 * c2
                mono = m1 * m2
                if mono in acc:
                    acc[mono] = acc[mono] + prod
                else:
                    acc[mono] = prod
                kf = min(kf, prod.precexp.as_fraction())
        if not acc:
            # precision of an invisible product, from the factors' bounds
            kf = min(self.precexp + other._gauss_bound(),
                     other.precexp + self._gauss_bound(),
                     Fraction(self.config.prec))
        return HomogeneousElement(self.config, self.kind, self.nvars,
                                  self.degree + other.degree, acc, kf)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise KernelError(f"integer power expected, got {n!r}")
        out = HomogeneousElement.one(self.config, self.kind, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scalar_mul(self, x) -> "HomogeneousElement":
        """Multiplies every coefficient by the ring constant x."""
        cls = _KIND_CLASS[self.kind]
        if not isinstance(x, cls):
            raise ConfigError(
                f"scalar kind {getattr(x, 'kind', type(x).__name__)} does "
                f"not match element kind {self.kind}")
        if self.is_zero():
            kf = min(self.precexp + x._effective_valuation(),
                     Fraction(self.config.prec))
            return HomogeneousElement(self.config, self.kind, self.nvars,
                                      self.degree, {}, kf)
        return HomogeneousElement(
            self.config, self.kind, self.nvars, self.degree,
            {m: c * x for m, c in self.terms.items()})

    def _gauss_bound(self) -> Fraction:
        # Certified lower bound on the Gauss valuation, always finite.
        if not self.terms:
            return self.precexp
        return min(c.valuation().as_fraction() for c in self.terms.values())

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, HomogeneousElement):
            return NotImplemented
        return (self.config == other.config and self.kind == other.kind
                and self.nvars == other.nvars
                and self.degree == other.degree
                and self.precexp == other.precexp
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.config, self.kind, self.nvars, self.degree,
                     self.precexp, frozenset(self.terms.items())))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.config.p,
            "prec": self.config.prec,
            "dencap": self.config.dencap,
            "nvars": self.nvars,
            "degree": _exp_json(self.degree, self.config.p),
            "precexp": _exp_json(self.precexp, self.config.p),
            "terms": [{"exps": m.to_json(), "coeff": c.to_json()}
                      for m, c in self.sorted_terms()],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, data: dict | str) -> "HomogeneousElement":
        if isinstance(data, str):
            data = json.loads(data)
        try:
            config = FieldConfig(int(data["p"]), int(data["prec"]),
                                 int(data["dencap"]))
            kind = data["kind"]
            terms = {}
            for row in data["terms"]:
                mono = Monomial.from_json(config, row["exps"])
                coeff = element_from_json(row["coeff"])
                terms[mono] = coeff
            nvars = int(data["nvars"])
            degree = _exp_from_json(data["degree"], config.p)
            precexp = _exp_from_json(data["precexp"], config.p)
        except (KeyError, TypeError) as exc:
            raise KernelError(
                f"malformed homogeneous element JSON: {exc}") from exc
        return cls(config, kind, nvars, degree, terms, precexp)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"({c.to_text()})*{m!r}"
                              for m, c in self.sorted_terms())
        return (f"<hom {self.kind} deg {self.degree} {body} "
                f"| O^{self.precexp}>")


# =====================================================================
# Moving elements across the correspondence
# =====================================================================

def sharp_element(g: HomogeneousElement,
                  target_prec: int) -> HomogeneousElement:
    """The multiplicative lift, term by term.

    Coefficients go through the digit-ring sharp; monomials carry over
    unchanged (T_j on one side names T_j on the other).

    Args:
        g: homogeneous element over the tilt.
        target_prec: positive integer <= the working precision.

    Returns:
        The homogeneous element over the untilt with coefficients
        sharp(a_M), same degree.

    Raises:
        PrecisionError, DencapError: propagated from the coefficient
            lifts.
    """
    if not isinstance(g, HomogeneousElement) or g.kind != "tilt":
        raise ConfigError("sharp_element expects a tilt homogeneous element")
    terms = {m: sharp(c, target_prec) for m, c in g.terms.items()}
    return HomogeneousElement(g.config, "untilt", g.nvars, g.degree,
                              terms, target_prec)


def reduce_element(f: HomogeneousElement) -> HomogeneousElement:
    """The residue modulo the uniformizer, written on the tilt side."""
    if not isinstance(f, HomogeneousElement) or f.kind != "untilt":
        raise ConfigError("reduce_element expects an untilt homogeneous "
                          "element")
    terms = {m: reduce_mod_uniformizer(c) for m, c in f.terms.items()}
    return HomogeneousElement(f.config, "tilt", f.nvars, f.degree, terms,
                              min(f.precexp, Fraction(1)))


def lift_element(g: HomogeneousElement) -> HomogeneousElement:
    """The digit-preserving section of reduce_element."""
    if not isinstance(g, HomogeneousElement) or g.kind != "tilt":
        raise ConfigError("lift_element expects a tilt homogeneous element")
    terms = {m: lift_mod_uniformizer(c) for m, c in g.terms.items()}
    return HomogeneousElement(g.config, "untilt", g.nvars, g.degree, terms,
                              min(g.precexp, Fraction(1)))


def _residue_lift(f: HomogeneousElement) -> HomogeneousElement:
    # Tilt element matching f mod w, promoted to a full-precision
    # representative (digits of the residue are exact by convention).
    config = f.config
    terms = {m: reduce_mod_uniformizer(c).with_precision(config.prec)
             for m, c in f.terms.items()}
    return HomogeneousElement(config, "tilt", f.nvars, f.degree, terms,
                              config.prec)


def tilt_power(g: HomogeneousElement, i) -> HomogeneousElement:
    """g^i for rational i >= 0 in Z[1/p], on the tilt side.

    Fractional powers are exact in characteristic p: the p-th root acts
    digit by digit on coefficients and divides monomial exponents by p.
    The input is treated as an exact finite expansion, so the result is
    produced at full working precision.

    Raises:
        DencapError: a rooted exponent leaves the dencap lattice.
    """
    if not isinstance(g, HomogeneousElement) or g.kind != "tilt":
        raise ConfigError("tilt_power expects a tilt homogeneous element")
    frac = Fraction(i)
    if frac < 0:
        raise KernelError(f"nonnegative power expected, got {frac}")
    config = g.config
    ve = ValExp.from_fraction(frac, config.p, config.dencap)
    if frac == 0 or g.is_zero():
        if frac == 0:
            return HomogeneousElement.one(config, "tilt", g.nvars)
        return HomogeneousElement.zero(config, "tilt", g.nvars,
                                       g.degree * frac, g.precexp)
    pm = config.p ** ve.denpow
    rooted = HomogeneousElement(
        config, "tilt", g.nvars, g.degree / pm,
        {m.scaled(Fraction(1, pm)): c.root(ve.denpow)
         for m, c in g.terms.items()},
        config.prec)
    return rooted ** ve.num


def decompose(f: HomogeneousElement, c: int) -> list:
    """Writes f as g_0^sharp + w*g_1^sharp + ... + w^c*g_c^sharp.

    Greedy slicing: each g_i is the residue of the running remainder
    modulo the uniformizer, reinterpreted on the tilt side and promoted
    to a full-precision representative; the matched sharp image is
    subtracted and the remainder divided by w.  The recombination
    agrees with f modulo w^(c+1).

    Args:
        f: homogeneous element over the untilt (integral by
            representation).
        c: nonnegative integer depth.

    Returns:
        List [g_0, ..., g_c] of tilt homogeneous elements.

    Raises:
        PrecisionError: f is not known modulo w^(c+1).
    """
    if not isinstance(f, HomogeneousElement) or f.kind != "untilt":
        raise ConfigError("decompose expects an untilt homogeneous element")
    if not isinstance(c, int) or c < 0:
        raise KernelError(f"depth must be a nonnegative integer, got {c!r}")
    if f.precexp < c + 1:
        raise PrecisionError(
            f"decomposition to depth {c} needs f modulo w^{c + 1}, "
            f"have w^{f.precexp}")
    config = f.config
    out = []
    cur = f
    for i in range(c + 1):
        gi = _residue_lift(cur)
        out.append(gi)
        if i == c:
            break
        # the remainder only matters modulo w^(c+1-i), so the sharp is
        # taken at that target; deeper targets would root the digit
        # exponents further than the dencap lattice can hold
        diff = cur - sharp_element(gi, c + 1 - i)
        # digits below exponent 1 cancel exactly, so the shift is exact
        cur = HomogeneousElement(
            config, "untilt", f.nvars, f.degree,
            {m: co.shift(-1) for m, co in diff.terms.items()},
            diff.precexp - 1)
    return out


# =====================================================================
# The approximation algorithm
# =====================================================================

def _expand(h: HomogeneousElement, g: HomogeneousElement, cur: Fraction,
            mu: Fraction, target: int, grid_denpow: int,
            budget: int = 4096) -> dict:
    """Writes h = sum_i w^(mu - cur*i) (g^i)^sharp r_i over the grid
    i in {0, 1/p^m, ..., 1}, m = grid_denpow.

    Greedy division: the leading monomial of the remainder is matched
    against the leading monomial of (g^i)^sharp for decreasing i, taking
    the first grid point where the monomial divides and the coefficient
    stays integral.  i = 0 always divides, so the step fails only when a
    remainder coefficient sits below w^mu.  Each round cancels the
    leading monomial exactly and introduces strictly smaller ones, so
    the loop terminates on the finite monomial lattice.

    The grid resolution follows the step schedule, not the full dencap
    lattice: a finer grid could only swap a match for a slightly larger
    power at p^dencap-sized scan cost, and divisibility survives the
    coarsening.

    Returns:
        dict i -> r_i (untilt homogeneous elements of degree d*(1-i)).

    Raises:
        ApproximationError: a remainder term is too shallow for w^mu, or
            the round budget is exhausted.
    """
    config = h.config
    pm = config.p ** grid_denpow
    grid = [Fraction(k, pm) for k in range(pm, -1, -1)]
    powers: dict[Fraction, HomogeneousElement] = {}
    result: dict[Fraction, HomogeneousElement] = {}
    work = h
    rounds = 0
    while not work.is_zero():
        rounds += 1
        if rounds > budget:
            raise ApproximationError(
                f"expansion did not terminate within {budget} rounds; "
                f"remainder {work!r}")
        mono, coeff = work.leading()
        placed = False
        for i in grid:
            shift_exp = mu - cur * i
            try:
                config.exp(shift_exp)
                if i not in powers:
                    powers[i] = sharp_element(tilt_power(g, i), target)
            except DencapError:
                continue    # grid point unusable at this lattice
            gi = powers[i]
            if gi.is_zero():
                continue
            lead_mono, lead_coeff = gi.leading()
            if not lead_mono.divides(mono):
                continue
            need = shift_exp + lead_coeff.valuation().as_fraction()
            if coeff.valuation().as_fraction() < need:
                continue
            q_coeff = divide_exact(coeff.shift(-shift_exp), lead_coeff)
            r_term = HomogeneousElement(
                config, "untilt", h.nvars, h.degree - h.degree * i,
                {mono / lead_mono: q_coeff})
            scalar = UntiltElement.monomial(config, 1, shift_exp)
            work = work - (gi * r_term).scalar_mul(scalar)
            if i in result:
                result[i] = result[i] + r_term
            else:
                result[i] = r_term
            placed = True
            break
        if not placed:
            raise ApproximationError(
                f"no grid power of the approximant divides the remainder "
                f"at {mono!r} above w^{mu}; remainder {work!r}")
    return {i: r for i, r in result.items() if not r.is_zero()}


def approximate(f: HomogeneousElement, c, eps) -> HomogeneousElement:
    """A tilt element g whose sharp image approximates f.

    The output satisfies, at every point x of the unit polydisc,

        |f(x) - g^sharp(x)| <= |w|^(1-eps) * max(|f(x)|, |w|^c),

    certified pointwise by verify_contract rather than assumed.  The
    construction walks c upward in steps of a = eps/p, keeping a fixed
    slack strictly between a and eps: at each stage the residual
    h = f - g^sharp is expanded along powers of g by greedy division and
    the expansion is reflected back onto the tilt side through the
    residue of each cofactor.  Stages stop early when the residual
    vanishes at working precision.

    Args:
        f: homogeneous element over the untilt (integral by
            representation), known at least modulo w^(c+1).
        c: target depth, a nonnegative rational in Z[1/p].
        eps: loss budget, a rational in Z[1/p] with 0 < eps < 1.

    Returns:
        Homogeneous tilt element of the same degree, full precision.

    Raises:
        PrecisionError: f is too coarse for the requested depth.
        DencapError: the step schedule or an expansion exponent leaves
            the dencap lattice.
        ApproximationError: an expansion step fails.
    """
    if not isinstance(f, HomogeneousElement) or f.kind != "untilt":
        raise ConfigError("approximate expects an untilt homogeneous element")
    config = f.config
    cf = Fraction(c)
    ef = Fraction(eps)
    if cf < 0:
        raise KernelError(f"depth must be nonnegative, got {cf}")
    if not 0 < ef < 1:
        raise KernelError(f"loss budget must satisfy 0 < eps < 1, got {ef}")
    config.exp(cf)
    config.exp(ef)
    if f.precexp < cf + 1:
        raise PrecisionError(
            f"approximation to depth {cf} needs f modulo w^{cf + 1}, "
            f"have w^{f.precexp}")
    p = config.p
    a = ef / p
    # slack strictly between a and eps keeps every stage bound strict;
    # stationary is enough because the division is exact when it
    # succeeds (nothing is lost stage over stage)
    slack = 2 * a if p > 2 else a * Fraction(3, 2)
    config.exp(a)
    config.exp(slack)
    # the contract only constrains valuations below c + 1, and every
    # sharp at target k roots digit exponents by p^(k-1); refining at
    # the shallowest sufficient target keeps repeated stages from
    # walking off the dencap lattice
    depth_target = min(config.prec, math.ceil(cf) + 1)
    grid_denpow = min(config.dencap, config.exp(ef).denpow + 1)
    g = _residue_lift(f)
    cur = Fraction(0)
    while cur < cf:
        h = f - sharp_element(g, depth_target)
        if h.is_zero():
            break
        mu = cur + 1 - slack
        config.exp(mu)
        slices = _expand(h, g, cur, mu, depth_target, grid_denpow)
        delta = None
        for i, r_i in sorted(slices.items(), reverse=True):
            s_i = _residue_lift(r_i)
            if s_i.is_zero():
                continue
            scalar = TiltElement.monomial(config, 1, mu - cur * i)
            term = (tilt_power(g, i) * s_i).scalar_mul(scalar)
            delta = term if delta is None else delta + term
        if delta is not None:
            g = g + delta
        cur += a
    return g


# =====================================================================
# Points of the unit polydisc and evaluation
# =====================================================================

class GaussPoint:
    """The sup-norm point: |f| is the maximum coefficient size."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": "gauss"}

    def __eq__(self, other):
        return isinstance(other, GaussPoint)

    def __hash__(self):
        return hash("gauss-point")

    def __repr__(self):
        return "<gauss point>"


class ClassicalPoint:
    """A coordinate tuple in the unit polydisc.

    Coordinates are untilt elements (integral by representation).  A
    coordinate may carry a tilt preimage; fractional powers of that
    coordinate are then taken through the preimage's exact roots, which
    is the only general source of p-power roots on the untilt side.
    """

    __slots__ = ("coords", "tilt_coords")

    def __init__(self, coords, tilt_coords=None):
        coords = tuple(coords)
        if not coords:
            raise ConfigError("a point needs at least one coordinate")
        config = None
        for x in coords:
            if not isinstance(x, UntiltElement):
                raise ConfigError(
                    f"coordinates must be untilt elements, got "
                    f"{getattr(x, 'kind', type(x).__name__)}")
            if config is None:
                config = x.config
            elif x.config != config:
                raise ConfigError("coordinate config mismatch")
        if tilt_coords is None:
            tilt_coords = (None,) * len(coords)
        else:
            tilt_coords = tuple(tilt_coords)
            if len(tilt_coords) != len(coords):
                raise ConfigError("tilt preimage tuple length mismatch")
            for x, y in zip(coords, tilt_coords):
                if y is None:
                    continue
                if not isinstance(y, TiltElement) or y.config != config:
                    raise ConfigError(f"bad tilt preimage {y!r}")
                image = sharp(y, config.prec).with_precision(
                    x.precexp.as_fraction())
                if image != x.with_precision(x.precexp.as_fraction()):
                    raise KernelError(
                        f"tilt preimage {y!r} does not lift to the "
                        f"coordinate {x!r}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "tilt_coords", tilt_coords)

    def __setattr__(self, name, value):
        raise AttributeError("points are immutable")

    @property
    def nvars(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ClassicalPoint):
            return NotImplemented
        return (self.coords == other.coords
                and self.tilt_coords == other.tilt_coords)

    def __hash__(self):
        return hash((self.coords, self.tilt_coords))

    def to_json(self) -> dict:
        out = {"kind": "classical",
               "coords": [x.to_json() for x in self.coords]}
        if any(y is not None for y in self.tilt_coords):
            out["tilt_coords"] = [None if y is None else y.to_json()
                                  for y in self.tilt_coords]
        return out

    def __repr__(self):
        inner = ", ".join(x.to_text() for x in self.coords)
        return f"<point ({inner})>"


def point_from_json(data: dict | str):
    if isinstance(data, str):
        data = json.loads(data)
    kind = data.get("kind")
    if kind == "gauss":
        return GaussPoint()
    if kind == "classical":
        coords = [element_from_json(d) for d in data["coords"]]
        tilts = data.get("tilt_coords")
        if tilts is not None:
            tilts = [None if d is None else element_from_json(d)
                     for d in tilts]
        return ClassicalPoint(coords, tilts)
    raise ConfigError(f"unknown point kind {kind!r}")


def _coord_power(x: UntiltElement, preimage, e: Fraction,
                 config: FieldConfig) -> UntiltElement:
    # x^e for e >= 0 in Z[1/p].  Exact p-power roots exist on the untilt
    # side only for zero, for pure powers of p, and through a tilt
    # preimage; anything else is reported, not guessed.
    if e == 0:
        return UntiltElement.one(config)
    ve = ValExp.from_fraction(e, config.p, config.dencap)
    if x.is_zero():
        return UntiltElement.zero(config, config.prec)
    if ve.denpow == 0:
        return x ** ve.num
    if preimage is not None:
        root = preimage.root(ve.denpow)
        return sharp(root, config.prec) ** ve.num
    digs = x.sorted_digits()
    if len(digs) == 1 and digs[0][1] == 1:
        root_exp = digs[0][0].as_fraction() / config.p ** ve.denpow
        config.exp(root_exp)
        return UntiltElement.monomial(config, 1, root_exp) ** ve.num
    raise IndeterminateError(
        f"no exact p-power root of the coordinate {x!r} is available; "
        f"supply a tilt preimage or keep exponents integral")


def _tilt_coord_power(y: TiltElement, e: Fraction,
                      config: FieldConfig) -> TiltElement:
    if e == 0:
        return TiltElement.one(config)
    ve = ValExp.from_fraction(e, config.p, config.dencap)
    if y.is_zero():
        return TiltElement.zero(config, config.prec)
    return y.root(ve.denpow) ** ve.num


def evaluate(F: HomogeneousElement, point):
    """F at a classical point, as an element of the matching ring.

    Untilt elements evaluate on the stored coordinates; tilt elements
    need every coordinate to carry a tilt preimage.  Coordinates are
    treated as exact data of the point.

    Raises:
        IndeterminateError: a fractional exponent needs a root the
            coordinate does not have.
    """
    if isinstance(point, GaussPoint):
        raise KernelError(
            "the Gauss point is a norm, not a coordinate tuple; use "
            "valuation_at")
    if not isinstance(point, ClassicalPoint):
        raise ConfigError(f"not a point: {point!r}")
    if point.nvars != F.nvars:
        raise ConfigError(
            f"point has {point.nvars} coordinates, element has {F.nvars}")
    config = F.config
    if F.kind == "tilt" and any(y is None for y in point.tilt_coords):
        raise KernelError(
            "evaluating a tilt element needs tilt preimages for every "
            "coordinate")
    acc = None
    for mono, coeff in F.sorted_terms():
        val = coeff
        for j, exp in enumerate(mono.exps):
            e = exp.as_fraction()
            if e == 0:
                continue
            if F.kind == "untilt":
                fac = _coord_power(point.coords[j], point.tilt_coords[j],
                                   e, config)
            else:
                fac = _tilt_coord_power(point.tilt_coords[j], e, config)
            val = val * fac
        acc = val if acc is None else acc + val
    if acc is None:
        cls = _KIND_CLASS[F.kind]
        return cls.zero(config, F.precexp)
    return acc


def valuation_at(F: HomogeneousElement, point) -> tuple:
    """(exact, lower): the valuation of F at the point.

    ``exact`` is a Fraction when the valuation is determined at the
    current precision and None otherwise; ``lower`` is always a
    certified Fraction lower bound.  The Gauss point reads the minimum
    coefficient valuation; stored coefficients are never zero, so it is
    exact whenever F has any term.
    """
    if isinstance(point, GaussPoint):
        if not F.terms:
            return (None, F.precexp)
        v = F._gauss_bound()
        return (v, v)
    value = evaluate(F, point)
    if value.is_zero():
        return (None, value.precexp.as_fraction())
    v = value.valuation().as_fraction()
    return (v, v)


# =====================================================================
# The contract verifier
# =====================================================================

def _min_with_cap(val: tuple, cap: Fraction) -> tuple:
    # min(v, cap) on the (exact, lower) encoding
    exact, lower = val
    lo = min(lower, cap)
    if exact is not None:
        return (min(exact, cap), lo)
    if lower >= cap:
        return (cap, lo)
    return (None, lo)


def _equal_verdict(m1: tuple, m2: tuple) -> str:
    e1, lo1 = m1
    e2, lo2 = m2
    if e1 is not None and e2 is not None:
        return "pass" if e1 == e2 else "fail"
    if e1 is not None:
        return "fail" if e1 < lo2 else "indeterminate"
    if e2 is not None:
        return "fail" if e2 < lo1 else "indeterminate"
    return "indeterminate"


def _bound_verdict(diff: tuple, m: tuple, margin: Fraction) -> str:
    # Is v(diff) >= margin + min-term, three-valued?
    d_exact, d_lower = diff
    m_exact, m_lower = m
    if m_exact is not None:
        rhs = margin + m_exact
        if d_exact is not None:
            return "pass" if d_exact >= rhs else "fail"
        return "pass" if d_lower >= rhs else "indeterminate"
    # the right side is only known to lie in [margin + m_lower, inf)
    if d_exact is not None and d_exact < margin + m_lower:
        return "fail"
    return "indeterminate"


def _val_text(val: tuple) -> str:
    exact, lower = val
    if exact is not None:
        return str(exact)
    return f">={lower}"


class ContractReport:
    """Pointwise outcome of the approximation contract."""

    __slots__ = ("rows", "passed")

    def __init__(self, rows: list):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "passed",
                           all(r["equality"] == "pass"
                               and r["inequality"] == "pass" for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("reports are immutable")

    def failures(self) -> list:
        return [r for r in self.rows
                if r["equality"] != "pass" or r["inequality"] != "pass"]

    def to_json(self) -> dict:
        return {"passed": self.passed, "points": list(self.rows)}

    def __repr__(self):
        good = sum(1 for r in self.rows
                   if r["equality"] == "pass" and r["inequality"] == "pass")
        word = "pass" if self.passed else "FAIL"
        return f"<contract {word} {good}/{len(self.rows)} points>"


def verify_contract(f: HomogeneousElement, g: HomogeneousElement, c, eps,
                    points) -> ContractReport:
    """Checks the approximation contract pointwise.

    At each point x the verifier compares exact valuations (guarded by
    precision) for both claims:

        inequality:  |f(x) - g^sharp(x)| <= |w|^(1-eps) max(|f(x)|, |w|^c)
        equality:    max(|f(x)|, |w|^c) == max(|g^sharp(x)|, |w|^c)

    A comparison the working precision cannot settle is reported as
    "indeterminate", which does not count as a pass.

    Args:
        f: untilt homogeneous element.
        g: candidate tilt element of the same degree.
        c: depth, nonnegative rational.
        eps: rational with 0 < eps < 1 (any rational; the verifier does
            not need lattice exponents).
        points: iterable of ClassicalPoint / GaussPoint.

    Returns:
        ContractReport with one row per point.
    """
    if not isinstance(f, HomogeneousElement) or f.kind != "untilt":
        raise ConfigError("verify_contract expects an untilt element f")
    if not isinstance(g, HomogeneousElement) or g.kind != "tilt":
        raise ConfigError("verify_contract expects a tilt element g")
    if (g.config != f.config or g.nvars != f.nvars
            or g.degree != f.degree):
        raise ConfigError("f and g do not describe the same shape")
    cf = Fraction(c)
    ef = Fraction(eps)
    if cf < 0:
        raise KernelError(f"depth must be nonnegative, got {cf}")
    if not 0 < ef < 1:
        raise KernelError(f"loss budget must satisfy 0 < eps < 1, got {ef}")
    config = f.config
    # both claims compare valuations against thresholds below c + 1, so
    # the sharp image at that depth settles them; deeper targets would
    # root the digit exponents of a refined g off the lattice
    gs = sharp_element(g, min(config.prec, math.ceil(cf) + 1))
    diff = f - gs
    margin = 1 - ef
    rows = []
    for point in points:
        fv = valuation_at(f, point)
        gv = valuation_at(gs, point)
        dv = valuation_at(diff, point)
        mf = _min_with_cap(fv, cf)
        mg = _min_with_cap(gv, cf)
        rows.append({
            "point": point.to_json(),
            "f_valuation": _val_text(fv),
            "sharp_valuation": _val_text(gv),
            "difference_valuation": _val_text(dv),
            "equality": _equal_verdict(mf, mg),
            "inequality": _bound_verdict(dv, mf, margin),
        })
    return ContractReport(rows)
