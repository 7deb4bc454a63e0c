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
acceptable.  The evaluators ``evaluate`` and ``valuation_at`` take an
``adicdisc.AdicPoint``, classical or Gauss, which powers its coordinates
on both sides of the tilt and reads every value; its code is loaded at
the first call that takes a point, not with this module.

Exponents are lattice indices, as inside the digit elements: monomial
entries, degrees, precisions and the approximation schedule are
integers j standing for j/p^dencap.  ``Monomial.exps``, ``degree``,
``precexp`` and the valuations the evaluators return are Fractions
built on access (``exps`` as ``ValExp``, which keeps ``as_fraction()``);
the JSON form and monomial text are written and read by the digit
elements' exponent codec on the indices.

Products and powers are arith's (``_dot`` for each coefficient of a
product, ``_power`` for powers); a power of w shifts each coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Mapping

from .arith import (
    ConfigError,
    DencapError,
    DivisionError,
    FieldConfig,
    KernelError,
    PrecisionError,
    ValExp,
    _exp_pair,
    _exponent_error,
    _fraction,
    _Frozen,
    _index_from_json,
    _index_json,
    _integer,
    _json_reader,
    _kind_class,
    _lattice_index,
    _power,
    _power_text,
    _precision_index,
    _product_index,
    _Value,
    divide_exact,
    dumps,
    element_from_json,
    reduce_mod_uniformizer,
)
from .tiltkit import sharp

__all__ = [
    "ApproximationError", "Monomial", "HomogeneousElement", "sharp_element",
    "decompose", "approximate", "evaluate", "valuation_at",
    "ContractReport", "verify_contract",
]


class ApproximationError(KernelError):
    """The expansion step cannot represent a remainder within budget."""


def _nvars(n) -> int:
    # the variable count n, refused unless it is a positive integer
    return _integer(n, "variable count", 1, ConfigError)


# =====================================================================
# Monomials
# =====================================================================

class Monomial(_Value):
    """Exponent vector over the variables T_0, ..., T_{n-1}.

    Entries are nonnegative elements of Z[1/p] on the dencap lattice,
    stored as their lattice indices (``_idx``, entry e at e * p^dencap);
    ``exps`` gives them as Fractions (``ValExp``).  Monomials are
    immutable and usable as dict keys; the order used for leading-term selection is graded
    lexicographic (total degree first, then entrywise comparison).
    """

    __slots__ = ("config", "_idx")

    def __init__(self, config: FieldConfig, exps):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "_idx",
                           tuple(_lattice_index(e, config) for e in exps))

    @classmethod
    def _of(cls, config: FieldConfig, idx: tuple) -> "Monomial":
        # wraps lattice indices that are already checked
        self = object.__new__(cls)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "_idx", idx)
        return self

    def _key(self) -> tuple:
        return self.config, self._idx

    @property
    def exps(self) -> tuple:
        config = self.config
        return tuple(ValExp(j, config.scale) for j in self._idx)

    @property
    def nvars(self) -> int:
        return len(self._idx)

    def total_degree(self) -> Fraction:
        return Fraction(sum(self._idx), self.config.scale)

    def sort_key(self):
        return (sum(self._idx), self._idx)

    def scaled(self, factor: Fraction) -> "Monomial":
        """Entrywise multiple; the route to fractional powers T^(e*i)."""
        f = _fraction(factor)
        if f < 0:
            raise KernelError(f"negative monomial power {f}")
        num, den = f.numerator, f.denominator
        config = self.config
        for j in self._idx:
            if j * num % den:
                raise _exponent_error(
                    Fraction(j * num, den * config.scale), config)
        return Monomial._of(config, tuple(j * num // den for j in self._idx))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self._idx, other._idx))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial._of(self.config, tuple(
            a + b for a, b in zip(self._idx, other._idx)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        diffs = tuple(a - b for a, b in zip(self._idx, other._idx))
        if any(d < 0 for d in diffs):
            raise DivisionError(f"{other!r} does not divide {self!r}")
        return Monomial._of(self.config, diffs)

    def _check(self, other):
        if not isinstance(other, Monomial):
            raise ConfigError(f"expected a monomial, got {type(other).__name__}")
        if other.config != self.config or other.nvars != self.nvars:
            raise ConfigError("monomials over different variable sets")

    def __lt__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        self._check(other)
        return self.sort_key() < other.sort_key()

    def to_json(self) -> list:
        return [_index_json(j, self.config) for j in self._idx]

    @classmethod
    @_json_reader("monomial")
    def from_json(cls, config: FieldConfig, data: list | str) -> "Monomial":
        if not isinstance(data, list):
            raise KernelError("monomial JSON must be an array")
        return cls._of(config, tuple(_index_from_json(d, config)
                                     for d in data))

    def __repr__(self):
        powers = (_power_text(f"T{i}", j, self.config)
                  for i, j in enumerate(self._idx))
        return "*".join(filter(None, powers)) or "1"


# =====================================================================
# Homogeneous elements
# =====================================================================

class HomogeneousElement(_Value):
    """A finite sum of monomials of one total degree.

    ``terms`` maps Monomial -> digit element of the stated kind; zero
    coefficients are dropped and every coefficient is truncated to the
    common precision exponent (the minimum of the given bound and the
    coefficients' own bounds).  Degree and precision are kept as lattice
    indices (``_deg``, ``_k``); ``degree`` and ``precexp`` give them as
    Fractions.  Immutable, with structural equality.
    """

    __slots__ = ("config", "kind", "nvars", "terms", "_deg", "_k")

    def __init__(self, config: FieldConfig, kind: str, nvars: int,
                 degree, terms: Mapping[Monomial, object] | None = None,
                 precexp=None):
        deg = _lattice_index(degree, config)
        items = dict(terms or {})
        k = (config.full if precexp is None
             else _precision_index(precexp, config))
        self._check_terms(config, kind, nvars, deg, items)
        self._fill(config, kind, nvars, deg, items, k)

    @staticmethod
    def _check_terms(config, kind, nvars, deg, items):
        # refuses a kind, variable count or term unfit for an element of
        # degree index deg
        cls = _kind_class(kind)
        _nvars(nvars)
        for mono, coeff in items.items():
            if not isinstance(mono, Monomial) or mono.config != config:
                raise ConfigError(f"bad monomial key {mono!r}")
            if mono.nvars != nvars:
                raise ConfigError(
                    f"monomial {mono!r} has {mono.nvars} variables, "
                    f"element has {nvars}")
            if sum(mono._idx) != deg:
                raise KernelError(
                    f"monomial {mono!r} has degree {mono.total_degree()}, "
                    f"element is homogeneous of degree "
                    f"{Fraction(deg, config.scale)}")
            if not isinstance(coeff, cls):
                raise ConfigError(
                    f"coefficient kind {getattr(coeff, 'kind', '?')} does "
                    f"not match element kind {kind}")
            if coeff.config != config:
                raise ConfigError("coefficient config mismatch")

    def _fill(self, config, kind, nvars, deg, items, k):
        for coeff in items.values():
            k = min(k, coeff._k)
        acc = {}
        for mono, coeff in items.items():
            cut = coeff._at(k)
            if not cut.is_zero():
                acc[mono] = cut
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_deg", deg)
        object.__setattr__(self, "terms", acc)
        object.__setattr__(self, "_k", k)

    @classmethod
    def _make(cls, *fields) -> "HomogeneousElement":
        # from checked terms, with degree and precision as lattice indices
        self = object.__new__(cls)
        self._fill(*fields)
        return self

    def _key(self) -> tuple:
        return (self.config, self.kind, self.nvars, self._deg, self._k,
                frozenset(self.terms.items()))

    @property
    def degree(self) -> Fraction:
        return Fraction(self._deg, self.config.scale)

    @property
    def precexp(self) -> Fraction:
        return Fraction(self._k, self.config.scale)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config: FieldConfig, kind: str, nvars: int, degree,
             precexp=None) -> "HomogeneousElement":
        return cls(config, kind, nvars, degree, {}, precexp)

    @classmethod
    def one(cls, config: FieldConfig, kind: str,
            nvars: int) -> "HomogeneousElement":
        mono = Monomial(config, [0] * _nvars(nvars))
        coeff = _kind_class(kind).one(config)
        return cls(config, kind, nvars, 0, {mono: coeff})

    @classmethod
    def variable(cls, config: FieldConfig, kind: str, nvars: int,
                 j: int) -> "HomogeneousElement":
        """The variable T_j."""
        if _integer(j, "variable index", 0, ConfigError) >= _nvars(nvars):
            raise ConfigError(f"variable index {j} out of range")
        exps = [0] * nvars
        exps[j] = 1
        return cls(config, kind, nvars, 1,
                   {Monomial(config, exps): _kind_class(kind).one(config)})

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
        k = _precision_index(precexp, self.config)
        return self._like({m: c._at(k) for m, c in self.terms.items()}, k)

    # -- ring structure --------------------------------------------------

    def _check(self, other, same_degree: bool):
        if not isinstance(other, HomogeneousElement):
            raise ConfigError(
                f"expected a homogeneous element, got {type(other).__name__}")
        if (other.config != self.config or other.kind != self.kind
                or other.nvars != self.nvars):
            raise ConfigError("homogeneous elements are not compatible")
        if same_degree and other._deg != self._deg:
            raise KernelError(
                f"degree mismatch: {self.degree} vs {other.degree} "
                f"(sums of homogeneous elements must share one degree)")

    def _like(self, terms: dict, k: int, deg: int | None = None):
        # an element of self's ring and shape; self's degree by default
        return HomogeneousElement._make(
            self.config, self.kind, self.nvars,
            self._deg if deg is None else deg, terms, k)

    def __add__(self, other):
        self._check(other, same_degree=True)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = coeff
        return self._like(acc, min(self._k, other._k))

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()}, self._k)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # one _dot per output monomial, over its coefficient pairs, at the
        # least precision of their products
        self._check(other, same_degree=False)
        config = self.config
        pairs: dict[Monomial, list] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                pairs.setdefault(m1 * m2, []).append((c1, c2))
        dot = _kind_class(self.kind)._dot
        acc = {mono: dot(config, group,
                         min(_product_index(x, y) for x, y in group))
               for mono, group in pairs.items()}
        k = config.full
        if not acc:
            # precision of an invisible product, from the factors' bounds
            k = min(self._k + other._gauss_low(),
                    other._k + self._gauss_low(), k)
        return self._like(acc, k, self._deg + other._deg)

    def __pow__(self, n: int):
        if not _integer(n, "power", 0):
            return HomogeneousElement.one(self.config, self.kind, self.nvars)
        return _power(self, n, HomogeneousElement.__mul__)

    def _shifted(self, s: int) -> "HomogeneousElement":
        # self times w^(s/p^dencap), s >= 0, one coefficient at a time
        return self._like({m: c._shift(s) for m, c in self.terms.items()},
                          min(self._k + s, self.config.full))

    def scalar_mul(self, x) -> "HomogeneousElement":
        """Multiplies every coefficient by the ring constant x."""
        cls = _kind_class(self.kind)
        if not isinstance(x, cls):
            raise ConfigError(
                f"scalar kind {getattr(x, 'kind', type(x).__name__)} does "
                f"not match element kind {self.kind}")
        if self.is_zero():
            return self._like({}, min(self._k + x._low(), self.config.full))
        return self._like({m: c * x for m, c in self.terms.items()},
                          self.config.full)

    def _gauss_low(self) -> int:
        # Lattice index of a certified lower bound on the Gauss
        # valuation, always finite.
        if not self.terms:
            return self._k
        return min(c._low() for c in self.terms.values())

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.config.p,
            "prec": self.config.prec,
            "dencap": self.config.dencap,
            "nvars": self.nvars,
            "degree": _index_json(self._deg, self.config),
            "precexp": _index_json(self._k, self.config),
            "terms": [{"exps": m.to_json(), "coeff": c.to_json()}
                      for m, c in self.sorted_terms()],
        }

    def dumps(self) -> str:
        return dumps(self.to_json())

    @classmethod
    @_json_reader("homogeneous element")
    def from_json(cls, data: dict | str) -> "HomogeneousElement":
        config = FieldConfig(data["p"], data["prec"], data["dencap"])
        kind = data["kind"]
        terms = {Monomial.from_json(config, row["exps"]):
                 element_from_json(row["coeff"]) for row in data["terms"]}
        nvars = data["nvars"]
        deg = _index_from_json(data["degree"], config)
        k = _index_from_json(data["precexp"], config)
        cls._check_terms(config, kind, nvars, deg, terms)
        return cls._make(config, kind, nvars, deg, terms, min(k, config.full))

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


def _residue_lift(f: HomogeneousElement) -> HomogeneousElement:
    # Tilt element matching f mod w, promoted to a full-precision
    # representative (digits of the residue are exact by convention).
    terms = {m: reduce_mod_uniformizer(c).root(0)
             for m, c in f.terms.items()}
    return HomogeneousElement._make(f.config, "tilt", f.nvars, f._deg, terms,
                                    f.config.full)


def _tilt_power(g: HomogeneousElement, j: int) -> HomogeneousElement:
    # g^i for the exponent i at lattice index j
    config = g.config
    if j == 0:
        return HomogeneousElement.one(config, "tilt", g.nvars)
    if g.is_zero():
        return HomogeneousElement.zero(
            config, "tilt", g.nvars,
            g.degree * Fraction(j, config.scale), g.precexp)
    num, denpow = _exp_pair(j, config)
    pm = config.p ** denpow
    # every monomial divides by pm on the lattice, so their degree does
    rooted = HomogeneousElement._make(
        config, "tilt", g.nvars, g._deg // pm,
        {m.scaled(Fraction(1, pm)): c.root(denpow)
         for m, c in g.terms.items()},
        config.full)
    return rooted ** num


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
    _integer(c, "depth", 0)
    if f._k < (c + 1) * f.config.scale:
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
        cur = HomogeneousElement._make(
            config, "untilt", f.nvars, f._deg,
            {m: co.shift(-1) for m, co in diff.terms.items()},
            diff._k - config.scale)
    return out


# =====================================================================
# The approximation algorithm
# =====================================================================

# One expansion may run _EXPAND_ROUNDS greedy division rounds before it
# is refused; each round cancels one leading monomial.
_EXPAND_ROUNDS = 4096


def _expand(h: HomogeneousElement, g: HomogeneousElement, cur: int,
            mu: int, target: int, grid_denpow: int) -> dict:
    """Writes h = sum_i w^(mu - cur*i) (g^i)^sharp r_i over the grid
    i in {0, 1/p^m, ..., 1}, m = grid_denpow; cur and mu are lattice
    indices.

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
        dict j -> r_i, keyed by the lattice index j of i (untilt
        homogeneous elements of degree d*(1-i)).

    Raises:
        ApproximationError: a remainder term is too shallow for w^mu, or
            the round budget is exhausted.
    """
    config = h.config
    scale = config.scale
    step = scale // config.p ** grid_denpow
    powers: dict[int, HomogeneousElement | None] = {}
    result: dict[int, HomogeneousElement] = {}
    work = h
    rounds = 0
    while not work.is_zero():
        rounds += 1
        if rounds > _EXPAND_ROUNDS:
            raise ApproximationError(
                f"expansion did not terminate within {_EXPAND_ROUNDS} "
                f"rounds; remainder {work!r}")
        mono, coeff = work.leading()
        placed = False
        for j in range(scale, -1, -step):
            drop, off = divmod(cur * j, scale)
            if off:
                continue    # w^(mu - cur*i) is off the lattice
            shift = mu - drop
            if j not in powers:
                try:
                    powers[j] = sharp_element(_tilt_power(g, j), target)
                except DencapError:
                    powers[j] = None    # g^i is off the lattice
            gi = powers[j]
            if gi is None or gi.is_zero():
                continue
            lead_mono, lead_coeff = gi.leading()
            if not lead_mono.divides(mono):
                continue
            if coeff._low() < shift + lead_coeff._low():
                continue
            q_coeff = divide_exact(coeff._shift(-shift), lead_coeff)
            r_term = HomogeneousElement._make(
                config, "untilt", h.nvars, h._deg - gi._deg,
                {mono / lead_mono: q_coeff}, config.full)
            work = work - (gi * r_term)._shifted(shift)
            if j in result:
                result[j] = result[j] + r_term
            else:
                result[j] = r_term
            placed = True
            break
        if not placed:
            raise ApproximationError(
                f"no grid power of the approximant divides the remainder "
                f"at {mono!r} above w^{Fraction(mu, scale)}; "
                f"remainder {work!r}")
    return {j: r for j, r in result.items() if not r.is_zero()}


def _depth_and_budget(c, eps) -> tuple[Fraction, Fraction]:
    """The depth c and loss budget eps as Fractions, refused unless
    they are rationals with c >= 0 and 0 < eps < 1."""
    cf, ef = _fraction(c, "depth"), _fraction(eps, "loss budget")
    if cf < 0:
        raise KernelError(f"depth must be nonnegative, got {cf}")
    if not 0 < ef < 1:
        raise KernelError(f"loss budget must satisfy 0 < eps < 1, got {ef}")
    return cf, ef


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
    vanishes at working precision.  The schedule runs on lattice
    indices.

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
    cf, ef = _depth_and_budget(c, eps)
    depth = _lattice_index(cf, config)
    loss = _lattice_index(ef, config)
    scale = config.scale
    if f._k < depth + scale:
        raise PrecisionError(
            f"approximation to depth {cf} needs f modulo w^{cf + 1}, "
            f"have w^{f.precexp}")
    p = config.p
    a = _lattice_index(ef / p, config)
    # slack strictly between a and eps keeps every stage bound strict;
    # stationary is enough because the division is exact when it
    # succeeds (nothing is lost stage over stage)
    slack = _lattice_index(2 * ef / p if p > 2 else ef * Fraction(3, 4),
                           config)
    # the contract only constrains valuations below c + 1, and every
    # sharp at target k roots digit exponents by p^(k-1); refining at
    # the shallowest sufficient target keeps repeated stages from
    # walking off the dencap lattice
    depth_target = min(config.prec, -(-depth // scale) + 1)
    grid_denpow = min(config.dencap, _exp_pair(loss, config)[1] + 1)
    g = _residue_lift(f)
    cur = 0
    while cur < depth:
        h = f - sharp_element(g, depth_target)
        if h.is_zero():
            break
        mu = cur + scale - slack
        slices = _expand(h, g, cur, mu, depth_target, grid_denpow)
        delta = None
        for j, r_i in sorted(slices.items(), reverse=True):
            s_i = _residue_lift(r_i)
            if s_i.is_zero():
                continue
            term = (_tilt_power(g, j) * s_i)._shifted(mu - cur * j // scale)
            delta = term if delta is None else delta + term
        if delta is not None:
            g = g + delta
        cur += a
    return g


# =====================================================================
# Points of the unit polydisc and evaluation
# =====================================================================

@cache
def _adicdisc():
    # the point code, loaded at the first call that takes a point
    from . import adicdisc
    return adicdisc


def _point(F: HomogeneousElement, point):
    # point, refused unless it is an AdicPoint of F's arity and config
    if not isinstance(point, _adicdisc().AdicPoint):
        raise ConfigError(f"not a point: {point!r}")
    if point.nvars != F.nvars:
        raise ConfigError(
            f"point has {point.nvars} coordinates, element has {F.nvars}")
    if point.config != F.config:
        raise ConfigError(f"config mismatch: {F.config} vs {point.config}")
    return point


def evaluate(F: HomogeneousElement, point):
    """F at a classical point, as an element of the matching ring.

    Untilt elements evaluate on the point's coordinates, tilt elements
    on their tilts; the point decides both (``AdicPoint.tilt``), so a
    coordinate 0 or p^a needs no tilt coordinate.  Coordinates are
    treated as exact data of the point.

    Raises:
        IndeterminateError: a fractional exponent needs a root the
            coordinate does not have, or a tilt element uses a
            coordinate with no tilt.
    """
    point = _point(F, point)
    if point.is_gauss():
        raise KernelError(
            "the Gauss point is a norm, not a coordinate tuple; use "
            "valuation_at")
    if point.kind != "classical":
        raise KernelError(
            f"homogeneous elements are evaluated at classical points "
            f"and the Gauss point, not at {point!r}")
    acc = None
    for mono, coeff in F.sorted_terms():
        val = coeff
        for n, j in enumerate(mono._idx):
            if j:
                val = val * point._power(n, j, F.kind)
        acc = val if acc is None else acc + val
    if acc is None:
        return _kind_class(F.kind).zero(F.config, F.precexp)
    return acc


def valuation_at(F: HomogeneousElement, point) -> tuple:
    """(exact, lower): the valuation of F at the point.

    ``exact`` is a Fraction when the valuation is determined at the
    current precision and None otherwise; ``lower`` is always a
    certified Fraction lower bound.  The Gauss point reads the minimum
    coefficient valuation; stored coefficients are never zero, so it is
    exact whenever F has any term.
    """
    if _point(F, point).is_gauss():
        # every absent monomial is zero modulo the precision
        levels = [(c._low(), False) for c in F.terms.values()] + [(F._k, True)]
    else:
        value = evaluate(F, point)
        levels = [(value._low(), value.is_zero())]
    return _adicdisc()._reading(levels, F.config.scale)[:2]


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


class ContractReport(_Frozen):
    """Pointwise outcome of the approximation contract."""

    __slots__ = ("rows", "passed")

    def __init__(self, rows: list):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "passed",
                           all(r["equality"] == "pass"
                               and r["inequality"] == "pass" for r in rows))

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
        points: iterable of classical or Gauss AdicPoints in f's arity,
            at least one: an empty sample would pass any contract.

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
    cf, ef = _depth_and_budget(c, eps)
    try:
        points = list(points)
    except TypeError:
        raise KernelError(f"verify_contract needs an iterable of points, "
                          f"got {points!r}") from None
    if not points:
        raise KernelError("verify_contract needs at least one point")
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
