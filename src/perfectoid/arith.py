"""Exact, precision-tracked arithmetic in the two digit rings.

The working field on the characteristic-0 side is the completion of
Q_p(p^(1/p^inf)); its ring of integers is modeled by ``UntiltElement`` as a
canonical digit expansion  sum a_e * p^e  with a_e in {0, ..., p-1} and
exponents e in Z[1/p] (denominator capped at p^dencap), truncated modulo
p^precexp.  The characteristic-p side is the t-adic completion of
F_p[t^(1/p^inf)], modeled by ``TiltElement`` the same way with t in place
of p and no carries.

Everything here is plain digit bookkeeping:

    ValExp                  -- exponent lattice Z[1/p]>=0, normalized
    FieldConfig             -- (p, prec, dencap) for a whole computation
    UntiltElement           -- digits with base-p carries
    TiltElement             -- digits over F_p, Frobenius and exact p-th roots
    reduce_mod_uniformizer  -- the mod-p residue written on the t side
    lift_mod_uniformizer    -- the digit-preserving section of reduce
    pth_root_mod            -- p-th roots modulo p^k for k <= 1
    invert_unit             -- digit-by-digit long division
    divide_exact            -- exact division when the quotient is integral

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import total_ordering
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping


# =====================================================================
# Errors
# =====================================================================

class KernelError(Exception):
    """Base class for every failure the kernel raises on purpose."""


class ConfigError(KernelError):
    """Invalid field configuration, or operands from different configs."""


class DencapError(KernelError):
    """An operation needed an exponent denominator beyond p^dencap."""


class PrecisionError(KernelError):
    """An operation needed more precision than the operands carry."""


class IndeterminateError(PrecisionError):
    """A result exists but cannot be decided at the current precision."""


class DivisionError(KernelError):
    """Exact division was requested but the quotient is not integral."""


class BudgetError(KernelError):
    """An operation would need more time or memory than its fixed budget."""


# =====================================================================
# Exponents
# =====================================================================

@total_ordering
class ValExp:
    """A nonnegative element of Z[1/p], stored as num / p^denpow.

    Normalized so that p does not divide num unless denpow = 0; order and
    arithmetic agree with the rational value.  Instances are immutable.
    """

    __slots__ = ("num", "denpow", "p")

    def __init__(self, num: int, denpow: int, p: int):
        if num < 0:
            raise KernelError(f"negative exponent {num}/p^{denpow}")
        if denpow < 0:
            raise KernelError(f"negative denominator exponent {denpow}")
        while denpow > 0 and num % p == 0:
            num //= p
            denpow -= 1
        if num == 0:
            denpow = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "denpow", denpow)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("ValExp is immutable")

    @classmethod
    def from_fraction(cls, value: Fraction | int, p: int,
                      dencap: int | None = None) -> "ValExp":
        """Builds an exponent from a rational, checking the denominator.

        The denominator must be a power of p, and at most p^dencap when a
        cap is given.
        """
        frac = Fraction(value)
        den = frac.denominator
        denpow = 0
        while den % p == 0:
            den //= p
            denpow += 1
        if den != 1:
            raise DencapError(
                f"denominator {frac.denominator} is not a power of {p}")
        if dencap is not None and denpow > dencap:
            raise DencapError(
                f"exponent {frac} needs denominator p^{denpow}, "
                f"cap is p^{dencap}")
        return cls(frac.numerator, denpow, p)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p ** self.denpow)

    def __add__(self, other):
        if isinstance(other, ValExp):
            return ValExp.from_fraction(
                self.as_fraction() + other.as_fraction(), self.p)
        if isinstance(other, int):
            return ValExp.from_fraction(self.as_fraction() + other, self.p)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ValExp):
            return ValExp.from_fraction(
                self.as_fraction() - other.as_fraction(), self.p)
        if isinstance(other, int):
            return ValExp.from_fraction(self.as_fraction() - other, self.p)
        return NotImplemented

    def times_p(self) -> "ValExp":
        return ValExp(self.num * self.p, self.denpow, self.p)

    def div_p(self, dencap: int) -> "ValExp":
        out = ValExp(self.num, self.denpow + 1, self.p)
        if out.denpow > dencap:
            raise DencapError(
                f"exponent {out.as_fraction()} exceeds denominator cap "
                f"p^{dencap}")
        return out

    def __eq__(self, other):
        if not isinstance(other, ValExp):
            return NotImplemented
        return (self.num, self.denpow, self.p) == (other.num, other.denpow,
                                                   other.p)

    def __lt__(self, other):
        if not isinstance(other, ValExp):
            return NotImplemented
        return self.as_fraction() < other.as_fraction()

    def __hash__(self):
        return hash((self.num, self.denpow))

    def __str__(self):
        return str(self.as_fraction())

    def __repr__(self):
        return f"ValExp({self.num}/{self.p}^{self.denpow})"


def has_p_power_denominator(q: Fraction, p: int) -> bool:
    """Whether the reduced denominator of q is a power of p (1 included)."""
    den = q.denominator
    while den % p == 0:
        den //= p
    return den == 1


class _Infinity:
    """Valuation of an element with no visible digits; absorbs addition."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "INF"


INF = _Infinity()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldConfig:
    """Shared parameters of a computation: the prime p, the working
    precision N (elements known modulo p^N resp. t^N) and the denominator
    cap m (all exponents lie in (1/p^m) Z)."""

    __slots__ = ("p", "prec", "dencap")

    def __init__(self, p: int, prec: int, dencap: int):
        if not _is_prime(p):
            raise ConfigError(f"p = {p} is not prime")
        if prec < 1:
            raise ConfigError(f"prec = {prec} must be >= 1")
        if dencap < 0:
            raise ConfigError(f"dencap = {dencap} must be >= 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "dencap", dencap)

    def __setattr__(self, name, value):
        raise AttributeError("FieldConfig is immutable")

    def exp(self, value: Fraction | int) -> ValExp:
        """ValExp on this config's lattice; DencapError beyond the cap."""
        return ValExp.from_fraction(value, self.p, self.dencap)

    def full_precision(self) -> ValExp:
        return ValExp(self.prec, 0, self.p)

    def __eq__(self, other):
        if not isinstance(other, FieldConfig):
            return NotImplemented
        return (self.p, self.prec, self.dencap) == (other.p, other.prec,
                                                    other.dencap)

    def __hash__(self):
        return hash((self.p, self.prec, self.dencap))

    def __repr__(self):
        return f"FieldConfig(p={self.p}, prec={self.prec}, dencap={self.dencap})"


# =====================================================================
# Digit elements
# =====================================================================

def _as_fraction_exp(e) -> Fraction:
    if isinstance(e, ValExp):
        return e.as_fraction()
    return Fraction(e)


class _DigitElement:
    """Common machinery of the two element kinds.

    ``digits`` maps ValExp -> {1, ..., p-1}; every exponent is strictly
    below ``precexp`` and on the (1/p^dencap) lattice.  Canonical form is
    unique, so equality is structural.
    """

    __slots__ = ("config", "digits", "precexp")

    kind = "?"
    symbol = "?"
    _carries = False

    def __init__(self, config: FieldConfig,
                 digits: Mapping[ValExp, int] | Mapping[Fraction, int]
                 | None = None,
                 precexp=None):
        acc: dict[Fraction, int] = {}
        for e, c in (digits or {}).items():
            f = _as_fraction_exp(e)
            if f < 0:
                raise KernelError(f"negative digit exponent {f}")
            acc[f] = acc.get(f, 0) + int(c)
        if precexp is None:
            kf = Fraction(config.prec)
        else:
            kf = _as_fraction_exp(precexp)
        if kf < 0:
            raise PrecisionError(f"negative precision exponent {kf}")
        kf = min(kf, Fraction(config.prec))
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "precexp",
                           ValExp.from_fraction(kf, config.p, config.dencap))
        object.__setattr__(self, "digits",
                           self._normalize(acc, config, kf))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- canonicalization ------------------------------------------------

    @staticmethod
    def _normalize(acc, config, bound):
        raise NotImplementedError

    @classmethod
    def _canonical(cls, config: FieldConfig, digits: dict[ValExp, int],
                   precexp: ValExp):
        """Wraps digits that are already in canonical form, unchecked.

        The caller guarantees what ``_normalize`` would establish: keys are
        ValExp on the config's lattice, strictly below precexp <= prec,
        inserted in increasing order, with values in 1..p-1.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "precexp", precexp)
        object.__setattr__(self, "digits", digits)
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config: FieldConfig, precexp=None):
        return cls(config, {}, precexp)

    @classmethod
    def one(cls, config: FieldConfig, precexp=None):
        return cls(config, {Fraction(0): 1}, precexp)

    @classmethod
    def from_int(cls, config: FieldConfig, n: int, precexp=None):
        """The image of the integer n (negative allowed; borrows wrap)."""
        return cls(config, {Fraction(0): n}, precexp)

    @classmethod
    def uniformizer(cls, config: FieldConfig, precexp=None):
        """p itself on the untilt side, t on the tilt side."""
        return cls(config, {Fraction(1): 1}, precexp)

    @classmethod
    def monomial(cls, config: FieldConfig, digit: int, exponent,
                 precexp=None):
        return cls(config, {_as_fraction_exp(exponent): digit}, precexp)

    # -- inspection ------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no digit is visible at the current precision."""
        return not self.digits

    def valuation(self):
        """Smallest stored exponent; INF when a == 0 at current precision."""
        if not self.digits:
            return INF
        return min(self.digits)

    def _effective_valuation(self) -> Fraction:
        # Certified lower bound on the valuation, always finite.
        if not self.digits:
            return self.precexp.as_fraction()
        return min(self.digits).as_fraction()

    def sorted_digits(self) -> list[tuple[ValExp, int]]:
        return sorted(self.digits.items(), key=lambda t: t[0].as_fraction())

    def digit_at(self, exponent) -> int:
        f = _as_fraction_exp(exponent)
        for e, c in self.digits.items():
            if e.as_fraction() == f:
                return c
        return 0

    # -- precision handling ----------------------------------------------

    def with_precision(self, precexp):
        """Reinterprets self modulo p^precexp (resp. t^precexp).

        Truncation (smaller precexp) is always sound.  Promotion (larger
        precexp) asserts that the stored digits are exact to the new
        precision; callers use it when an element is an explicitly chosen
        representative of a residue class.
        """
        return type(self)(self.config, self.digits, precexp)

    def shift(self, s):
        """Multiplies by the uniformizer to the power s (s may be negative).

        A negative shift is exact division; it fails when a digit would
        land at a negative exponent.
        """
        sf = _as_fraction_exp(s)
        kf = self.precexp.as_fraction() + sf
        if kf < 0:
            raise PrecisionError(
                f"shift by {sf} leaves no precision (precexp {self.precexp})")
        acc = {}
        for e, c in self.digits.items():
            f = e.as_fraction() + sf
            if f < 0:
                raise DivisionError(
                    f"digit at exponent {e} does not divide by "
                    f"{self.symbol}^{-sf}")
            acc[f] = c
        return type(self)(self.config, acc, kf)

    # -- ring structure --------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise ConfigError(
                f"cannot combine {self.kind} and "
                f"{getattr(other, 'kind', type(other).__name__)} elements")
        if other.config != self.config:
            raise ConfigError(
                f"config mismatch: {self.config} vs {other.config}")

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).from_int(self.config, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        acc = {e.as_fraction(): c for e, c in self.digits.items()}
        for e, c in other.digits.items():
            f = e.as_fraction()
            acc[f] = acc.get(f, 0) + c
        kf = min(self.precexp.as_fraction(), other.precexp.as_fraction())
        return type(self)(self.config, acc, kf)

    __radd__ = __add__

    def __neg__(self):
        acc = {e.as_fraction(): -c for e, c in self.digits.items()}
        return type(self)(self.config, acc, self.precexp)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        acc: dict[Fraction, int] = {}
        for e1, c1 in self.digits.items():
            f1 = e1.as_fraction()
            for e2, c2 in other.digits.items():
                f = f1 + e2.as_fraction()
                acc[f] = acc.get(f, 0) + c1 * c2
        # Precision of a product: each factor's uncertainty is scaled by
        # the other factor's valuation.  When no digit is visible the
        # precision exponent is the only lower bound on the valuation.
        k1, k2 = self.precexp.as_fraction(), other.precexp.as_fraction()
        v1 = self._effective_valuation()
        v2 = other._effective_valuation()
        kf = min(k1 + v2, k2 + v1, Fraction(self.config.prec))
        return type(self)(self.config, acc, kf)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise KernelError(f"integer power expected, got {n!r}")
        out = type(self).one(self.config)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return out

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, _DigitElement):
            return NotImplemented
        return (self.kind == other.kind and self.config == other.config
                and self.precexp == other.precexp
                and self.digits == other.digits)

    def __hash__(self):
        return hash((self.kind, self.config, self.precexp,
                     frozenset(self.digits.items())))

    # -- canonical text form ---------------------------------------------

    def _exp_text(self, e: ValExp) -> str:
        f = e.as_fraction()
        if f == 0:
            return ""
        if f == 1:
            return f"*{self.symbol}"
        if f.denominator == 1:
            return f"*{self.symbol}^{f.numerator}"
        return f"*{self.symbol}^({f})"

    def to_text(self) -> str:
        parts = []
        for e, c in self.sorted_digits():
            suffix = self._exp_text(e)
            parts.append(f"{c}{suffix}" if suffix else str(c))
        kf = self.precexp.as_fraction()
        if kf == 0:
            parts.append("O(1)")
        elif kf == 1:
            parts.append(f"O({self.symbol})")
        elif kf.denominator == 1:
            parts.append(f"O({self.symbol}^{kf.numerator})")
        else:
            parts.append(f"O({self.symbol}^({kf}))")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.kind} {self.to_text()}>"

    # -- canonical JSON form ---------------------------------------------

    def to_json(self) -> dict:
        terms = [{"num": e.num, "denpow": e.denpow, "digit": c}
                 for e, c in self.sorted_digits()]
        return {
            "kind": self.kind,
            "p": self.config.p,
            "prec": self.config.prec,
            "dencap": self.config.dencap,
            "precexp": {"num": self.precexp.num,
                        "denpow": self.precexp.denpow},
            "terms": terms,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


class UntiltElement(_DigitElement):
    """Truncated integral element of the characteristic-0 field.

    Carries move a unit from exponent e to exponent e + 1; that is valid
    for fractional e as well, because p * p^e = p^(e+1).
    """

    kind = "untilt"
    symbol = "p"
    _carries = True

    @staticmethod
    def _normalize(acc, config, bound):
        # Process exponents in increasing order so every carry lands on a
        # not-yet-visited slot; each carry raises the exponent by exactly
        # 1, so the loop ends after at most prec * p^dencap rounds.
        p = config.p
        pending = {e: c for e, c in acc.items() if c}
        heap = list(pending)
        heapify(heap)
        out = {}
        while heap:
            e = heappop(heap)
            c = pending.pop(e, 0)
            if c == 0:
                continue
            if e >= bound:
                continue
            carry, digit = divmod(c, p)
            if digit:
                out[ValExp.from_fraction(e, p, config.dencap)] = digit
            if carry:
                up = e + 1
                if up in pending:
                    pending[up] += carry
                else:
                    pending[up] = carry
                    heappush(heap, up)
        return out


class TiltElement(_DigitElement):
    """Truncated integral element of the characteristic-p field.

    No carries: digit arithmetic is componentwise in F_p, and Frobenius
    x -> x^p is pure exponent scaling.
    """

    kind = "tilt"
    symbol = "t"
    _carries = False

    @staticmethod
    def _normalize(acc, config, bound):
        p = config.p
        out = {}
        for e, c in acc.items():
            if e >= bound:
                continue
            digit = c % p
            if digit:
                out[ValExp.from_fraction(e, p, config.dencap)] = digit
        return out

    def frobenius(self) -> "TiltElement":
        """x -> x^p: every exponent is multiplied by p, digits are fixed."""
        acc = {e.as_fraction() * self.config.p: c
               for e, c in self.digits.items()}
        kf = self.precexp.as_fraction() * self.config.p
        return TiltElement(self.config, acc, kf)

    def pth_root(self) -> "TiltElement":
        """The exact p-th root: exponents divided by p.

        Raises DencapError when a divided exponent leaves the lattice.
        The precision exponent is divided as well, then rounded down to
        the lattice (knowing x mod t^k implies knowing it mod t^k' for
        any k' <= k).
        """
        acc = {}
        for e, c in self.digits.items():
            acc[e.div_p(self.config.dencap).as_fraction()] = c
        kf = self.precexp.as_fraction() / self.config.p
        den = self.config.p ** self.config.dencap
        kf = Fraction((kf * den).__floor__(), den)
        return TiltElement(self.config, acc, kf)

    def root(self, n: int) -> "TiltElement":
        """The exact p^n-th root, at full working precision.

        Digits live in the prime field, where the p-th root is the
        identity, so the root has the digits {e/p^n: c}, in self's
        order: each exponent is divided by p^n in integers.  The result
        is promoted to full working precision, taking self as exact by
        convention (its digits are the chosen representative of its
        class).  This is the one such promotion of a root; ``pth_root``
        floors the precision exponent instead.

        Raises DencapError when a divided exponent leaves the lattice.
        """
        config = self.config
        p, cap = config.p, config.dencap
        digits = {}
        for e, c in self.digits.items():
            r = ValExp(e.num, e.denpow + n, p)
            if r.denpow > cap:
                raise DencapError(
                    f"exponent {r} needs denominator p^{r.denpow}, "
                    f"cap is p^{cap}")
            digits[r] = c
        return TiltElement._canonical(config, digits, config.full_precision())


# =====================================================================
# The mod-p identification between the two rings
# =====================================================================

def reduce_mod_uniformizer(a: UntiltElement) -> TiltElement:
    """The residue of a modulo p, written on the t side.

    Keeps exactly the digits with exponent < 1 and reinterprets p^e as
    t^e; the result is known modulo t^min(precexp, 1).
    """
    if not isinstance(a, UntiltElement):
        raise ConfigError(f"reduce_mod_uniformizer expects untilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    acc = {e.as_fraction(): c for e, c in a.digits.items()
           if e.as_fraction() < 1}
    kf = min(a.precexp.as_fraction(), Fraction(1))
    return TiltElement(a.config, acc, kf)


def lift_mod_uniformizer(a: TiltElement) -> UntiltElement:
    """The canonical digit-preserving section of reduce_mod_uniformizer."""
    if not isinstance(a, TiltElement):
        raise ConfigError(f"lift_mod_uniformizer expects tilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    acc = {e.as_fraction(): c for e, c in a.digits.items()
           if e.as_fraction() < 1}
    kf = min(a.precexp.as_fraction(), Fraction(1))
    return UntiltElement(a.config, acc, kf)


def pth_root_mod(a: UntiltElement, k) -> UntiltElement:
    """A p-th root of a modulo p^k, for k <= 1.

    Returns y with y^p == a (mod p^k), determined modulo p^(k/p); computed
    by tilt-reduce, exponent division, lift.  Beyond k = 1 the digitwise
    construction stops satisfying the defining congruence (carries appear
    at exponent 1), so larger k is rejected.
    """
    kf = _as_fraction_exp(k)
    if kf > 1:
        raise PrecisionError(
            f"pth_root_mod is defined modulo p^k for k <= 1 only, got k={kf}")
    if a.precexp.as_fraction() < kf:
        raise PrecisionError(
            f"operand only known modulo p^{a.precexp}, root modulo p^{kf} "
            f"requested")
    r = reduce_mod_uniformizer(a).with_precision(kf)
    y = lift_mod_uniformizer(r.pth_root())
    return y


# =====================================================================
# Division
# =====================================================================

def invert_unit(a: _DigitElement) -> _DigitElement:
    """The inverse of a unit (valuation 0), to a's own precision.

    Digit-by-digit long division: each step clears the smallest exponent
    of the remainder, which strictly ascends on a finite lattice.
    """
    v = a.valuation()
    if v is INF or v.as_fraction() != 0:
        raise DivisionError(
            f"invert_unit needs valuation 0, got {v!r}")
    p = a.config.p
    d0 = a.digits[min(a.digits)]
    d0_inv = pow(d0, -1, p)
    kind = type(a)
    out = kind.zero(a.config, a.precexp)
    rem = kind.one(a.config, a.precexp)
    bound = min(a.precexp.as_fraction(), Fraction(a.config.prec))
    while not rem.is_zero():
        e = rem.valuation()
        ef = e.as_fraction()
        if ef >= bound:
            break
        c = (rem.digits[e] * d0_inv) % p
        step = kind.monomial(a.config, c, ef, a.precexp)
        out = out + step
        rem = rem - step * a
    return out


def divide_exact(a: _DigitElement, b: _DigitElement) -> _DigitElement:
    """a / b when b divides a exactly in the integral ring.

    Requires valuation(b) <= valuation(a); the quotient has every digit at
    a nonnegative exponent or the division fails.
    """
    a._check_compatible(b)
    vb = b.valuation()
    if vb is INF:
        raise DivisionError("division by zero at current precision")
    unit = b.shift(-vb.as_fraction())
    q = a * invert_unit(unit)
    return q.shift(-vb.as_fraction())


# =====================================================================
# Canonical text form: parsing
# =====================================================================

_TERM_RE = re.compile(
    r"^(\d+)(?:\*([pt])(?:\^(?:(\d+)|\((\d+)/(\d+)\)))?)?$")
_OH_RE = re.compile(
    r"^O\((?:1|([pt])(?:\^(?:(\d+)|\((\d+)/(\d+)\)))?)\)$")


def _kind_class(kind: str):
    if kind == "untilt":
        return UntiltElement
    if kind == "tilt":
        return TiltElement
    raise ConfigError(f"unknown element kind {kind!r}")


def parse_text(text: str, config: FieldConfig, kind: str) -> _DigitElement:
    """Parses the canonical text form, e.g. "2*p^(1/3) + 1*p^(4/3) + O(p^8)".

    The O(...) tail is required; printing and parsing round-trip exactly.
    """
    cls = _kind_class(kind)
    symbol = cls.symbol
    parts = [part.strip() for part in text.strip().split("+")]
    if not parts or not parts[-1]:
        raise KernelError(f"cannot parse element text {text!r}")
    oh = _OH_RE.match(parts[-1])
    if oh is None:
        raise KernelError(f"element text must end with O(...): {text!r}")
    sym, whole, num, den = oh.groups()
    if sym is None:
        kf = Fraction(0)
    else:
        if sym != symbol:
            raise KernelError(
                f"symbol {sym!r} does not match element kind {kind!r}")
        if whole is not None:
            kf = Fraction(int(whole))
        elif num is not None:
            kf = Fraction(int(num), int(den))
        else:
            kf = Fraction(1)
    acc: dict[Fraction, int] = {}
    for part in parts[:-1]:
        m = _TERM_RE.match(part)
        if m is None:
            raise KernelError(f"cannot parse term {part!r} in {text!r}")
        digit, sym, whole, num, den = m.groups()
        if sym is None:
            e = Fraction(0)
        else:
            if sym != symbol:
                raise KernelError(
                    f"symbol {sym!r} does not match element kind {kind!r}")
            if whole is not None:
                e = Fraction(int(whole))
            elif num is not None:
                e = Fraction(int(num), int(den))
            else:
                e = Fraction(1)
        if e in acc:
            raise KernelError(f"duplicate exponent {e} in {text!r}")
        acc[e] = int(digit)
    element = cls(config, acc, kf)
    if element.to_text() != " + ".join(parts):
        raise KernelError(
            f"element text {text!r} is not in canonical form "
            f"(canonical: {element.to_text()!r})")
    return element


# =====================================================================
# Canonical JSON form: parsing
# =====================================================================

def element_from_json(data: dict | str) -> _DigitElement:
    """Rebuilds an element from its canonical JSON form."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise KernelError(f"element JSON must be an object, got {data!r}")
    try:
        cls = _kind_class(data["kind"])
        config = FieldConfig(data["p"], data["prec"], data["dencap"])
        pe = data["precexp"]
        kf = Fraction(pe["num"], config.p ** pe["denpow"])
        acc = {}
        for term in data["terms"]:
            e = Fraction(term["num"], config.p ** term["denpow"])
            if e in acc:
                raise KernelError(f"duplicate exponent {e} in terms")
            acc[e] = term["digit"]
    except (KeyError, TypeError) as exc:
        raise KernelError(f"malformed element JSON: {exc}") from exc
    element = cls(config, acc, kf)
    if element.to_json() != data:
        raise KernelError("element JSON is not in canonical form")
    return element
