"""Exact, precision-tracked arithmetic in the two digit rings.

The working field on the characteristic-0 side is the completion of
Q_p(p^(1/p^inf)); its ring of integers is modeled by ``UntiltElement`` as a
canonical digit expansion  sum a_e * p^e  with a_e in {0, ..., p-1} and
exponents e in Z[1/p] (denominator capped at p^dencap), truncated modulo
p^precexp.  The characteristic-p side is the t-adic completion of
F_p[t^(1/p^inf)], modeled by ``TiltElement`` the same way with t in place
of p and no carries.

Representation.  With m = dencap, every exponent of a computation lies on
the lattice (1/p^m) Z, so an element is stored as integers only: a map
{j: digit} for the terms digit * X^(j/p^m), indices ascending, and the
precision numerator K, the element being known modulo X^(K/p^m).  This
is the finite layer Z_p[p^(1/p^m)] = Z_p[u]/(u^(p^m) - p), u = p^(1/p^m),
resp. F_p[[u]], u = t^(1/p^m), truncated at u^K.  Sums and products add
indices; on the untilt side a coefficient c at j leaves c mod p and
carries c // p to j + p^m, because p * p^(j/p^m) = p^((j + p^m)/p^m).
A product is known below min(K1 + v2, K2 + v1, prec * p^m), v the index
of the lowest digit (K when none is visible).

Exponents are elements of Z[1/p], and at the API boundary they are
``Fraction``s: constructors take maps keyed by ints or Fractions and
convert each key once; ``digits``, ``precexp`` and ``valuation()`` hand
out exponents built on each access, as ``ValExp``, a Fraction subclass
that keeps ``as_fraction()`` for code written against the former
num / p^denpow class.  ``_index`` puts an exponent on the lattice, and
an exponent off it, or below zero, is refused by ``_exponent_error``,
which reads the power of p in its denominator with ``denominator_power``.
The text and JSON forms go through one codec on indices: ``_exp_pair``
reduces j / p^dencap to num / p^denpow in integers, ``_power_text`` and
``_index_json`` write it, and ``_index_from_json`` and ``_power_index``
read it back; refusals word an index with ``_exp_text``.  The modules
above (tatealg, polyroots, adicdisc) compute on the same indices: they
read ``_digits``, ``_low()`` and ``_k`` and convert exponents with
``_lattice_index``.

    ValExp                  -- an exponent handed out: a Fraction
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
from heapq import heapify, heappop, heappush
from math import log10
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

class ValExp(Fraction):
    """An exponent as the views hand it out: a Fraction, built like one.

    ``as_fraction()`` returns it as a plain Fraction, for code written
    against the num / p^denpow class this once was.
    """

    __slots__ = ()

    def as_fraction(self) -> Fraction:
        return Fraction(self)

    @property
    def denpow(self) -> int:
        """d with denominator p^d, as the former class stored it; the
        traced runs of ``perfbench`` still read it.  A power of a prime
        is a perfect k-th power exactly for the k dividing d, so d is
        the largest such k."""
        den = self.denominator
        for k in range(den.bit_length() - 1, 1, -1):
            root = 1 << -(-den.bit_length() // k)    # above den^(1/k)
            while True:     # Newton's step, down to the floor
                down = ((k - 1) * root + den // root ** (k - 1)) // k
                if down >= root:
                    break
                root = down
            if root ** k == den:
                return k
        return int(den > 1)


def denominator_power(den: int, p: int) -> int | None:
    """d with den = p^d, or None when den is not a power of p."""
    d = 0
    while den % p == 0:
        den //= p
        d += 1
    return d if den == 1 else None


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


# Miller-Rabin with the first 12 primes as bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); a larger p is refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if a % n == 0 or x == 1 or x == n - 1:
            continue    # a prime base itself, or a passes
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """FieldConfig's refusal of p: ConfigError if p is not an integer,
    BudgetError from _PRIME_BOUND on, where the primality test stops
    being exact, ConfigError if p is not prime."""
    if not isinstance(p, int):
        raise ConfigError(f"p must be an integer, got {p!r}")
    if p >= _PRIME_BOUND:
        raise BudgetError(f"p = {p} is not below {_PRIME_BOUND}, the "
                          f"bound of the primality test")
    if not _is_prime(p):
        raise ConfigError(f"p = {p} is not prime")


# A lattice scale p^dencap of more bits than this is refused before it is
# computed: every digit index is a multiple of it or below prec times it.
_SCALE_BITS = 2 ** 20


class FieldConfig:
    """Shared parameters of a computation: the prime p, the working
    precision N (elements known modulo p^N resp. t^N) and the denominator
    cap m (all exponents lie in (1/p^m) Z).

    ``scale`` is p^m, so exponent e sits at lattice index e * scale, and
    ``full`` = N * scale is the index of full precision."""

    __slots__ = ("p", "prec", "dencap", "scale", "full")

    def __init__(self, p: int, prec: int, dencap: int):
        if not all(isinstance(v, int) for v in (p, prec, dencap)):
            raise ConfigError(f"p, prec and dencap must be integers, got "
                              f"{p!r}, {prec!r}, {dencap!r}")
        check_prime(p)
        if prec < 1:
            raise ConfigError(f"prec = {prec} must be >= 1")
        if dencap < 0:
            raise ConfigError(f"dencap = {dencap} must be >= 0")
        if dencap * (p.bit_length() - 1) > _SCALE_BITS:
            raise BudgetError(
                f"dencap = {dencap} puts the lattice scale {p}^{dencap} "
                f"beyond {_SCALE_BITS} bits")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "dencap", dencap)
        object.__setattr__(self, "scale", p ** dencap)
        object.__setattr__(self, "full", prec * p ** dencap)

    def __setattr__(self, name, value):
        raise AttributeError("FieldConfig is immutable")

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

def _index(e, config: FieldConfig) -> int | None:
    """The lattice index j of the exponent e = j / p^dencap, or None when
    e is off the lattice.  e is an int or anything Fraction takes; the
    sign is not checked."""
    if type(e) is int:
        return e * config.scale
    f = e if isinstance(e, Fraction) else Fraction(e)
    q, r = divmod(config.scale, f.denominator)
    return None if r else f.numerator * q


def _exponent_error(f: Fraction, config: FieldConfig) -> KernelError:
    """The refusal of the exponent f, off the lattice or below zero: a
    DencapError when its denominator is not a power of p or passes the
    cap, else a KernelError for its sign."""
    p, cap = config.p, config.dencap
    d = denominator_power(f.denominator, p)
    if d is None:
        return DencapError(
            f"denominator {_int_text(f.denominator)} is not a power of {p}")
    if d > cap:
        return DencapError(f"exponent {_ratio_text(f.numerator, d, p)} "
                           f"needs denominator p^{d}, cap is p^{cap}")
    return KernelError(f"negative exponent {_int_text(f.numerator)}/p^{d}")


def _lattice_index(e, config: FieldConfig) -> int:
    """The lattice index of the exponent e >= 0; an exponent off the
    lattice or below zero raises ``_exponent_error``."""
    j = _index(e, config)
    if j is None or j < 0:
        raise _exponent_error(Fraction(e), config)
    return j


def _exp_pair(j: int, config: FieldConfig) -> tuple[int, int]:
    """(num, denpow): the exponent j / p^dencap as num / p^denpow, p not
    dividing num unless denpow = 0."""
    if not j:
        return 0, 0
    p, denpow = config.p, config.dencap
    while denpow and j % p == 0:
        j //= p
        denpow -= 1
    return j, denpow


def _power_text(symbol: str, j: int, config: FieldConfig) -> str:
    """symbol to the exponent j / p^dencap as the text form writes it:
    "" at exponent 0, then "X", "X^n" and "X^(n/d)".  An exponent whose
    decimal form is past Python's int-to-str digit limit raises
    BudgetError; the JSON form still writes it."""
    num, denpow = _exp_pair(j, config)
    try:
        if denpow:
            return f"{symbol}^({num}/{config.p ** denpow})"
        if num > 1:
            return f"{symbol}^{num}"
    except ValueError as exc:
        raise BudgetError(
            f"the text form cannot write the exponent of {symbol} with "
            f"denominator {config.p}^{denpow} in decimal: {exc}") from None
    return symbol if num else ""


def _exp_text(j: int, config: FieldConfig) -> str:
    """The exponent j / p^dencap as a refusal words it (``_ratio_text``),
    sign included."""
    return _ratio_text(*_exp_pair(j, config), config.p)


def _ratio_text(num: int, denpow: int, p: int) -> str:
    """num / p^denpow, p not dividing num, as a refusal words it: the
    decimal fraction while p^denpow has fewer digits than Python's
    default int-to-str limit of 4300, else num/p^denpow as
    ``_index_from_json`` words it.  Decided from denpow, before p^denpow
    is built; num is written by ``_int_text``."""
    if not denpow:
        return _int_text(num)
    if denpow * log10(p) < 4299:
        return f"{_int_text(num)}/{p ** denpow}"
    return f"{_int_text(num)}/{p}^{denpow}"


def _int_text(n: int) -> str:
    """n as a refusal words it: in decimal while its bit length keeps
    it under Python's default int-to-str limit of 4300 digits, else in
    hexadecimal, which has no limit."""
    return str(n) if n.bit_length() * log10(2) < 4299 else hex(n)


def _fraction_text(f: Fraction) -> str:
    """The Fraction f as a refusal words it: ``str(f)``, with each part
    written by ``_int_text``."""
    if f.denominator == 1:
        return _int_text(f.numerator)
    return f"{_int_text(f.numerator)}/{_int_text(f.denominator)}"


def _index_json(j: int, config: FieldConfig) -> dict:
    num, denpow = _exp_pair(j, config)
    return {"num": num, "denpow": denpow}


def _index_from_json(data, config: FieldConfig) -> int:
    """The lattice index of the JSON exponent {"num": n, "denpow": d}.
    p is divided out of n only while d > dencap, at most n's bit length
    times, so n / p^d off the lattice is refused before p^d is built."""
    num, denpow = data["num"], data["denpow"]
    if type(num) is not int or type(denpow) is not int or denpow < 0:
        raise TypeError(f"exponent {data!r} is not num / p^denpow")
    if num < 0:
        raise KernelError(f"negative exponent {_int_text(num)}/p^{denpow}")
    p, cap = config.p, config.dencap
    if not num:
        return 0
    while denpow > cap and num % p == 0:
        num //= p
        denpow -= 1
    if denpow > cap:
        raise DencapError(f"exponent {_int_text(num)}/{p}^{denpow} needs "
                          f"denominator p^{denpow}, cap is p^{cap}")
    return num * p ** (cap - denpow)


def _refuse_off_lattice(off: dict, config: FieldConfig, bound: int,
                        carries: bool) -> None:
    """Raises the DencapError of the first digit of ``off`` (rational
    exponents off the lattice, with their coefficients) that survives
    normalization below the lattice index ``bound``; returns when none
    does.  Carries stay in an exponent's class modulo 1, so lattice
    digits never meet these.  The first digit is the smallest exponent
    with carries and the first inserted without, as in normalization."""
    p = config.p
    kf = Fraction(bound, config.scale)
    if not carries:
        for f, c in off.items():
            if f < kf and c % p:
                raise _exponent_error(f, config)
        return
    pending = {f: c for f, c in off.items() if c}
    heap = list(pending)
    heapify(heap)
    while heap:
        f = heappop(heap)
        c = pending.pop(f)
        if f >= kf:
            continue
        carry, digit = divmod(c, p)
        if digit:
            raise _exponent_error(f, config)
        if carry:
            if f + 1 in pending:
                pending[f + 1] += carry
            else:
                pending[f + 1] = carry
                heappush(heap, f + 1)


def _product_index(a: "_DigitElement", b: "_DigitElement") -> int:
    """The precision index of the product a * b.  Each factor's
    uncertainty is scaled by the other factor's valuation; when no digit
    is visible the precision is the only lower bound on the valuation."""
    return min(a._k + b._low(), b._k + a._low(), a.config.full)


def _mul_rows(acc: dict[int, int], a: dict[int, int], b: dict[int, int],
              k: int) -> dict[int, int]:
    """Adds the products of the digit maps a and b below index k into
    the raw map acc, and returns acc.  Both maps ascend, so each row
    stops at the first index that reaches k: digits and carries at or
    above k are dropped."""
    row = list(b.items())
    for j1, c1 in a.items():
        for j2, c2 in row:
            j = j1 + j2
            if j >= k:
                break
            acc[j] = acc.get(j, 0) + c1 * c2
    return acc


class _DigitElement:
    """Common machinery of the two element kinds.

    An element is stored on its config's lattice: ``_digits`` maps the
    index j of the term digit * X^(j/p^dencap) to the digit in 1..p-1,
    with the indices in increasing order and below ``_k``, and the
    element is known modulo X^(_k/p^dencap).  Canonical form is unique,
    so equality is structural.  ``digits`` and ``precexp`` give the same
    data with Fraction exponents (``ValExp``); the text and JSON writers
    walk ``_digits`` in its stored order.
    """

    __slots__ = ("config", "_digits", "_k")

    kind = "?"
    symbol = "?"
    _carries = False

    def __init__(self, config: FieldConfig,
                 digits: Mapping[Fraction, int] | None = None,
                 precexp=None):
        acc: dict[int, int] = {}
        off: dict[Fraction, int] = {}
        for e, c in (digits or {}).items():
            j = _index(e, config)
            if j is None:
                f = Fraction(e)
                if f < 0:
                    raise KernelError(
                        f"negative digit exponent {_fraction_text(f)}")
                off[f] = off.get(f, 0) + int(c)
                continue
            if j < 0:
                raise KernelError(
                    f"negative digit exponent {_exp_text(j, config)}")
            acc[j] = acc.get(j, 0) + int(c)
        k = config.full if precexp is None else _index(precexp, config)
        if k is None:
            kf = Fraction(precexp)
            if kf < 0:
                raise PrecisionError(
                    f"negative precision exponent {_fraction_text(kf)}")
            if kf < config.prec:
                raise _exponent_error(kf, config)
            k = config.full     # beyond prec it is cut to prec
        elif k < 0:
            raise PrecisionError(
                f"negative precision exponent {_exp_text(k, config)}")
        k = min(k, config.full)
        if off:
            _refuse_off_lattice(off, config, k, self._carries)
        _set_config(self, config)
        _set_k(self, k)
        _set_digits(self, self._normalize(acc, config, k))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- canonicalization ------------------------------------------------

    @staticmethod
    def _normalize(acc: dict[int, int], config: FieldConfig,
                   k: int) -> dict[int, int]:
        """Canonical digits, in increasing index order, of the sum of
        c * X^(j/p^dencap) over acc, modulo X^(k/p^dencap)."""
        raise NotImplementedError

    @classmethod
    def _canonical(cls, config: FieldConfig, digits: dict[int, int],
                   k: int):
        """Wraps lattice digits that are already in canonical form.

        The caller guarantees what ``_normalize`` would establish: indices
        strictly below k <= config.full, in increasing order, with values
        in 1..p-1.  The dict is kept, not copied; nothing mutates it.
        """
        self = object.__new__(cls)
        _set_config(self, config)
        _set_k(self, k)
        _set_digits(self, digits)
        return self

    @classmethod
    def _make(cls, config: FieldConfig, acc: dict[int, int], k: int):
        """The element sum c * X^(j/p^dencap) over acc, modulo
        X^(k/p^dencap); acc may hold any integers at any indices >= 0."""
        return cls._canonical(config, cls._normalize(acc, config, k), k)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config: FieldConfig, precexp=None):
        return cls(config, {}, precexp)

    @classmethod
    def one(cls, config: FieldConfig, precexp=None):
        return cls(config, {0: 1}, precexp)

    @classmethod
    def from_int(cls, config: FieldConfig, n: int, precexp=None):
        """The image of the integer n (negative allowed; borrows wrap)."""
        return cls(config, {0: n}, precexp)

    @classmethod
    def uniformizer(cls, config: FieldConfig, precexp=None):
        """p itself on the untilt side, t on the tilt side."""
        return cls(config, {1: 1}, precexp)

    @classmethod
    def monomial(cls, config: FieldConfig, digit: int, exponent,
                 precexp=None):
        return cls(config, {exponent: digit}, precexp)

    # -- inspection ------------------------------------------------------

    @property
    def digits(self) -> dict[ValExp, int]:
        """The digits as {exponent: digit}, in increasing order: a new
        dict on each access, so editing it leaves self alone."""
        scale = self.config.scale
        return {ValExp(j, scale): c for j, c in self._digits.items()}

    @property
    def precexp(self) -> ValExp:
        """The precision exponent: self is known modulo X^precexp."""
        return ValExp(self._k, self.config.scale)

    def is_zero(self) -> bool:
        """True when no digit is visible at the current precision."""
        return not self._digits

    def valuation(self):
        """Smallest stored exponent; INF when a == 0 at current precision."""
        for j in self._digits:
            return ValExp(j, self.config.scale)
        return INF

    def _low(self) -> int:
        # Lattice index of a certified lower bound on the valuation: the
        # first digit, or the precision when no digit is visible.
        for j in self._digits:
            return j
        return self._k

    def sorted_digits(self) -> list[tuple[ValExp, int]]:
        return list(self.digits.items())

    def digit_at(self, exponent) -> int:
        return self._digits.get(_index(exponent, self.config), 0)

    # -- precision handling ----------------------------------------------

    def with_precision(self, precexp):
        """Reinterprets self modulo p^precexp (resp. t^precexp).

        Truncation (smaller precexp) is always sound.  Promotion (larger
        precexp) asserts that the stored digits are exact to the new
        precision; callers use it when an element is an explicitly chosen
        representative of a residue class.
        """
        config = self.config
        k = _index(precexp, config)
        if k is None or k < 0:
            # refused, or clamped to full precision, as by the constructor
            return type(self)(config, self.digits, precexp)
        return self._at(min(k, config.full))

    def _at(self, k: int):
        # self read modulo X^(k/p^dencap), 0 <= k <= config.full
        if k >= self._k:
            return self._canonical(self.config, self._digits, k)
        return self._canonical(
            self.config, {j: c for j, c in self._digits.items() if j < k}, k)

    def shift(self, s):
        """Multiplies by the uniformizer to the power s (s may be negative).

        A negative shift is exact division; it fails when a digit would
        land at a negative exponent.
        """
        j = _index(s, self.config)
        if j is not None:
            return self._shift(j)
        # off the lattice: at most the all-zero element survives
        sf = Fraction(s)
        kf = self.precexp + sf
        if kf < 0:
            raise PrecisionError(
                f"shift by {_fraction_text(sf)} leaves no precision "
                f"(precexp {_fraction_text(self.precexp)})")
        acc = {}
        for e, c in self.digits.items():
            f = e + sf
            if f < 0:
                raise DivisionError(
                    f"digit at exponent {_fraction_text(e)} does not divide "
                    f"by {self.symbol}^{_fraction_text(-sf)}")
            acc[f] = c
        return type(self)(self.config, acc, kf)

    def _shift(self, s: int):
        # shift by s / p^dencap
        config = self.config
        k = self._k + s
        if k < 0:
            raise PrecisionError(
                f"shift by {_exp_text(s, config)} leaves no precision "
                f"(precexp {_exp_text(self._k, config)})")
        low = self._low()
        if self._digits and low + s < 0:
            raise DivisionError(
                f"digit at exponent {_exp_text(low, config)} does not "
                f"divide by {self.symbol}^{_exp_text(-s, config)}")
        k = min(k, config.full)
        digits = {}
        for j, c in self._digits.items():
            if j + s >= k:
                break
            digits[j + s] = c
        return self._canonical(config, digits, k)

    # -- ring structure --------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise ConfigError(
                f"cannot combine {self.kind} and "
                f"{getattr(other, 'kind', type(other).__name__)} elements")
        if other.config is not self.config and other.config != self.config:
            raise ConfigError(
                f"config mismatch: {self.config} vs {other.config}")

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self)._make(self.config, {0: other},
                                    self.config.full)
        return other

    def _sum(self, other, sign: int):
        # self + sign * other
        other = self._coerce(other)
        self._check_compatible(other)
        acc = dict(self._digits)
        for j, c in other._digits.items():
            acc[j] = acc.get(j, 0) + sign * c
        return self._make(self.config, acc, min(self._k, other._k))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.config,
                          {j: -c for j, c in self._digits.items()}, self._k)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_compatible(other)
        k = _product_index(self, other)
        return self._make(self.config,
                          _mul_rows({}, self._digits, other._digits, k), k)

    __rmul__ = __mul__

    def _addmul(self, x, y):
        """self + x * y with one product loop and one normalization: the
        same element as ``self + x * y``, at min(self's precision, the
        product's)."""
        y = self._coerce(y)
        x._check_compatible(y)
        self._check_compatible(x)
        k = min(self._k, _product_index(x, y))
        return self._make(self.config, _mul_rows(
            dict(self._digits), x._digits, y._digits, k), k)

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
        return (self.kind == other.kind
                and (self.config is other.config
                     or self.config == other.config)
                and self._k == other._k and self._digits == other._digits)

    def __hash__(self):
        return hash((self.kind, self.config, self._k,
                     frozenset(self._digits.items())))

    # -- canonical text form ---------------------------------------------

    def to_text(self) -> str:
        config, symbol = self.config, self.symbol
        parts = []
        for j, c in self._digits.items():
            power = _power_text(symbol, j, config)
            parts.append(f"{c}*{power}" if power else str(c))
        parts.append(f"O({_power_text(symbol, self._k, config) or 1})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.kind} {self.to_text()}>"

    # -- canonical JSON form ---------------------------------------------

    def to_json(self) -> dict:
        config = self.config
        return {
            "kind": self.kind,
            "p": config.p,
            "prec": config.prec,
            "dencap": config.dencap,
            "precexp": _index_json(self._k, config),
            "terms": [{**_index_json(j, config), "digit": c}
                      for j, c in self._digits.items()],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


# The slots' own setters: __setattr__ refuses every write, and these are
# faster than object.__setattr__, which looks the slot up by name.
_set_config = _DigitElement.config.__set__
_set_k = _DigitElement._k.__set__
_set_digits = _DigitElement._digits.__set__


class UntiltElement(_DigitElement):
    """Truncated integral element of the characteristic-0 field.

    Carries move a unit from exponent e to exponent e + 1, index j to
    j + p^dencap; that is valid for fractional e as well, because
    p * p^e = p^(e+1).
    """

    kind = "untilt"
    symbol = "p"
    _carries = True

    @staticmethod
    def _normalize(acc, config, k):
        # Process indices in increasing order so every carry lands on a
        # not-yet-visited slot; each carry raises the index by exactly
        # p^dencap, so the loop ends after at most prec rounds a class.
        p, scale = config.p, config.scale
        pending = {j: c for j, c in acc.items() if c and j < k}
        heap = list(pending)
        heapify(heap)
        out = {}
        while heap:
            j = heappop(heap)
            carry, digit = divmod(pending.pop(j), p)
            if digit:
                out[j] = digit
            if carry:
                up = j + scale
                if up in pending:
                    pending[up] += carry
                elif up < k:
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
    def _normalize(acc, config, k):
        p = config.p
        out = {}
        for j in sorted(acc):
            if j >= k:
                break
            digit = acc[j] % p
            if digit:
                out[j] = digit
        return out

    def frobenius(self) -> "TiltElement":
        """x -> x^p: every exponent is multiplied by p, digits are fixed."""
        config = self.config
        p = config.p
        k = min(self._k * p, config.full)
        digits = {}
        for j, c in self._digits.items():
            if j * p >= k:
                break
            digits[j * p] = c
        return TiltElement._canonical(config, digits, k)

    def pth_root(self) -> "TiltElement":
        """The exact p-th root: exponents divided by p.

        Raises DencapError when a divided exponent leaves the lattice.
        The precision exponent is divided as well, then rounded down to
        the lattice (knowing x mod t^k implies knowing it mod t^k' for
        any k' <= k).
        """
        config = self.config
        p = config.p
        k = self._k // p
        digits = {}
        for j, c in self._digits.items():
            q, r = divmod(j, p)
            if r:
                raise DencapError(
                    f"exponent {Fraction(j, config.scale * p)} exceeds "
                    f"denominator cap p^{config.dencap}")
            if q < k:
                digits[q] = c
        return TiltElement._canonical(config, digits, k)

    def root(self, n: int) -> "TiltElement":
        """The exact p^n-th root, at full working precision.

        Digits live in the prime field, where the p-th root is the
        identity, so the root has the digits {e/p^n: c}, in self's
        order: each index is divided by p^n in integers.  The result is
        promoted to full working precision, taking self as exact by
        convention (its digits are the chosen representative of its
        class).  This is the one such promotion of a root; ``pth_root``
        floors the precision exponent instead.

        Raises DencapError when a divided exponent leaves the lattice,
        that is when p^n does not divide its index j.  That is decided
        from v_p(j) by at most bit-length divisions, so p^n is built
        only once it divides an index, and is then at most that index.
        KernelError when n is not a nonnegative integer.
        """
        if not isinstance(n, int) or n < 0:
            raise KernelError(f"root depth must be a nonnegative integer, "
                              f"not {n!r}")
        config = self.config
        p, cap = config.p, config.dencap
        step = None
        digits = {}
        for j, c in self._digits.items():
            if j and (step is None or j % step):
                low, v = j, 0
                while v < n and low % p == 0:
                    low //= p
                    v += 1
                if v < n:
                    denpow = cap + n - v
                    raise DencapError(
                        f"exponent {_ratio_text(low, denpow, p)} needs "
                        f"denominator p^{denpow}, cap is p^{cap}")
                step = p ** n
            digits[j // step if j else 0] = c
        return TiltElement._canonical(config, digits, config.full)


# =====================================================================
# The mod-p identification between the two rings
# =====================================================================

def _below_one(a: _DigitElement) -> tuple[dict[int, int], int]:
    # the digits of a with exponent < 1, and min(precexp, 1), as indices
    scale = a.config.scale
    digits = {}
    for j, c in a._digits.items():
        if j >= scale:
            break
        digits[j] = c
    return digits, min(a._k, scale)


def reduce_mod_uniformizer(a: UntiltElement) -> TiltElement:
    """The residue of a modulo p, written on the t side.

    Keeps exactly the digits with exponent < 1 and reinterprets p^e as
    t^e; the result is known modulo t^min(precexp, 1).
    """
    if not isinstance(a, UntiltElement):
        raise ConfigError(f"reduce_mod_uniformizer expects untilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    return TiltElement._canonical(a.config, *_below_one(a))


def lift_mod_uniformizer(a: TiltElement) -> UntiltElement:
    """The canonical digit-preserving section of reduce_mod_uniformizer."""
    if not isinstance(a, TiltElement):
        raise ConfigError(f"lift_mod_uniformizer expects tilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    return UntiltElement._canonical(a.config, *_below_one(a))


def pth_root_mod(a: UntiltElement, k) -> UntiltElement:
    """A p-th root of a modulo p^k, for k <= 1.

    Returns y with y^p == a (mod p^k), determined modulo p^(k/p); computed
    by tilt-reduce, exponent division, lift.  Beyond k = 1 the digitwise
    construction stops satisfying the defining congruence (carries appear
    at exponent 1), so larger k is rejected.
    """
    kf = Fraction(k)
    if kf > 1:
        raise PrecisionError(
            f"pth_root_mod is defined modulo p^k for k <= 1 only, got k={kf}")
    if a.precexp < kf:
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

    Digit-by-digit long division on the lattice: the remainder
    1 - (quotient so far) * a is kept as unnormalized coefficients, and
    each step takes its smallest index j, whose coefficient c is final,
    sets quotient digit q = c / a_0 mod p there and subtracts q X^j a.
    That leaves c - q a_0, a multiple of p, at j; on the untilt side it
    carries to j + p^dencap.  Indices at or above the precision are
    dropped.
    """
    digits = a._digits
    config = a.config
    if 0 not in digits:
        got = _exp_text(a._low(), config) if digits else "INF"
        raise DivisionError(f"invert_unit needs valuation 0, got {got}")
    p, k = config.p, a._k
    step = config.scale if a._carries else 0
    a0 = digits[0]
    a0_inv = pow(a0, -1, p)
    rest = list(digits.items())[1:]
    out = {}
    pending = {0: 1}
    heap = [0]
    while heap:
        j = heappop(heap)
        c = pending.pop(j)
        q = c * a0_inv % p
        carry = (c - q * a0) // p if step else 0
        if q:
            out[j] = q
            for i, ai in rest:
                up = j + i
                if up >= k:
                    break
                if up in pending:
                    pending[up] -= q * ai
                else:
                    pending[up] = -q * ai
                    heappush(heap, up)
        if carry and j + step < k:
            up = j + step
            if up in pending:
                pending[up] += carry
            else:
                pending[up] = carry
                heappush(heap, up)
    return a._canonical(config, out, k)


def divide_exact(a: _DigitElement, b: _DigitElement) -> _DigitElement:
    """a / b when b divides a exactly in the integral ring.

    Requires valuation(b) <= valuation(a); the quotient has every digit at
    a nonnegative exponent or the division fails.
    """
    a._check_compatible(b)
    if b.is_zero():
        raise DivisionError("division by zero at current precision")
    v = b._low()
    q = a * invert_unit(b._shift(-v))
    return q._shift(-v)


# =====================================================================
# Canonical text form: parsing
# =====================================================================

_POWER = r"(?:([pt])(?:\^(\d+|\(\d+/[1-9]\d*\)))?)"
_TERM_RE = re.compile(rf"^(\d+)(?:\*{_POWER})?$")
_OH_RE = re.compile(rf"^O\((?:1|{_POWER})\)$")


def _kind_class(kind: str):
    if kind == "untilt":
        return UntiltElement
    if kind == "tilt":
        return TiltElement
    raise ConfigError(f"unknown element kind {kind!r}")


def _read_int(text: str, what: str) -> int:
    """The decimal integer text; past Python's str-to-int digit limit it
    raises BudgetError, as the text writer does past int-to-str."""
    try:
        return int(text)
    except ValueError as exc:
        raise BudgetError(f"the text form cannot read {what} in decimal: "
                          f"{exc}") from None


def _power_index(groups, cls, config: FieldConfig) -> int:
    """The lattice index of a power matched by ``_POWER``."""
    sym, exponent = groups
    if sym is None:
        return 0
    if sym != cls.symbol:
        raise KernelError(
            f"symbol {sym!r} does not match element kind {cls.kind!r}")
    num, _, den = (exponent or "1").strip("()").partition("/")
    what = f"the exponent of {sym}"
    num, den = _read_int(num, what), _read_int(den or "1", what)
    q, r = divmod(config.scale, den)
    # off the lattice unless the fraction reduces onto it
    return num * q if not r else _lattice_index(Fraction(num, den), config)


def parse_text(text: str, config: FieldConfig, kind: str) -> _DigitElement:
    """Parses the canonical text form, e.g. "2*p^(1/3) + 1*p^(4/3) + O(p^8)".

    The O(...) tail is required; printing and parsing round-trip exactly.
    """
    cls = _kind_class(kind)
    parts = [part.strip() for part in text.strip().split("+")]
    if not parts or not parts[-1]:
        raise KernelError(f"cannot parse element text {text!r}")
    oh = _OH_RE.match(parts[-1])
    if oh is None:
        raise KernelError(f"element text must end with O(...): {text!r}")
    k = _power_index(oh.groups(), cls, config)
    acc: dict[int, int] = {}
    for part in parts[:-1]:
        m = _TERM_RE.match(part)
        if m is None:
            raise KernelError(f"cannot parse term {part!r} in {text!r}")
        acc[_power_index(m.groups()[1:], cls, config)] = \
            _read_int(m[1], "a digit")
    element = cls._make(config, acc, min(k, config.full))
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
        k = _index_from_json(data["precexp"], config)
        acc = {_index_from_json(term, config): int(term["digit"])
               for term in data["terms"]}
        element = cls._make(config, acc, min(k, config.full))
    except (KeyError, TypeError, ValueError) as exc:
        raise KernelError(f"malformed element JSON: {exc}") from exc
    if element.to_json() != data:
        raise KernelError("element JSON is not in canonical form")
    return element
