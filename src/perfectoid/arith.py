"""Exact, precision-tracked arithmetic in the two digit rings.

The working field on the characteristic-0 side is the completion of
Q_p(p^(1/p^inf)); its ring of integers is modeled by ``UntiltElement`` as a
canonical digit expansion  sum a_e * p^e  with a_e in {0, ..., p-1} and
exponents e in Z[1/p] (denominator capped at p^dencap), truncated modulo
p^precexp.  The characteristic-p side is the t-adic completion of
F_p[t^(1/p^inf)], modeled by ``TiltElement`` the same way with t in place
of p and no carries.

Representation.  With m = dencap, every exponent of a computation lies on
the lattice (1/p^m) Z, and an element is stored as integers only, with
the precision numerator K: the element is known modulo X^(K/p^m).  This
is the finite layer Z_p[p^(1/p^m)] = Z_p[u]/(u^(p^m) - p), u = p^(1/p^m),
resp. F_p[[u]], u = t^(1/p^m), truncated at u^K.  A tilt element is its
digit map {j: digit} for the terms digit * t^(j/p^m), indices
ascending.  An untilt element is its layer coefficients {r: C_r},
0 <= r < p^m, each C_r an integer modulo p^L_r with L_r the number of
levels q with q p^m + r < K (the fixed-precision p-adic numbers of
Caruso, arXiv:1701.06794, one for each residue r): the digits at
j = q p^m + r are the base-p digits of C_r, because
p * p^(j/p^m) = p^((j + p^m)/p^m), so a carry is integer arithmetic and
the digit map is a view read from the coefficients.  Sums add digits
(resp. coefficients), and products add indices, folding u^(p^m) to p
on the untilt side.  A product is known below
min(K1 + v2, K2 + v1, prec * p^m), v the index of the lowest digit (K
when none is visible).  Division is one long division of power series
in u: the inverse of a unit a is 1 / a, known below K_a, and the
quotient a / b is (a / u^v) / (b / u^v), v = v_b, whose divisor
leads with a unit; it is known below min(K_a, K_b - v + v_a,
prec * p^m) - v, the precision a product by the inverse of b / u^v
would have, moved down by v.

Exponents are elements of Z[1/p], and at the API boundary they are
``Fraction``s: constructors take maps keyed by ints or Fractions and
convert each key once; ``digits``, ``precexp`` and ``valuation()`` hand
out exponents built on each access, as ``ValExp``, a Fraction subclass
that keeps ``as_fraction()`` for code written against the former
num / p^denpow class.  ``_index`` puts an exponent on the lattice, and
an exponent off it, or below zero, is refused by ``_exponent_error``,
which reads the power of p in its denominator with ``denominator_power``.
That rule holds wherever an exponent enters, with no normalization
first: a digit key off the lattice is refused even when its digit would
cancel, and a precision exponent goes through ``_precision_index``,
which refuses one off the lattice or below zero and cuts the rest to
prec.
The text and JSON forms go through one codec on indices: ``_exp_pair``
reduces j / p^dencap to num / p^denpow in integers, ``_power_text`` and
``_index_json`` write it, and ``_index_from_json`` and ``_power_index``
read it back; refusals word an index with ``_exp_text``.  ``dumps``
writes every JSON form, and every public reader of one follows
``_json_reader``: text is parsed, fields are checked, never converted,
and a malformed document is refused with a typed error.
``element_from_json`` then decides from the fields it read whether the
document is the element's own JSON form, and builds no JSON form to
compare.  The modules above (tatealg, polyroots, adicdisc) compute on
the same indices: they read ``_low()``, ``is_zero()``, ``_k`` and the
digit view ``_digits``, multiply and accumulate through ``_dot`` and
take powers with ``_power`` (the one product-accumulate and the one
square-and-multiply loop), and convert exponents with
``_lattice_index``; only arith and tiltkit's layer conversion read an
untilt element's coefficients.

    ValExp                  -- an exponent handed out: a Fraction
    FieldConfig             -- (p, prec, dencap) for a whole computation
    UntiltElement           -- layer coefficients, carries inside integers
    TiltElement             -- digits over F_p, Frobenius and exact p-th roots
    reduce_mod_uniformizer  -- the mod-p residue written on the t side
    lift_mod_uniformizer    -- the digit-preserving section of reduce
    pth_root_mod            -- p-th roots modulo p^k for k <= 1
    invert_unit             -- 1 / a: one long division on the u-power series
    divide_exact            -- a / b: one long division by b's unit part

Nothing numeric is converted: an integer argument goes through
``_integer`` (an int, not a bool, at least a bound), a rational one
through ``_fraction`` (an int, a Fraction or text Fraction reads), a
digit through ``_is_int``; a float or a bool gets a typed refusal.

Every p-power root of a tilt element is ``TiltElement.root``, which is
also its one promotion to full precision (``root(0)``, made before a
lift).

Every value the package hands out is immutable and compares by value,
so values are safe to share.  A value class derives from ``_Value``:
its base ``_Frozen`` refuses every attribute write, and two values are
equal exactly when they are of one class with equal ``_key()`` tuples,
and hash as that tuple.  The elements derive from ``_Frozen`` alone and
write that equality out themselves, for the shortcut on a shared config
object.
The two reports (``ContractReport``, ``TransferResult``) derive from
``_Frozen`` alone too: they hold dicts and compare by identity.
"""

from __future__ import annotations

import json
import re
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache, wraps
from heapq import heappop, heappush
from math import log10
from typing import Mapping

__all__ = [
    "KernelError", "ConfigError", "DencapError", "PrecisionError",
    "IndeterminateError", "DivisionError", "BudgetError", "ValExp", "INF",
    "FieldConfig", "UntiltElement", "TiltElement", "check_prime",
    "denominator_power", "reduce_mod_uniformizer", "lift_mod_uniformizer",
    "pth_root_mod", "invert_unit", "divide_exact", "parse_text", "dumps",
    "element_from_json",
]


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
# Values
# =====================================================================

class _Frozen:
    """Refuses every attribute write; constructors set their slots with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle restore a slotted object by setattr
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class _Value(_Frozen):
    """An immutable value: equal to another exactly when both are of one
    class with equal ``_key()`` tuples, and hashed as that tuple."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _is_int(x) -> bool:
    """Whether x is an integer, and not a bool: JSON's true and false
    read as bools, which Python counts as the integers 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


_AT_LEAST = {None: "an integer", 0: "a nonnegative integer",
             1: "a positive integer"}


def _integer(n, what: str, low: int | None = None,
             error: type = KernelError) -> int:
    """The integer argument n, refused with ``error`` unless it is an
    int, not a bool, and at least ``low`` (None: any int), worded
    "<what> must be a nonnegative integer, got 1.5"."""
    if (type(n) is int or _is_int(n)) and (low is None or n >= low):
        return n
    raise error(f"{what} must be {_AT_LEAST[low]}, got {n!r}")


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
    if _integer(p, "p", None, ConfigError) >= _PRIME_BOUND:
        raise BudgetError(f"p = {p} is not below {_PRIME_BOUND}, the "
                          f"bound of the primality test")
    if not _is_prime(p):
        raise ConfigError(f"p = {p} is not prime")


# A lattice scale p^dencap or a coefficient modulus p^prec of more bits
# than this is refused before it is computed: every digit index is a
# multiple of the scale or below prec times it, and every layer
# coefficient of an untilt element is below the modulus.
_SCALE_BITS = 2 ** 20


class FieldConfig(_Value):
    """Shared parameters of a computation: the prime p, the working
    precision N (elements known modulo p^N resp. t^N) and the denominator
    cap m (all exponents lie in (1/p^m) Z).

    ``scale`` is p^m, so exponent e sits at lattice index e * scale, and
    ``full`` = N * scale is the index of full precision."""

    __slots__ = ("p", "prec", "dencap", "scale", "full")

    def __init__(self, p: int, prec: int, dencap: int):
        if not all(map(_is_int, (p, prec, dencap))):
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
        if prec * (p.bit_length() - 1) > _SCALE_BITS:
            raise BudgetError(
                f"prec = {prec} puts the coefficient modulus {p}^{prec} "
                f"beyond {_SCALE_BITS} bits")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "dencap", dencap)
        object.__setattr__(self, "scale", p ** dencap)
        object.__setattr__(self, "full", prec * p ** dencap)

    def _key(self) -> tuple:
        return self.p, self.prec, self.dencap

    def __repr__(self):
        return f"FieldConfig(p={self.p}, prec={self.prec}, dencap={self.dencap})"


# =====================================================================
# Digit elements
# =====================================================================

def _fraction(x, what: str = "exponent",
              error: type = KernelError) -> Fraction:
    """The rational argument x as a Fraction: x is an int (not a bool),
    a Fraction or text that Fraction reads.  A float, a bool and
    anything else are refused with ``error``, worded "<what> 0.5 is not
    a rational"."""
    if isinstance(x, Fraction):
        return x
    try:
        if _is_int(x) or isinstance(x, str):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise error(f"{what} {x!r} is not a rational")


def _index(e, config: FieldConfig) -> int | None:
    """The lattice index j of the exponent e = j / p^dencap, or None when
    e is off the lattice.  e is an int or anything ``_fraction`` takes;
    the sign is not checked."""
    if type(e) is int:
        return e * config.scale
    f = e if isinstance(e, Fraction) else _fraction(e)
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
        raise _exponent_error(_fraction(e), config)
    return j


def _precision_index(precexp, config: FieldConfig) -> int:
    """The lattice index of the precision exponent precexp, cut to
    ``config.full``: a negative precexp raises PrecisionError, and one
    off the lattice ``_exponent_error``, also above prec."""
    k = _index(precexp, config)
    if k is None:
        f = _fraction(precexp)
        if f < 0:
            raise PrecisionError(
                f"negative precision exponent {_fraction_text(f)}")
        raise _exponent_error(f, config)
    if k < 0:
        raise PrecisionError(
            f"negative precision exponent {_exp_text(k, config)}")
    return min(k, config.full)


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


def _reduced(data, config: FieldConfig) -> bool:
    """Whether the exponent {"num": n, "denpow": d} that
    ``_index_from_json`` read is in the form ``_index_json`` writes."""
    denpow = data["denpow"]
    return not denpow or (denpow <= config.dencap and data["num"] % config.p)


def _product_index(a: "_DigitElement", b: "_DigitElement") -> int:
    """The precision index of the product a * b,
    min(k_a + v_b, k_b + v_a, full): each factor's uncertainty is scaled
    by the other factor's valuation, and when no digit is visible the
    precision is the only lower bound on the valuation.  A factor known
    to full precision bounds nothing, so its partner's valuation is not
    read: a product of two exact factors reads none."""
    full = a.config.full
    k = full
    if a._k < full:
        k = a._k + b._low()
    if b._k < k:
        k = min(k, b._k + a._low())
    return min(k, full)


def _power(base, n: int, mul):
    """base^n for n >= 1 by square-and-multiply with the product mul,
    from the low bit of n: the first factor is base itself, not a
    product by one, and base is squared only while bits remain."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return out
        base = mul(base, base)


class _DigitElement(_Frozen):
    """Common machinery of the two element kinds.

    An element is stored on its config's lattice, in the slot ``_store``,
    and is known modulo X^(_k/p^dencap).  What ``_store`` holds is the
    kind's own canonical form (see each class): the digit map of a tilt
    element, the layer coefficients of an untilt one.  Either form is
    unique, so equality is structural; it is written out here rather
    than taken from ``_Value``, for the shortcut on a shared config
    object.  ``_digits`` is the digit map {j: digit} of either kind, the
    index j of the term digit * X^(j/p^dencap) to the digit in 1..p-1,
    indices ascending and below ``_k``: the text and JSON writers walk
    it, and ``digits`` and ``precexp`` give the same data with Fraction
    exponents (``ValExp``).

    Each kind supplies the operations on its form, and the ring
    operations here are written once on top of them (all indices are
    lattice indices, X^(j/p^dencap) at j):

        _normalize(acc, config, k)  the form of sum c X^j over a map
                                    {j: c} of any integers, j >= 0,
                                    modulo X^k
        _reduce(acc, config, k)     the form of a map shaped like the
                                    form, of any integers, modulo X^k
        _mul_into(acc, a, b, config, k)
                                    adds the product of the forms a and
                                    b, modulo X^k, into such a map acc
        _low()                      a certified lower bound on the
                                    valuation: the first digit, or the
                                    precision when no digit is visible
        _digit(j)                   the digit at j, 0 when none is stored
        _at(k)                      self modulo X^k, 0 <= k <= full
        _shift(s)                   self times X^s
    """

    __slots__ = ("config", "_k", "_store")

    kind = "?"
    symbol = "?"
    _carries = False

    def __init__(self, config: FieldConfig,
                 digits: Mapping[Fraction, int] | None = None,
                 precexp=None):
        if digits is None:
            digits = {}
        elif type(digits) is not dict and not isinstance(digits, Mapping):
            raise KernelError(f"not a digit mapping: {digits!r}")
        acc: dict[int, int] = {}
        off = None      # the first key off the lattice, refused last
        scale = config.scale
        for e, c in digits.items():
            # _index, inline for the int and Fraction keys
            if type(e) is int:
                j = e * scale
            elif type(e) is Fraction:
                q, r = divmod(scale, e.denominator)
                j = None if r else e.numerator * q
            else:
                j = _index(e, config)
            if j is None:
                f = Fraction(e)
                if f < 0:
                    raise KernelError(
                        f"negative digit exponent {_fraction_text(f)}")
                off = off or f
                continue
            if j < 0:
                raise KernelError(
                    f"negative digit exponent {_exp_text(j, config)}")
            if type(c) is not int and not _is_int(c):
                raise KernelError(f"digit {c!r} is not an integer")
            acc[j] = acc[j] + c if j in acc else c
        k = (config.full if precexp is None
             else _precision_index(precexp, config))
        if off is not None:
            raise _exponent_error(off, config)
        _set_config(self, config)
        _set_k(self, k)
        _set_store(self, self._normalize(acc, config, k))

    # -- canonicalization ------------------------------------------------

    @classmethod
    def _canonical(cls, config: FieldConfig, store: dict, k: int):
        """Wraps a form that is already canonical at k <= config.full.

        The caller guarantees what ``_normalize`` would establish; the
        dict is kept, not copied, and nothing mutates it.
        """
        self = object.__new__(cls)
        _set_config(self, config)
        _set_k(self, k)
        _set_store(self, store)
        return self

    @classmethod
    def _make(cls, config: FieldConfig, acc: dict[int, int], k: int):
        """The element sum c * X^(j/p^dencap) over acc, modulo
        X^(k/p^dencap); acc may hold any integers at any indices >= 0."""
        return cls._canonical(config, cls._normalize(acc, config, k), k)

    @classmethod
    def _dot(cls, config: FieldConfig, pairs, k: int, start=None):
        """start + the sum of x * y over pairs, modulo X^(k/p^dencap),
        with one ``_mul_into`` a pair and one reduction: the
        product-accumulate of ``_addmul`` and of the callers outside
        arith.  The elements are of this class on config (start may be
        None), and k is the caller's: it promotes the representatives
        above their own precision when it is larger."""
        acc = dict(start._store) if start is not None else {}
        mul = cls._mul_into
        for x, y in pairs:
            mul(acc, x._store, y._store, config, k)
        return cls._canonical(config, cls._reduce(acc, config, k), k)

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
        return not self._store

    def valuation(self):
        """Smallest stored exponent; INF when a == 0 at current precision."""
        if not self._store:
            return INF
        return ValExp(self._low(), self.config.scale)

    def digit_at(self, exponent) -> int:
        """The digit at the exponent, 0 when none is stored; an exponent
        off the lattice or below zero is refused as the constructor
        refuses it."""
        return self._digit(_lattice_index(exponent, self.config))

    # -- precision handling ----------------------------------------------

    def with_precision(self, precexp):
        """Reinterprets self modulo p^precexp (resp. t^precexp).

        Truncation (smaller precexp) is always sound.  Promotion (larger
        precexp) asserts that the stored digits are exact to the new
        precision; callers use it when an element is an explicitly chosen
        representative of a residue class.
        """
        return self._at(_precision_index(precexp, self.config))

    def shift(self, s):
        """Multiplies by the uniformizer to the power s (s may be negative).

        A negative shift is exact division; it fails when a digit would
        land at a negative exponent.
        """
        j = _index(s, self.config)
        if j is not None:
            return self._shift(j)
        # off the lattice: refused, after the refusals of a lattice shift
        sf = _fraction(s)
        if self.precexp + sf < 0:
            raise PrecisionError(
                f"shift by {_fraction_text(sf)} leaves no precision "
                f"(precexp {_fraction_text(self.precexp)})")
        low = self.valuation()
        if low + sf < 0:
            raise DivisionError(
                f"digit at exponent {_fraction_text(low)} does not divide "
                f"by {self.symbol}^{_fraction_text(-sf)}")
        raise _exponent_error(sf, self.config)

    def _shift_bound(self, s: int) -> int:
        """The precision index of self shifted by s / p^dencap, after the
        refusals of that shift: no precision left, or a digit that would
        land below exponent 0."""
        config = self.config
        k = self._k + s
        if k < 0:
            raise PrecisionError(
                f"shift by {_exp_text(s, config)} leaves no precision "
                f"(precexp {_exp_text(self._k, config)})")
        if s < 0 and self._store and (low := self._low()) + s < 0:
            raise DivisionError(
                f"digit at exponent {_exp_text(low, config)} does not "
                f"divide by {self.symbol}^{_exp_text(-s, config)}")
        return min(k, config.full)

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
        if type(other) is int:
            return type(self)._make(self.config, {0: other},
                                    self.config.full)
        return other

    def _sum(self, other, sign: int):
        # self + sign * other; operands of one class on one config object
        # skip the coercion and the compatibility check
        if type(other) is not type(self) or other.config is not self.config:
            other = self._coerce(other)
            self._check_compatible(other)
        config = self.config
        k = min(self._k, other._k)
        acc = dict(self._store)
        get = acc.get
        for j, c in other._store.items():
            acc[j] = get(j, 0) + sign * c
        return self._canonical(config, self._reduce(acc, config, k), k)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        config = self.config
        return self._canonical(config, self._reduce(
            {j: -c for j, c in self._store.items()}, config, self._k),
            self._k)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not type(self) or other.config is not self.config:
            other = self._coerce(other)
            self._check_compatible(other)
        config = self.config
        k = _product_index(self, other)
        return self._canonical(config, self._reduce(self._mul_into(
            {}, self._store, other._store, config, k), config, k), k)

    __rmul__ = __mul__

    def _addmul(self, x, y):
        """self + x * y with one product loop and one normalization: the
        same element as ``self + x * y``, at min(self's precision, the
        product's)."""
        y = self._coerce(y)
        x._check_compatible(y)
        self._check_compatible(x)
        return self._dot(self.config, ((x, y),),
                         min(self._k, _product_index(x, y)), self)

    def __pow__(self, n: int):
        if not _integer(n, "power", 0):
            return type(self).one(self.config)
        return _power(self, n, type(self).__mul__)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, _DigitElement):
            return NotImplemented
        return (self.kind == other.kind
                and (self.config is other.config
                     or self.config == other.config)
                and self._k == other._k and self._store == other._store)

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
        return dumps(self.to_json())


# The slots' own setters: _Frozen refuses every write, and these are
# faster than object.__setattr__, which looks the slot up by name.
_set_config = _DigitElement.config.__set__
_set_k = _DigitElement._k.__set__
_set_store = _DigitElement._store.__set__


class UntiltElement(_DigitElement):
    """Truncated integral element of the characteristic-0 field, stored
    as its coefficients on the layer Z_p[u]/(u^S - p), u = p^(1/S),
    S = p^dencap.

    The index j = q S + r (0 <= r < S) is the term p^q u^r, so the
    digits at the indices r, r + S, r + 2S, ... are the base-p digits of
    one integer: ``_coeffs`` (the slot ``_store``) maps r to
    C_r = sum_q digit_(q S + r) p^q.  A carry, p * p^e = p^(e+1), is
    integer arithmetic inside C_r.  Known modulo u^K, K = ``_k``, the
    element keeps each C_r modulo p^L_r, L_r = ceil((K - r) / S), the
    number of levels q with q S + r < K: a term C u^r lies in u^K exactly
    when p^L_r divides C.  Canonical form keeps the nonzero C_r so
    reduced, in no particular order; the ascending digit map ``_digits``
    is read from it on each access.
    """

    __slots__ = ()

    kind = "untilt"
    symbol = "p"
    _carries = True

    _coeffs = _DigitElement._store

    @staticmethod
    def _reduce(acc, config, k):
        # C_r modulo p^L_r: L_r = q + 1 below the residue k mod S, and q
        # from it on, with q = k // S
        q, cut = divmod(k, config.scale)
        mod = config.p ** q
        if not cut:
            return {r: v for r, c in acc.items() if (v := c % mod)}
        high = mod * config.p
        return {r: v for r, c in acc.items()
                if (v := c % (high if r < cut else mod))}

    @staticmethod
    def _normalize(acc, config, k):
        # index j = q S + r adds c p^q to C_r; an index at or past k
        # lies in u^k and adds nothing
        p, scale = config.p, config.scale
        coeffs = {}
        for j, c in acc.items():
            if j < k:
                q, r = divmod(j, scale)
                if q:
                    c *= p ** q
                coeffs[r] = coeffs[r] + c if r in coeffs else c
        return UntiltElement._reduce(coeffs, config, k)

    @staticmethod
    def _mul_into(acc, a, b, config, k):
        # u^(r1 + r2) = p u^(r1 + r2 - S) once r1 + r2 reaches S
        p, scale = config.p, config.scale
        get = acc.get
        row = list(b.items())
        for r1, c1 in a.items():
            c1p = c1 * p
            for r2, c2 in row:
                r = r1 + r2
                if r < scale:
                    acc[r] = get(r, 0) + c1 * c2
                else:
                    r -= scale
                    acc[r] = get(r, 0) + c1p * c2
        return acc

    @property
    def _digits(self) -> dict[int, int]:
        # the base-p digits of each C_r, at r, r + S, r + 2S, ...
        p, scale = self.config.p, self.config.scale
        found = []
        for r, c in self._coeffs.items():
            while c:
                c, d = divmod(c, p)
                if d:
                    found.append((r, d))
                r += scale
        found.sort()
        return dict(found)

    def _low(self) -> int:
        # the least r + S v_p(C_r), searched only below the best so far
        p, scale = self.config.p, self.config.scale
        best = self._k
        for j, c in self._coeffs.items():
            while j < best:
                if c % p:
                    best = j
                    break
                c //= p
                j += scale
        return best

    def _digit(self, j: int) -> int:
        if j >= self._k:
            return 0
        q, r = divmod(j, self.config.scale)
        return self._coeffs.get(r, 0) // self.config.p ** q % self.config.p

    def _at(self, k: int):
        if k >= self._k:
            # each C_r is below p^L_r at self's precision, so at k's
            return self._canonical(self.config, self._coeffs, k)
        return self._canonical(
            self.config, self._reduce(self._coeffs, self.config, k), k)

    def _shift(self, s: int):
        # C_r u^r times u^s is C_r p^q u^r' with r + s = q S + r'; q < 0
        # divides exactly once no digit lands below exponent 0
        config = self.config
        k = self._shift_bound(s)
        p, scale = config.p, config.scale
        acc = {}
        for r, c in self._coeffs.items():
            if r + s < k:
                q, r2 = divmod(r + s, scale)
                acc[r2] = c * p ** q if q >= 0 else c // p ** -q
        return self._canonical(config, self._reduce(acc, config, k), k)


class TiltElement(_DigitElement):
    """Truncated integral element of the characteristic-p field, stored
    as its digit map: ``_digits`` (the slot ``_store``) maps each index
    to its digit in 1..p-1, indices ascending and below ``_k``.

    No carries: digit arithmetic is componentwise in F_p, and Frobenius
    x -> x^p is pure exponent scaling.
    """

    __slots__ = ()

    kind = "tilt"
    symbol = "t"
    _carries = False

    _digits = _DigitElement._store

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

    _reduce = _normalize

    @staticmethod
    def _mul_into(acc, a, b, config, k):
        # Both maps ascend, so each row stops at the first index that
        # reaches k: digits at or above k are dropped.
        get = acc.get
        row = list(b.items())
        for j1, c1 in a.items():
            for j2, c2 in row:
                j = j1 + j2
                if j >= k:
                    break
                acc[j] = get(j, 0) + c1 * c2
        return acc

    def _low(self) -> int:
        for j in self._digits:
            return j
        return self._k

    def _digit(self, j: int) -> int:
        return self._digits.get(j, 0)

    def _at(self, k: int):
        if k >= self._k:
            return self._canonical(self.config, self._digits, k)
        return self._canonical(
            self.config, {j: c for j, c in self._digits.items() if j < k}, k)

    def _shift(self, s: int):
        k = self._shift_bound(s)
        digits = {}
        for j, c in self._digits.items():
            if j + s >= k:
                break
            digits[j + s] = c
        return self._canonical(self.config, digits, k)

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
        """The exact p-th root, ``root(1)``, at self's precision exponent
        divided by p and rounded down to the lattice (knowing x mod t^k
        implies knowing it mod t^k' for any k' <= k).

        Raises DencapError when a divided exponent leaves the lattice.
        """
        return self.root(1)._at(self._k // self.config.p)

    def root(self, n: int) -> "TiltElement":
        """The exact p^n-th root, at full working precision.

        Digits live in the prime field, where the p-th root is the
        identity, so the root has the digits {e/p^n: c}, in self's
        order: each index is divided by p^n in integers.  The result is
        promoted to full working precision, taking self as exact by
        convention (its digits are the chosen representative of its
        class).  This is the one p-power root of a tilt element and its
        one promotion: ``pth_root`` is ``root(1)`` read back at the
        floored precision, and ``root(0)`` promotes self unchanged, as
        is done before a lift.

        Raises DencapError when a divided exponent leaves the lattice,
        that is when p^n does not divide its index j.  That is decided
        from v_p(j) by at most bit-length divisions, so p^n is built
        only once it divides an index, and is then at most that index.
        KernelError when n is not a nonnegative integer.
        """
        _integer(n, "root depth", 0)
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

def reduce_mod_uniformizer(a: UntiltElement) -> TiltElement:
    """The residue of a modulo p, written on the t side.

    Keeps exactly the digits with exponent < 1, the lowest base-p digit
    of each layer coefficient, and reinterprets p^e as t^e; the result
    is known modulo t^min(precexp, 1).
    """
    if not isinstance(a, UntiltElement):
        raise ConfigError(f"reduce_mod_uniformizer expects untilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    p, coeffs = a.config.p, a._coeffs
    return TiltElement._canonical(
        a.config, {r: d for r in sorted(coeffs) if (d := coeffs[r] % p)},
        min(a._k, a.config.scale))


def lift_mod_uniformizer(a: TiltElement) -> UntiltElement:
    """The canonical digit-preserving section of reduce_mod_uniformizer:
    a digit d at exponent r / p^dencap < 1 is the layer coefficient
    C_r = d."""
    if not isinstance(a, TiltElement):
        raise ConfigError(f"lift_mod_uniformizer expects tilt, got "
                          f"{getattr(a, 'kind', type(a).__name__)}")
    scale = a.config.scale
    coeffs = {}
    for j, c in a._digits.items():
        if j >= scale:
            break
        coeffs[j] = c
    return UntiltElement._canonical(a.config, coeffs, min(a._k, scale))


def pth_root_mod(a: UntiltElement, k) -> UntiltElement:
    """A p-th root of a modulo p^k, for k <= 1.

    Returns y with y^p == a (mod p^k), determined modulo p^(k/p); computed
    by tilt-reduce, exponent division, lift.  Beyond k = 1 the digitwise
    construction stops satisfying the defining congruence (carries appear
    at exponent 1), so larger k is rejected.
    """
    kf = _fraction(k)
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

def _from_digits(cls, config: FieldConfig, digits: dict[int, int],
                 k: int) -> _DigitElement:
    """The element of cls known modulo X^(k/p^dencap) whose terms are
    digits {j: c}, j ascending and below k: on the tilt side each c in
    1..p-1, the digit map as it stands; on the untilt side any integers,
    folded onto the layer."""
    if cls._carries:
        return cls._make(config, digits, k)
    return cls._canonical(config, digits, k)


def _series(x: _DigitElement, v: int) -> list[tuple[int, int]]:
    """The terms (n, c) of x / u^v as a power series sum c u^n in
    u = X^(1/p^dencap), n ascending, for v at most x's valuation: a tilt
    element's digits, an untilt element's layer coefficients C_r u^r,
    each moved down by v.  A coefficient that would land below u^0 is
    C_r p^(-t) u^(r - v + tS), S = p^dencap and t the least that lifts
    it to u^0 or above; p^t divides it, since r + S v_p(C_r) >= v."""
    if not v:
        return sorted(x._store.items())
    if not x._carries:
        return [(j - v, c) for j, c in x._store.items()]
    p, scale = x.config.p, x.config.scale
    terms = []
    for r, c in x._store.items():
        n = r - v
        if n < 0:
            t = -(n // scale)
            n += t * scale
            c //= p ** t
        terms.append((n, c))
    terms.sort()
    return terms


def _long_division(x: _DigitElement, num, den, k: int) -> _DigitElement:
    """The element of x's kind and config, known modulo u^k, whose
    u-power series Q solves Q * den = num: the series ``num`` and
    ``den`` are term lists as ``_series`` gives them, ``den`` starting
    with a unit at u^0.  Q_n = (1/D_0)(N_n - sum_(i>0) D_i Q_(n-i)) is
    computed for the indices n that num's indices and sums with den's
    reach, in increasing order, and a term at or above k lies in u^k and
    is dropped.  Q_n is kept modulo p on the tilt side and modulo
    p^ceil((k - n)/S) on the untilt side, which is all that Q_n u^n,
    and every later Q it feeds, keeps below u^k; the untilt terms then
    fold onto the layer."""
    config = x.config
    p = config.p
    out = {}
    if k:
        # Q_n is kept modulo p^level, level = ceil((k - n)/scale), which
        # drops by one each time n reaches ``drop``; on the tilt side the
        # scale is k itself, so the level stays 1
        scale = config.scale if x._carries else k
        level = -(-k // scale)
        mod = p ** level
        drop = k - (level - 1) * scale
        inverse = pow(den[0][1], -1, mod)
        rest = den[1:]
        pending = dict(num)
        heap = list(pending)
        while heap:
            n = heappop(heap)
            if n >= k:
                break
            while n >= drop:
                mod //= p
                drop += scale
            q = pending.pop(n) * inverse % mod
            if q:
                out[n] = q
                for i, c in rest:
                    up = n + i
                    if up >= k:
                        break
                    if up in pending:
                        pending[up] -= q * c
                    else:
                        pending[up] = -q * c
                        heappush(heap, up)
    # the tilt digits come out ascending and in 1..p-1
    return _from_digits(type(x), config, out, k)


def invert_unit(a: _DigitElement) -> _DigitElement:
    """The inverse of a unit (valuation 0), to a's own precision: the
    long division of 1 by a (``_long_division``)."""
    store = a._store
    if store.get(0, 0) % a.config.p == 0:
        got = _exp_text(a._low(), a.config) if store else "INF"
        raise DivisionError(f"invert_unit needs valuation 0, got {got}")
    return _long_division(a, ((0, 1),), _series(a, 0), a._k)


def divide_exact(a: _DigitElement, b: _DigitElement) -> _DigitElement:
    """a / b when b divides a exactly in the integral ring.

    One long division of a / u^v by b / u^v, v = v(b), whose leading
    term is a unit (``_series``, ``_long_division``).  The quotient is
    known below K - v, where K = min(K_a, K_b - v + v_a, full) is the
    precision of a times the inverse of b / u^v: the precision a carries,
    and b's scaled by a's valuation v_a (K_a when a shows no digit).
    Refused with PrecisionError when K < v, then with DivisionError when
    v_a < v: a digit of the quotient would land below exponent 0.
    """
    a._check_compatible(b)
    if b.is_zero():
        raise DivisionError("division by zero at current precision")
    config = a.config
    v, va = b._low(), a._low()
    k = min(a._k, b._k - v + va, config.full)
    if k < v:
        raise PrecisionError(
            f"shift by {_exp_text(-v, config)} leaves no precision "
            f"(precexp {_exp_text(k, config)})")
    if va < v:
        raise DivisionError(
            f"digit at exponent {_exp_text(va, config)} does not divide "
            f"by {a.symbol}^{_exp_text(v, config)}")
    return _long_division(a, _series(a, v), _series(b, v), k - v)


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
# Canonical JSON form
# =====================================================================

def dumps(doc) -> str:
    """The canonical byte form of a JSON document: compact separators,
    keys in insertion order, no trailing whitespace."""
    return json.dumps(doc, separators=(",", ":"))


# Whether a reader call is running in this context: a reader called
# inside another reads a part of its document, never text.
_READING = ContextVar("_READING", default=False)


def _json_reader(what: str, error: type = KernelError):
    """Decorates the reader of the JSON form of ``what``.  Its argument
    ``data``, when text, is parsed first, by the outermost reader call
    only: a string where a nested document belongs is refused.  A
    KernelError raised in the reader passes through, and what else a
    malformed document raises becomes ``error``, worded
    "malformed <what> JSON: <reason>"."""
    def wrap(read):
        at = read.__code__.co_varnames.index("data")

        @wraps(read)
        def reader(*args, **kwargs):
            try:
                if isinstance(args[at], str):
                    if _READING.get():
                        raise TypeError(f"a string where a nested {what} "
                                        f"document belongs")
                    args = (*args[:at], json.loads(args[at]),
                            *args[at + 1:])
                token = _READING.set(True)
                try:
                    return read(*args, **kwargs)
                finally:
                    _READING.reset(token)
            except (KeyError, IndexError, TypeError, ValueError,
                    AttributeError, ZeroDivisionError, OverflowError,
                    RecursionError) as exc:
                raise error(f"malformed {what} JSON: {exc}") from exc
        return reader
    return wrap


# The reader's configs, each validated once for its (p, prec, dencap)
# of exact ints: a bool or another int subclass is validated afresh.
_reader_config = lru_cache(maxsize=32)(FieldConfig)


@_json_reader("element")
def element_from_json(data: dict | str) -> _DigitElement:
    """Rebuilds an element from its canonical JSON form, the one
    ``to_json()`` writes.

    Every field is read and checked first, with the refusals of a
    malformed document.  The document is then refused as not in
    canonical form unless it has exactly the six keys, ``terms`` is a
    list, and each term exactly num, denpow and digit; every exponent
    num / p^denpow is reduced (denpow = 0, or p does not divide num and
    denpow <= dencap); precexp is at most prec; the term indices
    strictly ascend and lie below precexp; and every digit is in
    1..p-1.  Those are the documents the element they describe writes
    back unchanged, so no JSON form is built to compare.
    """
    cls = _kind_class(data["kind"])
    p, prec, dencap = data["p"], data["prec"], data["dencap"]
    config = (_reader_config(p, prec, dencap)
              if type(p) is type(prec) is type(dencap) is int
              else FieldConfig(p, prec, dencap))
    precexp = data["precexp"]
    k = _index_from_json(precexp, config)
    canonical = (len(data) == 6 and len(precexp) == 2 and k <= config.full
                 and _reduced(precexp, config))
    terms = data["terms"]
    digits = {}
    last = -1
    for term in terms:
        j, digit = _index_from_json(term, config), term["digit"]
        if type(digit) is not int:
            raise TypeError(f"digit {digit!r} is not an integer")
        canonical = (canonical and last < j and 0 < digit < p
                     and len(term) == 3 and _reduced(term, config))
        digits[j] = digit
        last = j
    if not (canonical and last < k and isinstance(terms, list)):
        raise KernelError("element JSON is not in canonical form")
    return _from_digits(cls, config, digits, k)
