"""The multiplicative lift, Teichmüller digits, Witt vectors and untilting.

The central map here sends an integral element x of the characteristic-p
field to

    x -> lim_n (x^(1/p^n) lifted digitwise)^(p^n)

in the characteristic-0 field; the limit is well defined modulo p^(n+1)
as soon as the n-th root is known modulo t.  ``sharp`` computes exactly
that finite-stage value.  On top of it sit the Teichmüller lift of a
residue digit (``sharp_const``), finite-length Witt vectors over the
tilt with their universal addition/multiplication polynomials, and the
untilting homomorphism ``theta``.

Powering x_n to the p^n-th power dominates the cost, so it runs on a
dense "layer" representation of the finite field layer generated by
p^(1/p^M): a list of p^M integer coefficients modulo p^K indexed by the
fractional part of the exponent, i.e. an element of the ring
(Z/p^K)[u]/(u^(p^M) - p).  Products pack each coefficient list into one
Python integer (Kronecker substitution), multiply the two integers and
fold the overflowing half back by u^(p^M) = p before unpacking.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import (
    ConfigError,
    FieldConfig,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    ValExp,
)

# =====================================================================
# Layer-ring powering
# =====================================================================

def _layer_from_element(x: UntiltElement) -> tuple[list[int], int]:
    """Dense coefficients C_r of x = sum_r C_r * p^(r/p^M).

    Every digit lies below x.precexp, so C_r < p^ceil(precexp).
    """
    m = max((e.denpow for e in x.digits), default=0)
    p = x.config.p
    scale = p ** m
    coeffs = [0] * scale
    for e, c in x.digits.items():
        q, r = divmod(e.num * p ** (m - e.denpow), scale)
        coeffs[r] += c * p ** q
    return coeffs, m


def _layer_to_element(coeffs: list[int], m: int, config: FieldConfig,
                      precexp: ValExp) -> UntiltElement:
    """The element sum_r C_r * p^(r/p^M) modulo p^precexp.

    Base-p digit q of C_r sits at exponent q + r/p^M; these exponents are
    pairwise distinct, so the digits already form the canonical expansion
    and need no carries.  They are emitted in increasing exponent order.
    """
    p = config.p
    scale = p ** m
    # q + r/scale < precexp  <=>  (q*scale + r) * p^denpow < num * scale
    limit = precexp.num * scale
    den = p ** precexp.denpow
    rest = list(coeffs)
    live = [r for r, c in enumerate(rest) if c]
    digits = {}
    q = 0
    while live:
        for r in live:
            rest[r], d = divmod(rest[r], p)
            if d:
                num = q * scale + r
                if num * den >= limit:
                    return UntiltElement._canonical(config, digits, precexp)
                digits[ValExp(num, m, p)] = d
        live = [r for r in live if rest[r]]
        q += 1
    return UntiltElement._canonical(config, digits, precexp)


def _pack(coeffs: list[int], width: int) -> int:
    """The integer with coeffs[i] in byte slot i (little-endian)."""
    buf = bytearray()
    for c in coeffs:
        buf += c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _layer_mul(a: list[int], b: list[int], p: int, mod: int) -> list[int]:
    """a * b in (Z/mod)[u]/(u^L - p), by Kronecker substitution.

    Each coefficient gets a byte-aligned slot wide enough for a folded
    product coefficient, at most L * (mod-1)^2 * (p+1), so slots never
    carry into each other.  Passing a is b squares.
    """
    length = len(a)
    width = ((length * (mod - 1) ** 2 * (p + 1)).bit_length() + 7) // 8
    packed = _pack(a, width)
    prod = packed * (packed if a is b else _pack(b, width))
    # u^L = p: fold the upper L-1 slots back onto the lower ones.
    bits = 8 * width * length
    prod = (prod & ((1 << bits) - 1)) + p * (prod >> bits)
    data = prod.to_bytes(width * length, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + width], "little") % mod
            for i in range(0, width * length, width)]


def untilt_power_pn(x: UntiltElement, n: int) -> UntiltElement:
    """x^(p^n) modulo p^precexp, computed on the dense layer representation.

    The result keeps x's precision exponent; the layer arithmetic runs
    modulo p^ceil(precexp), which holds every digit below it.
    """
    if n < 0:
        raise KernelError(f"negative power tower height {n}")
    config = x.config
    p, prec = config.p, config.prec
    if n == 0:
        return x
    if x.is_zero():
        kf = min(x.precexp.as_fraction() * p ** n, Fraction(prec))
        return UntiltElement.zero(config, kf)
    vec, m = _layer_from_element(x)
    mod = p ** -(-x.precexp.num // p ** x.precexp.denpow)
    for _ in range(n):
        # square-and-multiply for the exponent p
        acc = None
        base = vec
        e = p
        while e:
            if e & 1:
                acc = base if acc is None else _layer_mul(acc, base, p, mod)
            e >>= 1
            if e:
                base = _layer_mul(base, base, p, mod)
        vec = acc
    return _layer_to_element(vec, m, config, x.precexp)


# =====================================================================
# The multiplicative lift
# =====================================================================

def sharp(x: TiltElement, target_prec: int) -> UntiltElement:
    """The multiplicative lift of x, modulo p^target_prec.

    With n = target_prec - 1, takes the exact n-fold p-th root of x,
    lifts its residue digitwise, and raises the lift to the p^n-th
    power; the result is independent of the choice of lift.

    The lift-independence argument needs the rooted input still known
    modulo t, i.e. x known modulo t^(p^n).  Below that the function is
    still deterministic (it powers the canonical representative), but
    only the digits under the weaker bound obtained by iterating
    a -> min(p*a, a+1) from a = precexp/p^n are representative-free.
    Exact inputs such as monomials are unaffected.

    Args:
        x: tilt element, known at least modulo t^target_prec.
        target_prec: positive integer <= the working precision N.

    Returns:
        x-sharp as an untilt element with precision exponent target_prec.

    Raises:
        PrecisionError: target out of range or input too coarse.
        DencapError: the root chain leaves the exponent lattice.
    """
    if not isinstance(x, TiltElement):
        raise ConfigError(
            f"sharp expects a tilt element, got "
            f"{getattr(x, 'kind', type(x).__name__)}")
    config = x.config
    if not isinstance(target_prec, int) or target_prec < 1:
        raise PrecisionError(f"target precision must be a positive integer, "
                             f"got {target_prec!r}")
    if target_prec > config.prec:
        raise PrecisionError(
            f"target precision {target_prec} exceeds working precision "
            f"{config.prec}")
    if x.precexp.as_fraction() < target_prec:
        raise PrecisionError(
            f"sharp to precision {target_prec} needs input known modulo "
            f"t^{target_prec}, have t^{x.precexp}")
    n = target_prec - 1
    pn = config.p ** n
    # Root the exponents directly: digits live in the prime field, where
    # the p-th root is the identity, so the n-fold root of x has digits
    # {e/p^n: c}.  Chaining pth_root here would floor the precision
    # exponent to the lattice at every stage and could round it to 0,
    # discarding the exponent-0 digits the lift needs; all the lift uses
    # of the root is its residue modulo t, which the validated input
    # precision pins down.
    acc = {}
    for e, c in x.digits.items():
        ef = e.as_fraction() / pn
        config.exp(ef)
        if ef < 1:
            acc[ef] = c
    if not acc:
        return UntiltElement.zero(config, target_prec)
    # Any lift of the root's residue changes the p^n-th power only beyond
    # p^(n+1), so the digitwise lift serves; it is exact below target_prec.
    base = UntiltElement(config, acc, target_prec)
    return untilt_power_pn(base, n)


def sharp_const(config: FieldConfig, c: int) -> UntiltElement:
    """The Teichmüller lift of the residue digit c.

    The unique (p-1)-st root of unity (or 0) congruent to c mod p,
    truncated to the working precision; found by iterating c -> c^p
    modulo p^N to its fixed point.
    """
    p, prec = config.p, config.prec
    if not 0 <= c < p:
        raise KernelError(f"residue digit must lie in 0..{p - 1}, got {c}")
    if c == 0:
        return UntiltElement.zero(config)
    mod = p ** prec
    value = c % mod
    for _ in range(prec + 2):
        nxt = pow(value, p, mod)
        if nxt == value:
            break
        value = nxt
    else:
        raise KernelError("Teichmüller iteration did not stabilize")
    return UntiltElement.from_int(config, value)


# =====================================================================
# Witt vectors
# =====================================================================

def _poly_mul(a: dict, b: dict) -> dict:
    """Product of integer polynomials stored as {exponent tuple: coeff}."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple([i + j for i, j in zip(ma, mb)])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _poly_pow(a: dict, e: int) -> dict:
    """a^e for e >= 1, by square-and-multiply."""
    acc = None
    while True:
        if e & 1:
            acc = a if acc is None else _poly_mul(acc, a)
        e >>= 1
        if not e:
            return acc
        a = _poly_mul(a, a)


def _poly_add_scaled(acc: dict, a: dict, scale: int) -> None:
    """acc += scale * a, in place."""
    for m, c in a.items():
        acc[m] = acc.get(m, 0) + scale * c


@lru_cache(maxsize=None)
def _witt_structure_integer(p: int, op: str, length: int):
    """Universal Witt component polynomials S_0..S_{length-1} over Z.

    Solved from the ghost-component identities w_k(S) = w_k(X) op w_k(Y)
    and stored as {exponent tuple: integer coeff} over the generators
    x0..x_{n-1}, y0..y_{n-1}; each component is returned as a tuple of
    (exponent tuple, coeff) pairs in descending exponent order.
    """
    if op not in ("add", "mul"):
        raise KernelError(f"unknown Witt operation {op!r}")
    nvars = 2 * length

    def ghost(offset, k):
        # w_k = sum_j p^j * v_j^(p^(k-j)) over the variables v_j at offset
        out = {}
        for j in range(k + 1):
            monom = [0] * nvars
            monom[offset + j] = p ** (k - j)
            out[tuple(monom)] = p ** j
        return out

    # powers[j] holds S_j^(p^(k-j)) for the current k
    powers: list[dict] = []
    tables = []
    for k in range(length):
        if op == "add":
            acc = ghost(0, k)
            _poly_add_scaled(acc, ghost(length, k), 1)
        else:
            acc = _poly_mul(ghost(0, k), ghost(length, k))
        powers = [_poly_pow(s, p) for s in powers]
        for j, s in enumerate(powers):
            _poly_add_scaled(acc, s, -p ** j)
        scale = p ** k
        component = {}
        for monom, coeff in acc.items():
            q, r = divmod(coeff, scale)
            if r:
                raise KernelError(
                    "Witt recursion produced a nonintegral component")
            if q:
                component[monom] = q
        powers.append(component)
        tables.append(tuple(sorted(component.items(), reverse=True)))
    return tuple(tables)


@lru_cache(maxsize=None)
def _witt_structure(p: int, op: str, length: int):
    """The integer component polynomials reduced into characteristic p."""
    out = []
    for terms in _witt_structure_integer(p, op, length):
        table = {}
        for monom, coeff in terms:
            c = coeff % p
            if c:
                table[monom] = c
        out.append(table)
    return tuple(out)


def _tilt_power(x: TiltElement, e: int) -> TiltElement:
    """x^e using free Frobenius twists for the p-power part of e."""
    p = x.config.p
    out = TiltElement.one(x.config)
    twisted = x
    while e:
        e, d = divmod(e, p)
        if d:
            out = out * twisted ** d
        if e:
            twisted = twisted.frobenius()
    return out


class WittVector:
    """A finite-length Witt vector (x_0, ..., x_{n-1}) over the tilt."""

    __slots__ = ("config", "components")

    def __init__(self, config: FieldConfig, components):
        components = tuple(components)
        if not components:
            raise KernelError("Witt vectors have length >= 1")
        if len(components) > config.prec:
            raise KernelError(
                f"length {len(components)} exceeds working precision "
                f"{config.prec}")
        for c in components:
            if not isinstance(c, TiltElement):
                raise ConfigError("Witt components must be tilt elements")
            if c.config != config:
                raise ConfigError("Witt components must share the config")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("WittVector is immutable")

    @property
    def length(self) -> int:
        return len(self.components)

    @classmethod
    def zero(cls, config: FieldConfig, length: int) -> "WittVector":
        return cls(config, [TiltElement.zero(config)] * length)

    @classmethod
    def teichmuller(cls, x: TiltElement, length: int) -> "WittVector":
        rest = [TiltElement.zero(x.config)] * (length - 1)
        return cls(x.config, [x, *rest])

    def __eq__(self, other):
        if not isinstance(other, WittVector):
            return NotImplemented
        return (self.config == other.config
                and self.components == other.components)

    def __hash__(self):
        return hash((self.config, self.components))

    def __add__(self, other):
        return witt_add(self, other)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __repr__(self):
        inner = ", ".join(c.to_text() for c in self.components)
        return f"W({inner})"

    def to_json(self) -> dict:
        return {"length": self.length,
                "components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, data: dict) -> "WittVector":
        from .arith import element_from_json
        try:
            components = [element_from_json(c) for c in data["components"]]
            if data["length"] != len(components):
                raise KernelError("Witt length field does not match")
        except (KeyError, TypeError) as exc:
            raise KernelError(f"malformed Witt JSON: {exc}") from exc
        if not components:
            raise KernelError("Witt vectors have length >= 1")
        return cls(components[0].config, components)


_WITT_MAX_LENGTH = 4


def _witt_op(a: WittVector, b: WittVector, op: str) -> WittVector:
    if a.config != b.config or a.length != b.length:
        raise ConfigError("Witt operands must share config and length")
    n = a.length
    if n > _WITT_MAX_LENGTH:
        raise KernelError(
            f"Witt arithmetic is provided for length <= {_WITT_MAX_LENGTH}, "
            f"got {n}")
    config = a.config
    tables = _witt_structure(config.p, op, n)
    values = list(a.components) + list(b.components)
    out = []
    for table in tables:
        comp = TiltElement.zero(config)
        for monom, coeff in table.items():
            term = TiltElement.from_int(config, coeff)
            for idx, e in enumerate(monom):
                if e:
                    term = term * _tilt_power(values[idx], e)
            comp = comp + term
        out.append(comp)
    return WittVector(config, out)


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    return _witt_op(a, b, "add")


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    return _witt_op(a, b, "mul")


# =====================================================================
# Untilting
# =====================================================================

def theta(a: WittVector) -> UntiltElement:
    """The untilting homomorphism, modulo p^length.

    theta(x_0, ..., x_{n-1}) = sum_i sharp(x_i^(1/p^i)) * p^i mod p^n,
    the normalization with theta(Teichmüller(x)) = sharp(x).  Components
    are taken as exact digit expansions, so the i-th root may be promoted
    back to full working precision before lifting.
    """
    config = a.config
    n = a.length
    total = UntiltElement.zero(config, n)
    for i, x in enumerate(a.components):
        root = x
        for _ in range(i):
            root = root.pth_root()
        root = root.with_precision(config.prec)
        term = sharp(root, n)
        if i:
            term = term.shift(i).with_precision(n)
        total = total + term
    return total
