"""The multiplicative lift, Teichmüller digits, Witt vectors and untilting.

The central map here sends an integral element x of the characteristic-p
field to

    x -> lim_n (x^(1/p^n) lifted digitwise)^(p^n)

in the characteristic-0 field; the limit is well defined modulo p^(n+1)
as soon as the n-th root is known modulo t.  ``sharp`` computes exactly
that finite-stage value, and it is the one lift here: the Teichmüller
lift of a residue digit (``sharp_const``) is sharp of the constant, and
the test that a tilt element lifts to a given untilt element
(``_check_lift``) compares its sharp.  On top of it sit finite-length
Witt vectors over the tilt and the untilting homomorphism ``theta``.
The tilt is perfect, so its Witt vectors form the strict p-ring
(Z/p^n)[t^(1/p^inf)]: Witt sums and products are ring operations on
Teichmüller expansions.

Powering in ``sharp`` runs on a "layer": an element of
(Z/mod)[u]/(u^(p^M) - p), u = p^(1/p^M), held sparse until it is dense.
A power starts on sparse maps {r: C_r}, multiplied term by term with
u^(p^M) folded to p, because inputs of a few digits have few terms in
the early rounds.  A map of one term takes no product at all:
(C u^r)^(p^R) = C^(p^R) p^q u^r', r p^R = q p^M + r', in closed form.
At the first product of more term pairs than both the p^M slots and a
floor it switches for good to the dense layer of p^M coefficients (the
rule and the measurements it rests on are at ``_DENSE_FLOOR``), whose
products pack each coefficient list into one Python integer
(Kronecker substitution), multiply the two integers and fold the upper
half back by u^(p^M) = p.  Each slot has the fewest whole bytes that
hold a folded coefficient; slots of up to 8 bytes are packed and
unpacked in C, through arrays of machine words, and wider ones a
coefficient at a time.  Once dense, a round uses the p-adic shape of a
p^i-th power, whose coefficient at u^r is divisible by p^(i - v_p(r)):
its part at the multiples of p is a power on the layer of p^(M-1)
slots, which u^p generates, and the rest is a few products there to
low precision.  A p^n-th power takes n p-th-power rounds, and
the modulus grows with them: round i of n runs modulo
p^max(K - (n - i), 1), K the precision exponent rounded up, because
a = a' modulo p^j (j >= 1) gives a^p = a'^p modulo p^(j+1).  ``sharp``
thus powers modulo p^(i+1) in round i, not p^K throughout.  A power of
several terms whose dense layer would be too large for a fixed budget
is refused before any product, even when its sparse start would stay
small; a power of one term needs no layer.
``theta`` sums its Teichmüller expansion on one such layer, and
``sharp`` is theta of a Teichmüller vector.  The lift is multiplicative
with [t] = p, so a component x_i = t^(q p^i) w contributes
p^(i+q) [w^(1/p^i)]: nothing once i + q reaches the length n, and
otherwise n-1-i-q rounds on w rooted by p^(n-1-q), a layer q levels
shallower and a modulus p^q smaller than x_i's own root by p^(n-1)
would need.  Each term refuses only what its own root and its own
power need (see ``_teichmuller_sum``).  Witt expansions are sparse maps
on u = t^(1/p^M) and multiply through the same sparse-or-dense product,
truncated at t^prec.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import accumulate
from math import gcd

from .arith import (
    BudgetError,
    ConfigError,
    FieldConfig,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    _integer,
    _is_int,
    _json_reader,
    _Value,
)

__all__ = [
    "untilt_power_pn", "sharp", "sharp_const", "WittVector", "witt_add",
    "witt_mul", "theta",
]

# =====================================================================
# Layer-ring powering
# =====================================================================

# Array type codes of the machine words, by size in bytes.  Packing
# through them reads the array's bytes as a little-endian integer; other
# hosts pack every slot one coefficient at a time.
_WORD_CODES = ({array(code).itemsize: code for code in "BHILQ"}
               if sys.byteorder == "little" else {})

# The last round of a layer power squares an integer of p^m slots at its
# full slot width.  CPython multiplies big integers by Karatsuba: on one
# Xeon core a 2^18-byte square takes about 0.35 s and a 2^19-byte one
# about 1 s, and a power runs several such products a round.  A power
# whose packed layer would exceed _LAYER_BUDGET bytes is refused before
# its layer is allocated.
_LAYER_BUDGET = 2 ** 18

# A layer product of two sparse maps runs term by term while its term
# pairs are at most the layer's slots or _DENSE_FLOOR, and on the dense
# Kronecker product past both.  Layer powers and Witt products share
# the switch.  Measured on a 2-core Xeon VM with Python 3.11.7, best of
# 5 on random maps: a term pair costs 0.15-0.3 us, and a dense product
# about 10 us plus 0.2-0.5 us a slot, so the two cost the same at 1-2
# pairs a slot on every layer from 27 to 729 slots (p = 2, 3 and 5, and
# the Witt layers of 81, 150 and 243 slots).  Above that the dense
# product grows faster than its slots (Karatsuba), but whole powers on
# the battery's 3^7- and 3^9-slot layers take the same time with the
# switch anywhere from 1 to 16 pairs a slot.  Going dense commits the
# rest of a power to the split rounds of ``_pth_power``, which on
# layers of 3 to 27 slots cost more than staying sparse: with no floor,
# the battery's powers on those layers took 1.1-1.9 times as long.
# Over every layer power and Witt operation of one lift and one battery
# pass (seed 1, each call best of 5, floors interleaved), floors of 81
# to 324 pairs agree within 2%, and 162 was lowest or within 0.5% of it.
_DENSE_FLOOR = 162


def _depth(digits: dict[int, int], config: FieldConfig) -> int:
    """The smallest m such that every index of the lattice digits is an
    exponent on the 1/p^m lattice."""
    p, m = config.p, config.dencap
    coarse = gcd(config.scale, *digits)
    while coarse > 1:
        coarse //= p
        m -= 1
    return m


def _layer_points(digits: dict[int, int], m: int,
                  config: FieldConfig) -> dict[int, int]:
    """The nonzero coefficients {r: C_r} of sum_r C_r * p^(r/p^m), the
    element with the given lattice digits, m at most the config's dencap.

    Digits below a precision exponent K give C_r < p^ceil(K).
    """
    p = config.p
    size, step = p ** m, config.scale // p ** m
    points = {}
    for j, c in digits.items():
        q, r = divmod(j // step, size)
        points[r] = points.get(r, 0) + c * p ** q
    return points


def _layer_to_element(points: dict[int, int], m: int, config: FieldConfig,
                      k: int) -> UntiltElement:
    """The element sum_r C_r * p^(r/p^M) modulo p^(k/p^dencap), from
    the nonzero C_r.

    Base-p digit q of C_r sits at exponent q + r/p^M, lattice index
    (q * p^M + r) * p^(dencap - M); these indices are pairwise distinct,
    so the digits already form the canonical expansion and need no
    carries.  They are emitted in increasing index order.  Only levels
    q below ceil(k / scale) can fall below k, and each C_r is read from
    its lowest nonzero digit on, at the level gcd(C_r, p^levels) gives:
    a power's coefficients are divisible by high powers of p at most
    indices (see ``_pth_power``), so most C_r have one digit to read.
    """
    p, scale = config.p, config.scale
    step = scale // p ** m
    levels = -(-k // scale)
    top = p ** levels
    first = {p ** q: q * scale for q in range(levels)}
    found = []
    for r, c in points.items():
        if c := c % top:
            g = gcd(c, top)
            j, c = first[g] + r * step, c // g
            while c >= p:
                c, d = divmod(c, p)
                if d:
                    found.append((j, d))
                j += scale
            found.append((j, c))
    found.sort()
    return UntiltElement._canonical(
        config, {j: d for j, d in found if j < k}, k)


def _slot_width(length: int, mod: int, c: int) -> int:
    """Bytes of a Kronecker slot of (Z/mod)[u]/(u^length - c): the fewest
    that hold a folded product coefficient, at most
    length * (mod-1)^2 * (c+1)."""
    return ((length * (mod - 1) ** 2 * (c + 1)).bit_length() + 7) // 8


def _pack(coeffs: list[int], width: int) -> int:
    """The integer with coeffs[i] in byte slot i (little-endian)."""
    buf = bytearray()
    for c in coeffs:
        buf += c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _unpack(data: bytes, width: int) -> list[int]:
    """The width-byte slots of data as ints."""
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _pack_words(coeffs: list[int], width: int) -> int:
    """_pack for width <= 8, in C: the coefficients become an array of
    machine words, and when width is not itself a word size, strided
    copies drop the bytes of each word above width."""
    size = 1 << (width - 1).bit_length()
    words = array(_WORD_CODES[size], coeffs)
    if size == width:
        return int.from_bytes(words, "little")
    src = memoryview(words).cast("B")
    buf = bytearray(len(coeffs) * width)
    for k in range(width):
        buf[k::width] = src[k::size]
    return int.from_bytes(buf, "little")


def _unpack_words(data: bytes, width: int) -> list[int]:
    """_unpack for width <= 8, in C, by the reverse strided copies."""
    size = 1 << (width - 1).bit_length()
    if size != width:
        buf = bytearray(len(data) // width * size)
        for k in range(width):
            buf[k::size] = data[k::width]
        data = buf
    return memoryview(data).cast(_WORD_CODES[size]).tolist()


def _layer_mul(a: list[int], b: list[int], c: int, mod: int) -> list[int]:
    """a * b in (Z/mod)[u]/(u^L - c), by Kronecker substitution.

    c = p gives the layer ring of the untilt side; c = 0 truncates at
    u^L, which is the t-adic truncation of the Witt layer.  Every
    coefficient lies in 0..mod-1 and gets a slot of the fewest whole
    bytes that hold a folded product coefficient (``_slot_width``), so
    slots never carry into each other.  Slots of up to 8 bytes are
    packed and unpacked through arrays of machine words, in C; wider
    ones one coefficient at a time.  Passing a is b squares.
    """
    length = len(a)
    width = _slot_width(length, mod, c)
    if width <= 8 and _WORD_CODES:
        pack, unpack = _pack_words, _unpack_words
    else:
        pack, unpack = _pack, _unpack
    packed = pack(a, width)
    prod = packed * (packed if a is b else pack(b, width))
    # u^L = c: fold the upper L-1 slots back onto the lower ones.
    bits = 8 * width * length
    prod = (prod & ((1 << bits) - 1)) + c * (prod >> bits)
    return [v % mod for v in unpack(prod.to_bytes(width * length, "little"),
                                     width)]


def _layer_product(x, y, c: int, size: int, mod: int):
    """x * y in (Z/mod)[u]/(u^size - c), each operand a sparse map
    {r: C_r} of nonzero coefficients or a dense list of size of them.

    Two sparse operands with at most max(size, _DENSE_FLOOR) term pairs
    multiply term by term into a sparse map, u^(size + r) folded to
    c * u^r (c = 0 drops it).  Any other pair becomes dense and goes
    through the Kronecker product ``_layer_mul``, whose dense list
    keeps every later product with it dense.  A zero operand gives the
    empty map.
    """
    if not (x and y):
        return {}
    if (type(x) is dict and type(y) is dict
            and len(x) * len(y) <= max(size, _DENSE_FLOOR)):
        acc = {}
        get = acc.get
        terms = list(y.items())
        for rx, cx in x.items():
            for ry, cy in terms:
                r = rx + ry
                if r < size:
                    acc[r] = get(r, 0) + cx * cy
                else:
                    acc[r - size] = get(r - size, 0) + c * cx * cy
        return {r: w for r, v in acc.items() if (w := v % mod)}
    vx = _dense(x, size)
    return _layer_mul(vx, vx if x is y else _dense(y, size), c, mod)


def _dense(vec, size: int) -> list[int]:
    """The size coefficients of a sparse map or a dense list."""
    if type(vec) is list:
        return vec
    dense = [0] * size
    for r, c in vec.items():
        dense[r] = c
    return dense


def _pow_pn(vec, p: int, k: int, mul):
    """vec^(p^k) by k rounds of square-and-multiply with the product mul."""
    for _ in range(k):
        acc, base, e = None, vec, p
        while e:
            if e & 1:
                acc = base if acc is None else mul(acc, base)
            if e := e >> 1:
                base = mul(base, base)
        vec = acc
    return vec


def _one_term_power(points: dict[int, int], p: int, rounds: int, size: int,
                    c: int, mod: int) -> dict[int, int]:
    """(C * u^r)^(p^rounds) in (Z/mod)[u]/(u^size - c), for points the
    one-term map {r: C}, in closed form.

    With r * p^rounds = q * size + r', the power is C^(p^rounds) c^q
    u^r': it is empty once c^q vanishes modulo mod, so once q reaches the
    modulus exponent for c = p, and at any q >= 1 for the truncation
    c = 0.  It equals the power taken product by product (``_pow_pn``
    over ``_layer_product``), which reduces every product modulo mod.
    """
    [(r, coeff)] = points.items()
    e = p ** rounds
    q, r = divmod(r * e, size)
    v = pow(coeff, e, mod) * pow(c, q, mod) % mod
    return {r: v} if v else {}


def _pth_power(a: list[int], p: int, i: int, e: int) -> list[int]:
    """a^p modulo p^e on the layer of len(a) slots, u^len(a) = p, for a
    with coefficients below p^e whose coefficient at r is divisible by
    p^(i - v_p(r)) (r = 0 unconstrained).

    a = U(u^p) + p^i V, U the coefficients at multiples of p and V the
    others over p^i, gives a^p = sum_k C(p, k) p^(k i) U(u^p)^(p-k) V^k.
    U(u^p)^p is the p-th power of U on the layer of len(a)/p slots, whose
    generator is u^p, and U meets the condition with i - 1.  While
    2i + 1 >= e (2i >= e for p = 2) every term k >= 2 vanishes modulo
    p^e, and term 1, p^(i+1) U(u^p)^(p-1) V, is needed modulo p^(e-1-i)
    only: its part at indices s modulo p is u^s times the product of
    U^(p-1) and V's part there, on the smaller layer.  So a round costs
    a power on a layer p times smaller and a few products there to low
    precision, not the plain power's products on the whole layer modulo
    p^e.  Below that bound, at i = 0 and on one slot the power is the
    plain one (``_pow_pn``).

    a^p meets the condition with i + 1: for i = 0 it is the sum of
    c_r^p u^(p r) modulo p, and for i >= 1 the U-term meets it by
    induction on the smaller layer and the others are divisible by
    p^(i+1).  So after i rounds ``_power_layer`` holds a vector that
    meets it with i.
    """
    size = len(a)
    mod = p ** e
    if i == 0 or size == 1 or 2 * i + (p > 2) < e:
        return _pow_pn(a, p, 1,
                       partial(_layer_product, c=p, size=size, mod=mod))
    u = a[::p]
    out = [0] * size
    out[::p] = _pth_power(u, p, i - 1, e)
    if i + 1 >= e:
        return out
    m = p ** (e - 1 - i)
    u = u_pow = [c % m for c in u]
    for _ in range(p - 2):
        u_pow = _layer_mul(u_pow, u, p, m)
    step, weight = p ** i, p ** (i + 1)
    for s in range(1, p):
        v = [c // step % m for c in a[s::p]]
        out[s::p] = [weight * c for c in _layer_mul(u_pow, v, p, m)]
    return out


def _power_layer(points: dict[int, int], m: int, p: int, n: int,
                 top: int) -> dict[int, int]:
    """The nonzero coefficients {r: C_r} of (sum_r C_r * u^r)^(p^n)
    modulo p^top, u = p^(1/p^m), n >= 0.

    points holds the nonzero C_r.  Round i of n raises to the p-th power
    modulo p^max(top - (n - i), 1): if a = a' modulo p^j with j >= 1,
    then a^p = a'^p modulo p^(j+1), since every middle binomial
    coefficient is divisible by p and jp >= j + 1.  So an input known
    modulo p^max(top - n, 1) is enough for round 1, and each round's
    result, reduced modulo its own modulus, is exact for the next; the
    last round runs modulo p^top.

    The power starts on sparse maps, because a few digits have few
    terms in the early rounds ((a + b)^(p^i) has p^i + 1), and switches
    to the dense Kronecker product for good at the first product of
    more than max(p^m, _DENSE_FLOOR) term pairs (``_layer_product``).
    Every round after that is split by the p-adic shape of the powers
    (``_pth_power``).  A map of one term at the start of a round takes
    the rounds left in closed form (``_one_term_power``), modulo p^top:
    by the lemma above, that is what the rounds would give.  Any other
    reduced input is checked against the budget on the dense layer the
    last round could need, p^m slots of the width that holds a folded
    product modulo p^top, before any product; with no rounds there is
    none.

    Only min(n, top - 1 + m) rounds run, with the same result at any n:
    the first n - top + 1 rounds run modulo p, where the layer ring is
    F_p[u]/(u^(p^m)) and a round sends c * u^r to c * u^(p r), since
    c^p = c in F_p.  After m such rounds only the constant coefficient
    is left, and every further one fixes it.

    Raises:
        BudgetError: the packed layer would exceed _LAYER_BUDGET bytes.
    """
    size = p ** m
    rounds = min(n, top - 1 + m)
    mod = p ** max(top - rounds, 1)
    vec = {r: v for r, c in points.items() if (v := c % mod)}
    if n and len(vec) != 1:
        width = _slot_width(size, p ** top, p)
        if size * width > _LAYER_BUDGET:
            raise BudgetError(
                f"a p^{n}-th power on the 1/{p}^{m} lattice needs a layer "
                f"of {size} slots of {width} bytes, over the budget of "
                f"{_LAYER_BUDGET} bytes")
    for left in range(rounds - 1, -1, -1):
        e = max(top - left, 1)
        if type(vec) is dict:
            if len(vec) == 1:
                return _one_term_power(vec, p, left + 1, size, p,
                                       p ** max(top, 1))
            vec = _pow_pn(vec, p, 1,
                          partial(_layer_product, c=p, size=size, mod=p ** e))
        else:
            vec = _pth_power(vec, p, rounds - 1 - left, e)
    if type(vec) is dict:
        return vec
    return {r: c for r, c in enumerate(vec) if c}


def untilt_power_pn(x: UntiltElement, n: int) -> UntiltElement:
    """x^(p^n) modulo p^precexp, computed on the layer (``_power_layer``:
    sparse until its products are dense).

    The result keeps x's precision exponent.  The layer arithmetic runs
    modulo a power of p that grows by one with each p-th-power round and
    reaches p^ceil(precexp), which holds every digit below it, in the
    last round (see _power_layer for why that is exact).  Any height n
    costs at most ceil(precexp) - 1 + m rounds, m the depth of x's
    lattice: of the rounds that run modulo p only the first m change
    the power.  A zero x keeps min(precexp * p^n, prec) and builds p^n
    only while it can be below the full index.

    Raises:
        KernelError: n is not a nonnegative integer.
        BudgetError: the layer would be too large to power.
    """
    _integer(n, "power tower height", 0)
    config = x.config
    p = config.p
    if n == 0:
        return x
    if x.is_zero():
        full = config.full
        if n >= full.bit_length():      # p^n >= 2^n > full
            k = full if x._k else 0
        else:
            k = min(x._k * p ** n, full)
        return UntiltElement._canonical(config, {}, k)
    m = _depth(x._digits, config)
    top = -(-x._k // config.scale)
    vec = _power_layer(_layer_points(x._digits, m, config), m, p, n, top)
    return _layer_to_element(vec, m, config, x._k)


# =====================================================================
# The multiplicative lift
# =====================================================================

def _teichmuller_sum(config: FieldConfig, components,
                     n: int) -> UntiltElement:
    """sum_i p^i [x_i^(1/p^i)] modulo p^n, the x_i taken as exact.

    [y] is (lift of y^(1/p^k))^(p^k) modulo p^(k+1) for any lift of the
    residue modulo t, since two lifts agree modulo p.  The lift is
    multiplicative and [t] = p, so x_i = t^(q p^i) w with q = floor of
    v(x_i)/p^i gives term i = p^(i+q) [w^(1/p^i)]: it vanishes modulo
    p^n once q >= n - i, and otherwise roots w by p^(n-1-q), lifts the
    digits below 1 and powers n-1-i-q rounds modulo p^(n-i-q), on the
    lattice of its own root.  The terms are summed with weight p^(i+q)
    on the deepest of those lattices, where slot r of a layer m' levels
    shallower is slot r * p^m'.

    Each term refuses only what it needs: every kept term is rooted
    first, in component order, so a ``DencapError`` comes before any
    layer work, and each power then checks its own layer budget before
    its first product (``_power_layer``).  Only the digits of w below
    t^(p^(n-1-q)) are rooted: the others land at 1 or above, outside
    the residue.
    """
    p, scale = config.p, config.scale
    roots = []
    for i, x in enumerate(components):
        if not x._digits:
            continue
        q = x._low() // (scale * p ** i)
        if q < n - i:
            w = x._shift(-q * p ** i * scale) if q else x
            cut = p ** (n - 1 - q) * scale
            if next(reversed(w._digits)) >= cut:
                w = w._at(cut)
            # every digit below the cut roots to below 1: the residue
            roots.append((i, q, w.root(n - 1 - q)._digits))
    terms = []
    for i, q, residue in roots:
        depth = _depth(residue, config)
        power = _power_layer(_layer_points(residue, depth, config), depth,
                             p, n - 1 - i - q, n - i - q)
        terms.append((depth, p ** (i + q), power))
    m = max((depth for depth, _, _ in terms), default=0)
    total = {}
    for depth, weight, power in terms:
        spread = p ** (m - depth)
        if not total:
            total = {r * spread: weight * c for r, c in power.items()}
            continue
        for r, c in power.items():
            r *= spread
            total[r] = total.get(r, 0) + weight * c
    return _layer_to_element(total, m, config, n * scale)


def sharp(x: TiltElement, target_prec: int) -> UntiltElement:
    """The multiplicative lift of x, modulo p^target_prec.

    With n = target_prec - 1, takes the exact n-fold p-th root of x,
    lifts its residue digitwise, and raises the lift to the p^n-th
    power; the result is independent of the choice of lift.  The root
    is ``TiltElement.root``, and its digits below 1 are the layer's
    coefficients directly: sharp(x) is theta of the Teichmüller vector
    of x, by the same code.  The power runs on the layer
    modulo p^(i+1) in round i (see _power_layer): a lift known modulo p
    is known modulo p^(i+1) after i p-th-power rounds.  It starts on the
    lift's few terms and goes dense only once its products fill the
    layer, so a lift of a few digits costs little even on a layer of
    many slots (the layer budget applies all the same), and a monomial
    takes no layer.

    The lift is multiplicative and t-sharp is p, so with q the integer
    part of v(x), x = t^q w gives sharp(x) = p^q sharp(w) modulo
    p^target_prec: w is rooted by p^(n-q) and powered n-q rounds on a
    layer q levels shallower, and q >= target_prec gives 0 with no
    layer at all.  Refusals are those of w's root and power (see
    _teichmuller_sum).

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
        DencapError: the root leaves the exponent lattice.
        BudgetError: the layer would be too large to power.
    """
    if not isinstance(x, TiltElement):
        raise ConfigError(
            f"sharp expects a tilt element, got "
            f"{getattr(x, 'kind', type(x).__name__)}")
    config = x.config
    if _integer(target_prec, "target precision", 1,
                PrecisionError) > config.prec:
        raise PrecisionError(
            f"target precision {target_prec} exceeds working precision "
            f"{config.prec}")
    if x._k < target_prec * config.scale:
        raise PrecisionError(
            f"sharp to precision {target_prec} needs input known modulo "
            f"t^{target_prec}, have t^{x.precexp}")
    return _teichmuller_sum(config, [x], target_prec)


def _check_lift(y: TiltElement, x: UntiltElement) -> None:
    """Refuses y unless it is a tilt of x: sharp(y) must equal x at x's
    precision."""
    if sharp(y, x.config.prec)._at(x._k) != x:
        raise KernelError(f"tilt preimage {y!r} does not lift to {x!r}")


def sharp_const(config: FieldConfig, c: int) -> UntiltElement:
    """The Teichmüller lift of the residue digit c: ``sharp`` of the
    constant c, at the working precision.

    The unique (p-1)-st root of unity (or 0) congruent to c mod p.
    """
    p = config.p
    if not (_is_int(c) and 0 <= c < p):
        raise KernelError(f"residue digit must lie in 0..{p - 1}, got {c!r}")
    return sharp(TiltElement.from_int(config, c), config.prec)


# =====================================================================
# Witt vectors
# =====================================================================

def _check_length(config: FieldConfig, length: int) -> None:
    """Refuses a Witt length outside 1..prec, before any list is built."""
    if _integer(length, "Witt length") < 1:
        raise KernelError("Witt vectors have length >= 1")
    if length > config.prec:
        raise KernelError(
            f"length {length} exceeds working precision {config.prec}")


class WittVector(_Value):
    """A finite-length Witt vector (x_0, ..., x_{n-1}) over the tilt."""

    __slots__ = ("config", "components")

    def __init__(self, config: FieldConfig, components):
        components = tuple(components)
        _check_length(config, len(components))
        for c in components:
            if not isinstance(c, TiltElement):
                raise ConfigError("Witt components must be tilt elements")
            if c.config != config:
                raise ConfigError("Witt components must share the config")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "components", components)

    def _key(self) -> tuple:
        return self.config, self.components

    @property
    def length(self) -> int:
        return len(self.components)

    @classmethod
    def zero(cls, config: FieldConfig, length: int) -> "WittVector":
        _check_length(config, length)
        return cls(config, [TiltElement.zero(config)] * length)

    @classmethod
    def teichmuller(cls, x: TiltElement, length: int) -> "WittVector":
        _check_length(x.config, length)
        rest = [TiltElement.zero(x.config)] * (length - 1)
        return cls(x.config, [x, *rest])

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
    @_json_reader("Witt")
    def from_json(cls, data: dict | str) -> "WittVector":
        from .arith import element_from_json
        components = [element_from_json(c) for c in data["components"]]
        if _integer(data["length"], "Witt length") != len(components):
            raise KernelError("Witt length field does not match")
        if not components:
            raise KernelError("Witt vectors have length >= 1")
        return cls(components[0].config, components)


# A Witt product costs min(term pairs, max(L, _DENSE_FLOOR)) units, L the
# slots of its dense layer: a sparse product its term pairs, a dense one
# the term pairs at which the switch of ``_layer_product`` takes it,
# which cost about as much.  A power of one term, taken in closed form,
# costs a unit for each product it stands for.  One Witt operation may
# spend _WITT_WORK_BUDGET units (0.2-0.7 us a unit on one Xeon core:
# 1-3 s), and the overrunning product is refused.
_WITT_WORK_BUDGET = 2 ** 22


def _witt_op(a: WittVector, b: WittVector, op: str) -> WittVector:
    """Witt addition or multiplication in the strict p-ring.

    Over the perfect ring R = F_p[t^(1/p^inf)], (x_0, ..., x_{n-1}) is
    sum_i p^i [x_i^(1/p^i)] in W_n(R) = (Z/p^n)[t^(1/p^inf)], where [y]
    is the Teichmüller lift.  Both operands become sparse maps {j: C_j}
    on u = t^(1/p^M), p^m the deepest digit denominator, M = m + n - 1;
    their sum or product C is peeled: component k is (C mod p)^(p^k),
    and C becomes (C - [C mod p]) / p.  All of it runs modulo an ideal
    inside W(t^prec R), the kernel of reading components modulo t^prec:
    the p^i digit of C_j is dropped once u^j >= t^(prec/p^i), as
    p^i t^(prec/p^i) = V^i [t^prec].  Products are those of the layer
    power, ``_layer_product`` with c = 0 on (Z/p^n)[u]/(u^L),
    L = prec * p^M: term by term up to max(L, _DENSE_FLOOR) term pairs,
    on the dense Kronecker product past that.  A Teichmüller expansion
    of one term is taken in closed form (``_one_term_power``).
    """
    if a.config != b.config or a.length != b.length:
        raise ConfigError("Witt operands must share config and length")
    config = a.config
    p, prec, n = config.p, config.prec, a.length
    m = max(_depth(x._digits, config) for x in a.components + b.components)
    depth = m + n - 1
    size = prec * p ** depth
    bounds = [prec * p ** (depth - i) for i in range(n)]
    levels, spent = {}, 0
    limit = max(size, _DENSE_FLOOR)     # term pairs past which it is dense

    def reduce(acc: dict, shift: int) -> dict:
        # C_j modulo p^(levels(j) - shift), for a layer divided by p^shift
        out = {}
        for j, c in acc.items():
            if (kept := levels.get(j)) is None:
                kept = levels[j] = sum(j < bound for bound in bounds)
            if kept > shift and (c := c % p ** (kept - shift)):
                out[j] = c
        return out

    def add(x: dict, y: dict, scale: int = 1) -> dict:
        for j, c in y.items():
            x[j] = x.get(j, 0) + scale * c
        return x

    def charge(pairs: int) -> None:
        nonlocal spent
        spent += min(pairs, limit)
        if spent > _WITT_WORK_BUDGET:
            raise BudgetError(
                f"Witt {op} of length {n} on the 1/p^{m} lattice overruns "
                f"its budget of {_WITT_WORK_BUDGET} units at a product of "
                f"{pairs} term pairs over {size} coefficients")

    def mul(x: dict, y: dict, shift: int) -> dict:
        charge(len(x) * len(y))
        prod = _layer_product(x, y, 0, size, p ** (n - shift))
        return reduce(prod if type(prod) is dict else
                      {j: c for j, c in enumerate(prod) if c}, shift)

    def teichmuller(root: dict, k: int, shift: int) -> dict:
        # [y] modulo p^(k+1) from a lift of y^(1/p^k), raised to p^k
        if len(root) > 1:
            return _pow_pn(root, p, k, lambda x, y: mul(x, y, shift))
        if not root:
            return {}
        # One term, a unit digit: taken product by product, each of the
        # k rounds would square and multiply (``_pow_pn``) one term pair
        # at a time, and no product would be empty, since the power lands
        # at most where the digit it lifts sits, below bounds[shift].
        # Each such product is charged before the closed form.
        for _ in range(k * (p.bit_length() + p.bit_count() - 2)):
            charge(1)
        return reduce(_one_term_power(root, p, k, size, 0, p ** (n - shift)),
                      shift)

    def expand(w: WittVector) -> dict:
        total = {}
        coarse = config.scale // p ** m
        for i, x in enumerate(w.components):
            root = {j // coarse: d for j, d in x._digits.items()}
            add(total, teichmuller(root, n - i - 1, i), p ** i)
        return reduce(total, 0)

    def prefix(w: WittVector, value) -> list[int]:
        return list(accumulate(map(value, w.components), min))

    # precisions and valuations as lattice indices
    ka, kb = (prefix(w, lambda x: x._k) for w in (a, b))
    if op == "add":
        layer = reduce(add(expand(a), expand(b)), 0)
        kept = [min(k1, k2) for k1, k2 in zip(ka, kb)]
    else:
        layer = mul(expand(a), expand(b), 0)
        va, vb = (prefix(w, TiltElement._low) for w in (a, b))
        kept = [min(k1 + v2, k2 + v1, config.full)
                for k1, k2, v1, v2 in zip(ka, kb, va, vb)]
    out = []
    for k in range(n):
        # The layer keeps only u^j below t^(prec/p^k), and its residue
        # is x_k^(1/p^k), on the 1/p^(m+k) lattice: x_k has the digit of
        # u^j at t^(j p^k / p^depth), on the 1/p^m lattice, so at the
        # whole lattice index j p^k p^dencap / p^depth.
        step = p ** k * config.scale
        residue = {j: d for j, c in sorted(layer.items()) if (d := c % p)}
        digits = {}
        for j, d in residue.items():
            index = j * step // p ** depth
            if index >= kept[k]:
                break
            digits[index] = d
        out.append(TiltElement._canonical(config, digits, kept[k]))
        if k < n - 1:
            down = p ** (n - k - 1)
            root = {j // down: d for j, d in residue.items()}
            add(layer, teichmuller(root, n - k - 1, k), -1)
            # C - [C mod p] vanishes mod p, so the division is exact
            layer = {j: c // p for j, c in reduce(layer, k).items()}
    return WittVector(config, out)


def witt_add(a: WittVector, b: WittVector) -> WittVector:
    """The Witt sum a + b.

    Component k is known modulo t^K_k, where K_k is the smallest
    precision exponent among the components 0..k of a and of b:
    W(R) -> W(R/I) has kernel W(I), so refining any of those components
    changes component k only by a multiple of t^K_k.

    Raises:
        BudgetError: the operation would overrun its work budget.
    """
    return _witt_op(a, b, "add")


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    """The Witt product a * b.

    Component k is known modulo t^min(K_a + V_b, K_b + V_a, prec), with
    K_a the smallest precision exponent and V_a the smallest certified
    valuation among the components 0..k of a (likewise for b): the
    digit product rule lifted through W(I) * W(J) in W(IJ).

    Raises:
        BudgetError: the operation would overrun its work budget.
    """
    return _witt_op(a, b, "mul")


# =====================================================================
# Untilting
# =====================================================================

def theta(a: WittVector) -> UntiltElement:
    """The untilting homomorphism, modulo p^length.

    theta(x_0, ..., x_{n-1}) = sum_i p^i [x_i^(1/p^i)] modulo p^n, the
    normalization with theta(Teichmüller(x)) = sharp(x).  The components
    are taken as exact digit expansions (each is promoted to full
    working precision by ``TiltElement.root``), and the result has
    precision exponent n.  The sum is formed on one layer: component
    i = t^(q p^i) w, q the integer part of v(x_i)/p^i, is p^(i+q) times
    [w^(1/p^i)] modulo p^(n-i-q), so w is rooted by p^(n-1-q), not
    p^(i+n-1), and raised to the p^(n-1-i-q)-th power, and the term is
    dropped once i + q >= n.  Each power starts sparse on the lifted
    digits and goes dense only once its products fill its layer
    (``_power_layer``).  Refusals are those of the kept terms
    (``_teichmuller_sum``).
    """
    return _teichmuller_sum(a.config, a.components, a.length)
