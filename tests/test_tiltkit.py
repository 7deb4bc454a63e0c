"""The multiplicative lift, Witt vectors and untilting."""

import ast
import random
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import elements
from perfectoid import tiltkit
from perfectoid.arith import (
    INF,
    BudgetError,
    DencapError,
    FieldConfig,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    _power,
    reduce_mod_uniformizer,
)
from perfectoid.tiltkit import (
    _DENSE_FLOOR,
    WittVector,
    _dense,
    _layer_mul,
    _layer_product,
    _one_term_power,
    _power_layer,
    _slot_width,
    sharp,
    sharp_const,
    theta,
    untilt_power_pn,
    witt_add,
    witt_mul,
)

SC3 = FieldConfig(3, 8, 7)     # deep root headroom for full-precision sharps
C3 = FieldConfig(3, 8, 3)
C2 = FieldConfig(2, 8, 4)
# prec = p^2 so target-3 sharps are certified representative-independent:
# the twice-rooted input is still known mod t and the limit argument applies.
TC3 = FieldConfig(3, 9, 6)
W2 = FieldConfig(2, 32, 6)     # wide coefficients: 2^32 * 2^32 > 2^64


def tilt_int(config, n):
    return TiltElement.from_int(config, n)


# =====================================================================
# sharp: frozen values
# =====================================================================

def test_sharp_sends_t_to_p():
    t = TiltElement.uniformizer(SC3)
    assert sharp(t, 8) == UntiltElement.uniformizer(SC3)


def test_sharp_constants():
    assert sharp(TiltElement.zero(SC3), 4) == UntiltElement.zero(SC3, 4)
    assert sharp(TiltElement.one(SC3), 4) == UntiltElement.one(SC3, 4)


def test_sharp_one_plus_t():
    # (1+t)^(1/3^n) = 1 + t^(1/3^n) in characteristic 3, so the stage-1
    # value is (1 + p^(1/3))^3 expanded by plain binomial arithmetic.
    x = TiltElement.one(C3) + TiltElement.uniformizer(C3)
    got = sharp(x, 2)
    stage = UntiltElement.one(C3) + UntiltElement.monomial(
        C3, 1, Fraction(1, 3))
    assert got == (stage ** 3).with_precision(2)
    assert got == UntiltElement(
        C3,
        {Fraction(0): 1, Fraction(1): 1, Fraction(4, 3): 1, Fraction(5, 3): 1},
        2)


def test_sharp_const_values():
    minus_one = sharp_const(SC3, 2)
    assert minus_one == UntiltElement.from_int(SC3, -1)
    assert sharp_const(SC3, 1) == UntiltElement.one(SC3)
    assert sharp_const(SC3, 0) == UntiltElement.zero(SC3)
    assert minus_one * minus_one == UntiltElement.one(SC3)
    for c in (3, -1, 1.5, "1", True):
        with pytest.raises(KernelError, match="^residue digit must lie"):
            sharp_const(SC3, c)


def test_sharp_const_agrees_with_sharp_on_digits():
    for c in range(3):
        assert sharp(tilt_int(SC3, c), 8) == sharp_const(SC3, c)


def test_sharp_precondition_errors():
    t = TiltElement.uniformizer(SC3)
    with pytest.raises(PrecisionError):
        sharp(t.with_precision(3), 4)
    with pytest.raises(PrecisionError):
        sharp(t, 9)
    with pytest.raises(PrecisionError):
        sharp(t, 0)


def test_sharp_non_additivity_witness():
    one = TiltElement.one(SC3)
    lhs = sharp(one + one, 2)
    rhs = (sharp(one, 2) + sharp(one, 2)).with_precision(2)
    assert lhs == UntiltElement(SC3, {Fraction(0): 2, Fraction(1): 2}, 2)
    assert rhs == UntiltElement(SC3, {Fraction(0): 2}, 2)
    assert lhs != rhs


# =====================================================================
# sharp: laws
# =====================================================================

@settings(max_examples=50)
@given(data=st.data())
def test_sharp_multiplicative(data):
    x = data.draw(elements(TC3, "tilt", max_denpow=1))
    y = data.draw(elements(TC3, "tilt", max_denpow=1))
    k = 3
    lhs = sharp(x * y, k)
    rhs = (sharp(x, k) * sharp(y, k)).with_precision(k)
    assert lhs == rhs


@settings(max_examples=50)
@given(data=st.data())
def test_sharp_preserves_valuation(data):
    x = data.draw(elements(TC3, "tilt", max_denpow=1))
    k = 3
    v = x.valuation()
    assume(v is not INF and v.as_fraction() < k)
    assert sharp(x, k).valuation() == v


@settings(max_examples=50)
@given(data=st.data())
def test_sharp_compatible_with_reduction(data):
    x = data.draw(elements(TC3, "tilt", max_denpow=1))
    k = 3
    assert reduce_mod_uniformizer(sharp(x, k)) == x.with_precision(1)


@settings(max_examples=30)
@given(data=st.data())
def test_sharp_frobenius_equivariant(data):
    x = data.draw(elements(TC3, "tilt", max_denpow=1, max_terms=4))
    k = 3
    lhs = sharp(x.frobenius(), k)
    rhs = (sharp(x, k) ** 3).with_precision(k)
    assert lhs == rhs


@settings(max_examples=80)
@given(data=st.data())
def test_power_tower_paths_agree(data):
    # The layer-ring power against naive digit multiplication.  At p = 2,
    # prec 32 a product coefficient bound exceeds 2^64, which exercises
    # the byte slots.  Varied (often fractional) precision exponents and
    # n up to prec + 1 make n exceed ceil(precexp), so that the early
    # rounds run modulo p.
    config, max_n, max_terms = data.draw(
        st.sampled_from([(C3, 3, 4), (W2, 2, 3), (FieldConfig(3, 3, 2), 4, 4),
                         (FieldConfig(5, 3, 2), 3, 3)]))
    x = data.draw(elements(config, "untilt", max_denpow=2,
                           max_terms=max_terms,
                           vary_precision=data.draw(st.booleans())))
    if data.draw(st.booleans()):
        x = x + 1
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    power = untilt_power_pn(x, n)
    naive = (x ** (config.p ** n)).with_precision(power.precexp)
    assert power == naive


def _power_cap(x):
    # the most rounds untilt_power_pn runs: ceil(precexp) - 1 + m, m the
    # depth of x's lattice
    return (-(-x._k // x.config.scale) - 1
            + tiltkit._depth(x._digits, x.config))


@settings(max_examples=30)
@given(data=st.data())
def test_power_tower_past_the_round_cap_matches_naive_powering(data):
    # Every height up to five past the cap agrees with raising x to the
    # p-th power n times, so the rounds the cap skips change nothing.
    config = data.draw(st.sampled_from([C3, C2, FieldConfig(5, 3, 2)]))
    x = data.draw(elements(config, "untilt", max_denpow=2, max_terms=4,
                           vary_precision=True))
    if data.draw(st.booleans()):
        x = x + 1
    naive = x
    for n in range(_power_cap(x) + 6):
        power = untilt_power_pn(x, n)
        assert power == naive.with_precision(power.precexp)
        naive = naive ** config.p


@pytest.mark.parametrize("digits", [{}, {0: 1, Fraction(1, 3): 1}],
                         ids=["zero", "one-plus-cube-root"])
def test_power_tower_of_any_height_answers_at_once(digits):
    x = UntiltElement(FieldConfig(3, 8, 4), digits)
    start = time.perf_counter()
    power = untilt_power_pn(x, 10 ** 18)
    assert time.perf_counter() - start < 0.01
    assert power == untilt_power_pn(x, _power_cap(x) + 5)


@pytest.mark.parametrize("bits", [8, 16, 24, 32, 40, 48, 56, 64])
@pytest.mark.parametrize("side", ["below", "above"])
@settings(max_examples=15)
@given(data=st.data())
def test_layer_mul_matches_schoolbook(bits, side, data):
    # The modulus puts the folded coefficient bound L*(mod-1)^2*(c+1)
    # just below or just above 2^bits: both sides of every slot width of
    # 1 to 8 bytes, packed through machine words, and of the switch to
    # byte-by-byte packing above 64 bits.  Each fold (c = 0 and c = p)
    # is checked on a product, a square (a is b) and length 1.
    p = data.draw(st.sampled_from([2, 3, 5]))
    length = data.draw(st.integers(min_value=1, max_value=24))
    for c in (0, p):
        scale = length * (c + 1)
        mod = 1 + isqrt((2 ** bits - 1) // scale) + (side == "above")
        bound = scale * (mod - 1) ** 2
        assert (bound < 2 ** bits) == (side == "below")
        assert (_slot_width(length, mod, c) <= bits // 8) == \
            (side == "below")
        coeffs = st.lists(st.one_of(st.just(mod - 1),
                                    st.integers(0, mod - 1)),
                          min_size=length, max_size=length)
        a, b = data.draw(coeffs), data.draw(coeffs)
        for x, y in ((a, b), (a, a), (a[:1], b[:1])):
            assert _layer_mul(x, y, c, mod) == \
                oracles.layer_mul_schoolbook(x, y, c, mod)


def test_power_refuses_oversized_layer_before_allocating():
    # A digit at 1/5^12 next to a unit asks for a layer of 5^12 (about
    # 2.4 * 10^8) slots.  sharp and theta reach it by rooting
    # 1 + t^(1/5^9) three times.
    config = FieldConfig(5, 4, 12)
    deep = UntiltElement(config, {0: 1, Fraction(1, 5 ** 12): 1})
    root = TiltElement(config, {0: 1, Fraction(1, 5 ** 9): 1})
    calls = [lambda: untilt_power_pn(deep, 1), lambda: sharp(root, 4),
             lambda: theta(WittVector.teichmuller(root, 4))]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(BudgetError,
                               match=f"layer of {5 ** 12} slots"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_a_one_term_power_on_an_oversized_layer_answers():
    # the same layers for one term: the closed form needs none of it
    config = FieldConfig(5, 4, 12)
    deep = UntiltElement.monomial(config, 1, Fraction(1, 5 ** 12))
    root = TiltElement.monomial(config, 1, Fraction(1, 5 ** 9))
    tracemalloc.start()
    try:
        power = untilt_power_pn(deep, 1)
        lift = sharp(root, 4)
        via_witt = theta(WittVector.teichmuller(root, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert power == UntiltElement.monomial(config, 1, Fraction(1, 5 ** 11))
    assert lift == via_witt == UntiltElement.monomial(
        config, 1, Fraction(1, 5 ** 9), 4)


@settings(max_examples=120)
@given(data=st.data())
@example(data=None)
def test_sparse_until_dense_power_matches_dense_oracle(data):
    # Term counts run from 1 to the whole layer, so the first product of
    # a power falls on either side of the switch to the dense product
    # (sqrt(max(L, _DENSE_FLOOR)) terms square to its limit); one term
    # takes the closed form; coefficients above the modulus check the
    # first reduction.
    if data is None:
        # the whole 1/3^3 layer: dense from the first product
        p, m, n, top = 3, 3, 2, 3
        points = {r: r + 1 for r in range(27)}
    else:
        p, max_m = data.draw(st.sampled_from([(2, 5), (3, 3), (5, 2)]))
        m = data.draw(st.integers(0, max_m))
        n = data.draw(st.integers(0, 4))
        top = data.draw(st.integers(1, 5))
        size = p ** m
        count = data.draw(st.integers(1, size))
        points = data.draw(st.dictionaries(
            st.integers(0, size - 1), st.integers(1, p ** (top + 1)),
            min_size=count, max_size=count))
    power = _power_layer(points, m, p, n, top)
    assert all(power.values())
    assert _dense(power, p ** m) == \
        oracles.power_layer_dense(points, m, p, n, top)


def test_sharp_of_few_digits_makes_no_dense_product(monkeypatch):
    # On the 3^6-slot layer a monomial or a 2-digit input stays far below
    # 3^6 term pairs in every product at k = 2; a full residue crosses to
    # the dense product at once.
    calls = []

    def counting(*args):
        calls.append(args)
        return _layer_mul(*args)

    monkeypatch.setattr(tiltkit, "_layer_mul", counting)
    config = FieldConfig(3, 9, 8)
    for digits in ({Fraction(7, 3 ** 5): 2},
                   {Fraction(1, 3 ** 5): 1, Fraction(40, 3 ** 5): 2}):
        # the cube root's digits below 1, lifted and cubed
        lift = UntiltElement(config, {e / 3: c for e, c in digits.items()})
        assert sharp(TiltElement(config, digits), 2) == \
            (lift ** 3).with_precision(2)
    assert calls == []
    full = TiltElement(config, {Fraction(j, 3 ** 5): 1
                                for j in range(1, 3 ** 5, 2)})
    assert (3 ** 5 // 2 + 1) ** 2 > max(3 ** 6, _DENSE_FLOOR)
    sharp(full, 2)
    assert calls


def _valuation(r: int, p: int) -> int:
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


@settings(max_examples=100)
@given(data=st.data())
@example(data=None)
def test_split_pth_power_matches_schoolbook(data):
    # A vector whose coefficient at r is divisible by p^(i - v_p(r)), as
    # the p^i-th powers of _power_layer are, raised to the p-th power
    # modulo p^e: split on u^p while 2i + 1 >= e (2i >= e for p = 2),
    # plain below that, at i = 0 and on one slot.
    if data is None:
        # the last round of sharp at k = 7 on a 3^4-slot layer
        p, m, i, e = 3, 4, 5, 7
        draw = random.Random(7).randrange
    else:
        p, max_m = data.draw(st.sampled_from([(2, 6), (3, 4), (5, 3)]))
        m = data.draw(st.integers(0, max_m))
        i = data.draw(st.integers(0, 6))
        e = data.draw(st.integers(1, 9))
        draw = data.draw(st.randoms(use_true_random=False)).randrange
    mod = p ** e
    vec = []
    for r in range(p ** m):
        unit = p ** max(0, i - _valuation(r, p)) if r else 1
        vec.append(unit * draw(-(-mod // unit)) % mod)
    want = vec
    for _ in range(p - 1):
        want = oracles.layer_mul_schoolbook(want, vec, p, mod)
    assert tiltkit._pth_power(vec, p, i, e) == want


def test_dense_rounds_split_off_the_multiples_of_p(monkeypatch):
    # 2 + 2t^2 + t^7 at k = 7 on the 3^6-slot layer: a cube is a square
    # and a product, so rounds 1 and 2 are products 1-4, sparse; round 3
    # squares 45 terms, past max(3^6, _DENSE_FLOOR) pairs, and runs both
    # its products, 5 and 6, on 3^6 slots.  The rounds after it split
    # off the multiples of p and multiply on at most 3^5 slots.
    products, dense = [], []

    def product(*args, **kwargs):
        products.append(args)
        return _layer_product(*args, **kwargs)

    def counting(a, b, c, mod):
        dense.append((len(products), len(a)))
        return _layer_mul(a, b, c, mod)

    monkeypatch.setattr(tiltkit, "_layer_product", product)
    monkeypatch.setattr(tiltkit, "_layer_mul", counting)
    config = FieldConfig(3, 8, 10)
    sharp(TiltElement(config, {0: 2, 2: 2, 7: 1}), 7)
    assert [n for n, slots in dense if slots == 3 ** 6] == [5, 6]
    assert max(slots for _, slots in dense[2:]) <= 3 ** 5


@settings(max_examples=200)
@given(data=st.data())
@example(data=None)
def test_one_term_power_matches_the_power_product_by_product(data):
    # (C u^r)^(p^R) in (Z/p^e)[u]/(u^L - c) against R rounds of products
    # on sparse maps; L = p^d, or prec * p^d for the Witt truncation
    # c = 0.  R runs to 3 past e - 1 + d, where _power_layer stops
    # counting rounds.
    if data is None:
        # both empty: u^2 on 3 slots cubed three times is u^54 = p^18,
        # past p^5, and u^5 on 6 slots squared passes the truncation
        cases = [(3, 3, 3, 2, 1, 3, 5), (2, 6, 0, 5, 1, 1, 3)]
    else:
        p = data.draw(st.sampled_from([2, 3, 5]))
        c = data.draw(st.sampled_from([0, p]))
        d = data.draw(st.integers(0, 4))
        size = (data.draw(st.integers(1, 9)) if c == 0 else 1) * p ** d
        e = data.draw(st.integers(1, 6))
        cases = [(p, size, c, data.draw(st.integers(0, size - 1)),
                  data.draw(st.integers(1, p ** e - 1)),
                  data.draw(st.integers(0, e + d + 2)), e)]
    for p, size, c, r, coeff, rounds, e in cases:
        mod = p ** e
        want = {r: coeff}
        for _ in range(rounds):
            want = _power(want, p,
                          partial(_layer_product, c=c, size=size, mod=mod))
        assert _one_term_power({r: coeff}, p, rounds, size, c, mod) == want
        if data is None:
            assert want == {}


def test_one_term_inputs_make_no_layer_product(monkeypatch):
    # Every power of one term is taken in closed form: sharp and theta of
    # monomials, a monomial's p^n-th power, and the Teichmüller
    # expansions and peeling of a Witt product of two monomial vectors,
    # whose one product is that of the two one-term expansions.
    calls = []

    def product(x, y, *args, **kwargs):
        calls.append((len(x), len(y)))
        return _layer_product(x, y, *args, **kwargs)

    monkeypatch.setattr(tiltkit, "_layer_product", product)
    config = FieldConfig(3, 8, 6)
    x = TiltElement.monomial(config, 2, Fraction(7, 3 ** 2))
    y = TiltElement.monomial(config, 1, Fraction(4, 3))
    u = UntiltElement.monomial(config, 2, Fraction(5, 3 ** 3))
    zero = TiltElement.zero(config)
    # sharp(2 t^a) = [2] p^a
    assert sharp(x, 5) == (sharp_const(config, 2) * UntiltElement.monomial(
        config, 1, Fraction(7, 3 ** 2))).with_precision(5)
    assert theta(WittVector(config, [x, y, zero])) == \
        (sharp(x, 3) + UntiltElement.from_int(config, 3)
         * sharp(y.root(1), 3)).with_precision(3)
    assert untilt_power_pn(u, 4) == u ** 81
    assert calls == []
    a = WittVector(config, [x, zero, zero])
    b = WittVector(config, [y, zero, zero])
    assert witt_mul(a, b) == WittVector(config, [x * y, zero, zero])
    assert calls == [(1, 1)]


@settings(max_examples=80)
@given(data=st.data())
def test_layer_to_element_matches_normalizing_constructor(data):
    # Coefficients divisible by high powers of p, as a power's are, with
    # digits at and above the precision, which need not be an integer.
    config = data.draw(st.sampled_from([C3, C2, W2]))
    p = config.p
    m = data.draw(st.integers(0, min(config.dencap, 3)))
    k = data.draw(st.integers(1, config.full))
    coeff = st.builds(lambda v, c: p ** v * c, st.integers(0, 10),
                      st.integers(1, p ** 3))
    points = data.draw(st.dictionaries(st.integers(0, p ** m - 1), coeff,
                                       max_size=12))
    value = tiltkit._layer_to_element(points, m, config, k)
    assert value == UntiltElement(
        config, {Fraction(r, p ** m): c for r, c in points.items()},
        Fraction(k, config.scale))
    assert list(value.digits) == sorted(value.digits)


def test_sharp_factors_the_integer_valuation_out(monkeypatch):
    # sharp(t^q w) = p^q sharp(w): w rooted by 3^(k-1-q), one level
    # shallower and one round fewer for each q, and no layer at q >= k.
    calls = []

    def recording(points, m, p, n, top):
        calls.append((m, n))
        return _power_layer(points, m, p, n, top)

    monkeypatch.setattr(tiltkit, "_power_layer", recording)
    config, k = FieldConfig(3, 9, 8), 5
    t = TiltElement.uniformizer(config)
    w = TiltElement(config, {0: 1, Fraction(1, 3): 2})
    base = sharp(w, k)
    assert calls == [(5, k - 1)]
    for q in range(config.prec):
        calls.clear()
        result = sharp(t ** q * w, k)
        assert result == (UntiltElement.uniformizer(config) ** q
                          * base).with_precision(k)
        assert calls == ([(5 - q, k - 1 - q)] if q < k else [])
        if q >= k:
            assert result.is_zero()


def test_every_term_is_rooted_before_any_layer_work(monkeypatch):
    # component 1 = t^(1/3^4) rooted by 3^2 leaves the 1/3^4 lattice;
    # component 0 = 1 would power first, but no layer is touched
    calls = []
    monkeypatch.setattr(tiltkit, "_power_layer",
                        lambda *args: calls.append(args))
    config = FieldConfig(3, 8, 4)
    w = WittVector(config, [
        TiltElement.one(config),
        TiltElement.monomial(config, 1, Fraction(1, 3 ** 4)),
        TiltElement.zero(config)])
    with pytest.raises(DencapError) as info:
        theta(w)
    assert str(info.value) == ("exponent 1/729 needs denominator p^6, "
                               "cap is p^4")
    assert calls == []


def _p_power(config, q, x):
    return UntiltElement.uniformizer(config) ** q * x


def _case_theta():
    # component 1 = t^5 (1 + t^(1/5^6)) is p^2 [(1 + t^(1/5^6))^(1/5)]:
    # theta = [1] + p^2 sharp(w^(1/5), 1), by linearity of the sum
    config = FieldConfig(5, 6, 8)
    w = TiltElement(config, {0: 1, Fraction(1, 5 ** 6): 1})
    value = theta(WittVector(config, [
        TiltElement.one(config), TiltElement.uniformizer(config) ** 5 * w,
        TiltElement.zero(config)]))
    expected = (UntiltElement.one(config)
                + _p_power(config, 2, sharp(w.root(1), 1))).with_precision(3)
    return value, expected


def _case_sharp(config, exps, q, k):
    # sharp(t^q w, k) against p^q sharp(w, k - q), or 0 when q >= k
    w = TiltElement(config, {e: 1 for e in exps})
    value = sharp(TiltElement.uniformizer(config) ** q * w, k)
    if q >= k:
        expected = UntiltElement.zero(config).with_precision(k)
    else:
        expected = _p_power(config, q, sharp(w, k - q)).with_precision(k)
    return value, expected


# Inputs whose whole p^(k-1) root leaves the lattice or overruns the
# layer budget, though no term of the split needs that root: t^3 rooted
# by 2^2 and by 3^3 at dencap 0, t^q (1 + t^(1/5^7)) on 5^8 slots,
# where the split needs 5^7 slots at q = 1 and no layer at q = 2, and
# 1 + t^3 rooted by 2 at dencap 0, where only the digits below t^2 reach
# the residue.
_SPLIT_VALUES = {
    "t3-p2": (lambda: _case_sharp(FieldConfig(2, 4, 0), [0], 3, 3),
              "O(p^3)"),
    "t3-p3": (lambda: _case_sharp(FieldConfig(3, 6, 0), [0], 3, 4),
              "1*p^3 + O(p^4)"),
    "t1-5^7": (lambda: _case_sharp(FieldConfig(5, 4, 8),
                                   [0, Fraction(1, 5 ** 7)], 1, 2),
               "1*p + 1*p^(78126/78125) + O(p^2)"),
    "t2-5^7": (lambda: _case_sharp(FieldConfig(5, 4, 8),
                                   [0, Fraction(1, 5 ** 7)], 2, 2),
               "O(p^2)"),
    "theta": (_case_theta, "1 + 1*p^2 + 1*p^(156251/78125) + O(p^3)"),
    "1+t3-p2": (lambda: (sharp(TiltElement(FieldConfig(2, 4, 0),
                                           {0: 1, 3: 1}), 2),
                         sharp(TiltElement.one(FieldConfig(2, 4, 0)), 2)),
                "1 + O(p^2)"),
}


@pytest.mark.parametrize("case", list(_SPLIT_VALUES))
def test_split_answers_what_the_whole_root_refused(case):
    build, text = _SPLIT_VALUES[case]
    value, expected = build()
    assert value == expected
    assert value.to_text() == text


@settings(max_examples=150)
@given(data=st.data())
def test_sharp_of_t_power_is_p_power_of_sharp(data):
    # sharp(t^q w, k) = p^q sharp(w, k - q) read at precision k whenever
    # the right side answers; when it refuses, so does the left, alike.
    config = data.draw(st.sampled_from(
        [FieldConfig(2, 6, 3), FieldConfig(3, 5, 2), FieldConfig(5, 4, 2)]))
    k = data.draw(st.integers(2, config.prec))
    q = data.draw(st.integers(1, k - 1))
    # w below t^(prec - q), so that t^q w loses no digit to truncation
    w = data.draw(elements(config, "tilt", max_terms=4)).with_precision(
        config.prec - q)
    assume(not w.is_zero())
    shifted = TiltElement.uniformizer(config) ** q * w
    try:
        expected = _p_power(config, q, sharp(w, k - q)).with_precision(k)
    except KernelError as refusal:
        with pytest.raises(type(refusal)) as info:
            sharp(shifted, k)
        assert str(info.value) == str(refusal)
        return
    assert sharp(shifted, k) == expected


def _assert_canonical(r):
    assert type(r)(r.config, r.digits, r.precexp) == r
    assert list(r.digits) == sorted(r.digits)


@settings(max_examples=40)
@given(data=st.data())
def test_layer_results_are_canonical(data):
    # untilt_power_pn and sharp build their results without renormalizing;
    # rebuilding through the normalizing constructor must change nothing.
    config = data.draw(st.sampled_from([C3, C2, W2]))
    x = data.draw(elements(config, "untilt", max_denpow=2, max_terms=4,
                           vary_precision=True))
    if data.draw(st.booleans()):
        # a unit: its power has digits right up to a fractional precexp
        x = x + 1
    n = data.draw(st.integers(min_value=0, max_value=3))
    _assert_canonical(untilt_power_pn(x, n))
    y = data.draw(elements(TC3, "tilt", max_denpow=1, max_terms=4))
    _assert_canonical(sharp(y, data.draw(st.integers(1, 3))))


# =====================================================================
# Witt vectors
# =====================================================================

def test_witt_one_plus_one_length_two():
    # Derived by hand from S_1 = (x0^p + y0^p - (x0+y0)^p)/p at (1, 1).
    assert (1 + 1 - (1 + 1) ** 3) // 3 % 3 == 1
    one = WittVector.teichmuller(TiltElement.one(C3), 2)
    total = witt_add(one, one)
    assert total == WittVector(
        C3, [tilt_int(C3, 2), TiltElement.one(C3)])


def test_witt_zero_is_neutral():
    t = TiltElement.uniformizer(C3)
    a = WittVector(C3, [t, tilt_int(C3, 2), t * t])
    assert witt_add(a, WittVector.zero(C3, 3)) == a
    assert witt_mul(a, WittVector.teichmuller(TiltElement.one(C3), 3)) == a


@pytest.mark.parametrize("length,message", [
    (0, "Witt vectors have length >= 1"),
    (-1, "Witt vectors have length >= 1"),
    (10 ** 9, "length 1000000000 exceeds working precision 8"),
])
def test_witt_length_is_refused_before_the_list_is_built(length, message):
    x = TiltElement.uniformizer(C3)
    for build in (lambda: WittVector.teichmuller(x, length),
                  lambda: WittVector.zero(C3, length)):
        start = time.perf_counter()
        with pytest.raises(KernelError) as info:
            build()
        assert time.perf_counter() - start < 0.01
        assert str(info.value) == message


def test_witt_teichmuller_multiplicative():
    t = TiltElement.uniformizer(C3)
    tt = WittVector.teichmuller(t, 2)
    assert witt_mul(tt, tt) == WittVector.teichmuller(t * t, 2)


def test_witt_length_and_kind_validation():
    with pytest.raises(KernelError):
        WittVector(C3, [])
    with pytest.raises(KernelError):
        witt_add(WittVector.zero(C3, 2), WittVector.zero(C3, 3))
    with pytest.raises(KernelError):
        WittVector.zero(C3, C3.prec + 1)
    # No length cap below the working precision: length 5 at p = 2
    # matches the universal polynomials.
    rng = random.Random(5)
    for _ in range(2):
        a, b = (_random_witt(rng, C2, 5, 1) for _ in range(2))
        _assert_matches_tables(a, b)


def test_witt_refuses_overbudget_products_before_allocating():
    # 2100 digits on the 1/5^6 lattice: the first square of the
    # Teichmüller expansion has 2100^2 term pairs, over the budget, and
    # its dense form would have 8 * 5^13 (about 10^10) coefficients.
    config = FieldConfig(5, 8, 6)
    wide = TiltElement(config, {Fraction(2 * j + 1, 5 ** 6): 1
                                for j in range(2100)})
    a = WittVector(config, [wide] + [TiltElement.zero(config)] * 7)
    for op in (witt_mul, witt_add):
        with pytest.raises(BudgetError, match=f"{2100 ** 2} term pairs "
                                              f"over {8 * 5 ** 13}"):
            op(a, a)


def test_witt_budget_charges_a_one_term_power_its_products(monkeypatch):
    # [x] * [y] at length 3, p = 3, as the products taken one by one
    # spent: each one-term expansion stands for two cubes of two products
    # each, the product of the expansions is one more, and peeling [xy]
    # off is two more cubes, 13 units in all.
    config = FieldConfig(3, 8, 6)
    zero = TiltElement.zero(config)
    x = TiltElement.monomial(config, 2, Fraction(7, 9))
    y = TiltElement.monomial(config, 1, Fraction(4, 3))
    a = WittVector(config, [x, zero, zero])
    b = WittVector(config, [y, zero, zero])
    monkeypatch.setattr(tiltkit, "_WITT_WORK_BUDGET", 12)
    with pytest.raises(BudgetError, match="budget of 12 units at a product "
                                          "of 1 term pairs over 648 "):
        witt_mul(a, b)
    monkeypatch.setattr(tiltkit, "_WITT_WORK_BUDGET", 13)
    assert witt_mul(a, b) == WittVector(config, [x * y, zero, zero])


def test_witt_sparse_inputs_on_deep_lattices_stay_cheap():
    # A monomial on the 1/5^6 lattice at length 8: its layer is one term,
    # although the dense layer would have 8 * 5^13 coefficients.
    config = FieldConfig(5, 8, 6)
    deep = TiltElement.monomial(config, 1, Fraction(1, 5 ** 6))
    zeros = [TiltElement.zero(config)] * 7
    square = witt_mul(WittVector(config, [deep] + zeros),
                      WittVector(config, [deep] + zeros))
    assert square == WittVector(config, [deep * deep] + zeros)
    # Short vectors with a few digits on the deepest lattice agree with
    # the universal polynomials.
    rng = random.Random(56)
    for length in (2, 3):
        for _ in range(2):
            a, b = (_random_witt(rng, config, length, 6) for _ in range(2))
            _assert_matches_tables(a, b)


def _random_witt(rng, config, length, max_denpow):
    # exact components with fractional exponents; about one in four is 0
    scale = config.p ** max_denpow
    comps = []
    for _ in range(length):
        digits = {}
        for _ in range(rng.choice([0, 1, 2, 3])):
            digits[Fraction(rng.randrange(config.prec * scale), scale)] = \
                rng.randrange(1, config.p)
        comps.append(TiltElement(config, digits))
    return WittVector(config, comps)


def _assert_matches_tables(a, b, ops=("add", "mul")):
    for op in ops:
        got = (witt_add if op == "add" else witt_mul)(a, b)
        want = oracles.witt_by_tables(a, b, op)
        assert [c.dumps() for c in got.components] == \
            [c.dumps() for c in want]
        for c in got.components:
            _assert_canonical(c)


@pytest.mark.parametrize("p,length,ops", [
    *[(p, n, ("add", "mul")) for p in (2, 3) for n in (1, 2, 3, 4)],
    *[(5, n, ("add", "mul")) for n in (1, 2, 3)],
    (5, 4, ("mul",)),
])
def test_witt_strict_p_ring_matches_universal_polynomials(p, length, ops):
    # The strict p-ring against term-by-term evaluation of the universal
    # component polynomials, on exact inputs.
    config = {2: FieldConfig(2, 8, 4), 3: FieldConfig(3, 6, 3),
              5: FieldConfig(5, 4, 2)}[p]
    rng = random.Random(p * 100 + length)
    for _ in range(3 if length < 4 else 1):
        a, b = (_random_witt(rng, config, length, 1) for _ in range(2))
        _assert_matches_tables(a, b, ops)


@pytest.mark.parametrize("p,length", [(2, 3), (3, 3), (2, 4), (5, 3),
                                      (3, 4)])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_witt_polynomials_match_ghost_components(p, length, op):
    # Independent check over the integers: evaluate the cached component
    # polynomials on numbers and compare ghost components directly.
    rng = random.Random(p * 1000 + length)
    tables = oracles._witt_structure_integer(p, op, length)

    def ghost(vals, k):
        return sum(p ** j * vals[j] ** (p ** (k - j)) for j in range(k + 1))

    for _ in range(20):
        xs = [rng.randrange(-4, 5) for _ in range(length)]
        ys = [rng.randrange(-4, 5) for _ in range(length)]
        values = xs + ys
        comps = []
        for terms in tables:
            total = 0
            for monom, coeff in terms:
                prod = coeff
                for idx, e in enumerate(monom):
                    if e:
                        prod *= values[idx] ** e
                total += prod
            comps.append(total)
        for k in range(length):
            expected = (ghost(xs, k) + ghost(ys, k) if op == "add"
                        else ghost(xs, k) * ghost(ys, k))
            assert ghost(comps, k) == expected


@pytest.mark.parametrize("p,prec", [(2, 8), (3, 8)])
@settings(max_examples=25)
@given(data=st.data())
def test_witt_ring_axioms(p, prec, data):
    config = FieldConfig(p, prec, 2)
    length = data.draw(st.integers(min_value=1, max_value=3))

    def draw_vec():
        comps = [data.draw(elements(config, "tilt", max_terms=3,
                                    max_denpow=1))
                 for _ in range(length)]
        return WittVector(config, comps)

    a, b, c = draw_vec(), draw_vec(), draw_vec()
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_mul(a, b) == witt_mul(b, a)
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    assert witt_mul(a, witt_add(b, c)) == \
        witt_add(witt_mul(a, b), witt_mul(a, c))


@pytest.mark.parametrize("op", [witt_add, witt_mul])
@settings(max_examples=150)
@given(data=st.data())
def test_witt_precision_is_honest_under_refinement(op, data):
    # Refining every input component compatibly (new digits only at or
    # above its precision exponent, then exact) changes each result
    # component only at or above the precision exponent it reported.
    config = data.draw(st.sampled_from([FieldConfig(2, 6, 3),
                                        FieldConfig(3, 4, 3)]))
    length = data.draw(st.integers(min_value=1, max_value=3))
    scale = config.p ** 1

    def draw_pair():
        coarse, fine = [], []
        for _ in range(length):
            x = data.draw(elements(config, "tilt", max_terms=3,
                                   max_denpow=1, vary_precision=True))
            start = int(x.precexp.as_fraction() * scale)
            limit = config.prec * scale
            extra = data.draw(st.dictionaries(
                st.integers(min_value=start, max_value=limit - 1),
                st.integers(min_value=1, max_value=config.p - 1),
                min_size=1, max_size=2)) if start < limit else {}
            digits = dict(x.digits)
            digits.update({Fraction(j, scale): c for j, c in extra.items()})
            coarse.append(x)
            fine.append(TiltElement(config, digits, config.prec))
        return WittVector(config, coarse), WittVector(config, fine)

    (a, a_fine), (b, b_fine) = draw_pair(), draw_pair()
    got, refined = op(a, b), op(a_fine, b_fine)
    for r, f in zip(got.components, refined.components):
        assert f.with_precision(r.precexp) == r


def test_witt_json_round_trip():
    t = TiltElement.uniformizer(C3)
    a = WittVector(C3, [t, tilt_int(C3, 2)])
    assert WittVector.from_json(a.to_json()) == a


# =====================================================================
# theta
# =====================================================================

def test_theta_teichmuller_t_gives_p():
    # theta([x]) = sharp(x), the normalization of theta; [t] gives p.
    cfg = FieldConfig(3, 9, 6)
    a = WittVector.teichmuller(TiltElement.uniformizer(cfg), 3)
    assert theta(a) == UntiltElement.uniformizer(cfg).with_precision(3)
    rng = random.Random(20261018)
    for config in (FieldConfig(2, 8, 4), FieldConfig(3, 6, 4),
                   FieldConfig(5, 4, 4)):
        for _ in range(25):
            x = _random_tilt(rng, config, 1, 4)
            n = rng.randrange(1, 5)
            assert theta(WittVector.teichmuller(x, n)) == sharp(x, n)


def test_theta_keeps_the_digits_of_a_coarse_component():
    # Component 1 is 1 modulo t^(1/2), so its square root is 1 modulo t
    # and theta is p; flooring the root's precision would lose the 1.
    config = FieldConfig(2, 4, 1)
    zero = TiltElement.zero(config, 4)
    w = WittVector(config, [zero, TiltElement.one(config, Fraction(1, 2)),
                            zero])
    assert theta(w).to_text() == "1*p + O(p^3)"


def test_theta_roots_every_component_by_p_to_the_length_minus_one():
    # Term 2 is p^2 * t^(1/9) lifted, with no power; rooting t by 3^4
    # would leave the 1/3^2 lattice.
    config = FieldConfig(3, 9, 2)
    zero = TiltElement.zero(config)
    w = WittVector(config, [zero, zero, TiltElement.uniformizer(config)])
    assert theta(w).to_text() == "1*p^(19/9) + O(p^3)"


def test_theta_of_two():
    two = witt_add(WittVector.teichmuller(TiltElement.one(SC3), 2),
                   WittVector.teichmuller(TiltElement.one(SC3), 2))
    value = theta(two)
    assert value == UntiltElement.from_int(SC3, 2).with_precision(2)
    # by hand: sharp_const(2) + 3 = -1 + 3 = 2 modulo 9
    assert (sharp_const(SC3, 2) + UntiltElement.uniformizer(SC3)) \
        .with_precision(2) == value


def test_theta_zero():
    assert theta(WittVector.zero(C3, 2)) == UntiltElement.zero(C3, 2)


THETA_MATRIX = [
    # (config, length, pairs): N >= p^(length-1) so that truncation in
    # the component arithmetic cannot reach the asserted congruence.
    (FieldConfig(2, 8, 6), 3, 40),
    (FieldConfig(3, 9, 6), 3, 40),
    (FieldConfig(5, 6, 3), 2, 30),
]


def _random_tilt(rng, config, max_denpow, max_terms):
    scale = config.p ** max_denpow
    digits = {}
    for _ in range(rng.randrange(max_terms + 1)):
        idx = rng.randrange(3 * scale)
        digits[Fraction(idx, scale)] = rng.randrange(1, config.p)
    return TiltElement(config, digits, config.prec)


@pytest.mark.parametrize("config,length,pairs", THETA_MATRIX,
                         ids=lambda v: str(v))
def test_theta_is_ring_homomorphism(config, length, pairs):
    rng = random.Random(20260822)
    for _ in range(pairs):
        a = WittVector(config, [_random_tilt(rng, config, 1, 3)
                                for _ in range(length)])
        b = WittVector(config, [_random_tilt(rng, config, 1, 3)
                                for _ in range(length)])
        ta, tb = theta(a), theta(b)
        assert theta(witt_add(a, b)) == (ta + tb).with_precision(length)
        assert theta(witt_mul(a, b)) == (ta * tb).with_precision(length)


@pytest.mark.parametrize("config,length,count", [
    (FieldConfig(2, 6, 4), 3, 40),
    (FieldConfig(3, 4, 4), 3, 20),
    (FieldConfig(5, 3, 2), 2, 40),     # prec < p^(length-1)
], ids=str)
def test_theta_matches_dense_oracle(config, length, count):
    # Component i gets digits on the 1/p^(dencap-i-length+1) lattice, so
    # the oracle's root by p^(i+length-1) stays on the dense lattice.
    rng = random.Random(7)
    for _ in range(count):
        w = WittVector(config, [
            _random_tilt(rng, config, config.dencap - i - length + 1, 3)
            for i in range(length)])
        assert theta(w) == oracles.theta_dense(w)


def _shifted_unit(rng, config, q, denpow):
    # t^q times a unit with up to 3 more digits on the 1/p^denpow lattice
    scale = config.p ** denpow
    digits = {Fraction(q): rng.randrange(1, config.p)}
    for _ in range(rng.randrange(4)):
        digits[q + Fraction(rng.randrange(1, 2 * scale), scale)] = \
            rng.randrange(1, config.p)
    return TiltElement(config, digits)


@pytest.mark.parametrize("config,top", [
    (FieldConfig(2, 8, 4), 5),
    (FieldConfig(3, 6, 3), 4),
    (FieldConfig(5, 5, 2), 3),
], ids=str)
def test_sharp_of_every_integer_valuation_matches_dense_oracle(config, top):
    # The oracle powers the p^(k-1) root at full depth, so it checks the
    # split of t^q out of x for q = 0 .. k+1; the digits stay on the
    # 1/p^(dencap-k+1) lattice, where the root is on the dense one.
    rng = random.Random(16)
    for k in range(1, top + 1):
        for q in range(k + 2):
            for _ in range(2):
                x = _shifted_unit(rng, config, q, config.dencap - k + 1)
                assert sharp(x, k) == \
                    oracles.theta_dense(WittVector.teichmuller(x, k))


@pytest.mark.parametrize("config,length", [
    (FieldConfig(2, 8, 4), 3),
    (FieldConfig(3, 10, 3), 2),
    (FieldConfig(5, 6, 2), 2),
], ids=str)
def test_theta_of_deep_components_matches_dense_oracle(config, length):
    # Component i = t^(q p^i) times a unit, q = 1 .. length - i, so of
    # valuation at least p^i: terms that keep fewer rounds, keep none,
    # or vanish modulo p^length.
    rng = random.Random(16)
    p = config.p
    for _ in range(12):
        components = []
        for i in range(length):
            q = rng.randint(1, length - i)
            components.append(_shifted_unit(
                rng, config, q * p ** i, config.dencap - i - length + 1))
        w = WittVector(config, components)
        assert theta(w) == oracles.theta_dense(w)


def test_oracles_import_only_arith_from_the_package():
    # The oracles must stay independent of the code they check.
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert {name for name in imported
            if name.split(".")[0] == "perfectoid"} <= {"perfectoid.arith"}
