"""The multiplicative lift, Witt vectors and untilting."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import elements
from perfectoid.arith import (
    INF,
    FieldConfig,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    reduce_mod_uniformizer,
)
from perfectoid.tiltkit import (
    WittVector,
    _witt_structure_integer,
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
    with pytest.raises(KernelError):
        sharp_const(SC3, 3)


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


@settings(max_examples=40)
@given(data=st.data())
def test_power_tower_paths_agree(data):
    # The layer-ring power against naive digit multiplication.  At p = 2,
    # prec 32 a product coefficient bound exceeds 2^64, which exercises
    # the Kronecker slot width.
    config, max_n, max_terms = data.draw(
        st.sampled_from([(C3, 3, 4), (W2, 2, 3)]))
    x = data.draw(elements(config, "untilt", max_denpow=2,
                           max_terms=max_terms))
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    power = untilt_power_pn(x, n)
    naive = (x ** (config.p ** n)).with_precision(power.precexp)
    assert power == naive


def _assert_canonical(r):
    assert UntiltElement(r.config, r.digits, r.precexp) == r
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
        witt_mul(WittVector.zero(C3, 5), WittVector.zero(C3, 5))


@pytest.mark.parametrize("p,length", [(2, 3), (3, 3), (2, 4), (5, 3),
                                      (3, 4)])
@pytest.mark.parametrize("op", ["add", "mul"])
def test_witt_polynomials_match_ghost_components(p, length, op):
    # Independent check over the integers: evaluate the cached component
    # polynomials on numbers and compare ghost components directly.
    rng = random.Random(p * 1000 + length)
    tables = _witt_structure_integer(p, op, length)

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


def test_witt_json_round_trip():
    t = TiltElement.uniformizer(C3)
    a = WittVector(C3, [t, tilt_int(C3, 2)])
    assert WittVector.from_json(a.to_json()) == a


# =====================================================================
# theta
# =====================================================================

def test_theta_teichmuller_t_gives_p():
    cfg = FieldConfig(3, 9, 6)
    a = WittVector.teichmuller(TiltElement.uniformizer(cfg), 3)
    assert theta(a) == UntiltElement.uniformizer(cfg).with_precision(3)


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
