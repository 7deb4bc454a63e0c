"""Digit arithmetic: frozen examples, algebraic laws, serialization."""

import copy
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import elements, refined
from perfectoid import arith
from perfectoid.arith import (
    INF,
    BudgetError,
    ConfigError,
    DencapError,
    DivisionError,
    FieldConfig,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    ValExp,
    divide_exact,
    element_from_json,
    invert_unit,
    lift_mod_uniformizer,
    parse_text,
    pth_root_mod,
    reduce_mod_uniformizer,
)
from perfectoid.adicdisc import AdicPoint, Rank2Value
from perfectoid.tatealg import HomogeneousElement, Monomial

C2 = FieldConfig(2, 6, 2)
C3 = FieldConfig(3, 8, 2)
C5 = FieldConfig(5, 4, 1)

CONFIGS = [C2, C3, C5]
KINDS = ["untilt", "tilt"]


def _cls(kind):
    return UntiltElement if kind == "untilt" else TiltElement


# =====================================================================
# Exponents and configuration
# =====================================================================

def test_valexp_normalization():
    assert ValExp(3, 3) == Fraction(1)
    assert ValExp(9, 9) == Fraction(1)
    assert ValExp(0, 3 ** 5) == Fraction(0)
    e = ValExp(4, 3)
    assert (e.numerator, e.denominator) == (4, 3)
    assert e.as_fraction() == Fraction(4, 3)
    assert type(e.as_fraction()) is Fraction
    assert [ValExp(1, p ** d).denpow for p, d in
            ((2, 0), (2, 1), (3, 4), (5, 6), (2 ** 61 - 1, 3))] == \
        [0, 1, 4, 6, 3]


def test_valexp_order_and_arithmetic():
    a = ValExp(1, 9)
    b = ValExp(1, 3)
    assert a < b < ValExp(1, 1)
    assert a + b == Fraction(4, 9)
    assert b - a == Fraction(2, 9)
    assert a < INF and INF > a and not (INF < a)
    assert INF + a is INF and a + INF is INF


def test_valexp_rejects_negative_and_bad_denominator():
    with pytest.raises(KernelError, match="^negative exponent -1/p\\^0$"):
        arith._lattice_index(-1, C3)
    with pytest.raises(DencapError,
                       match="^denominator 2 is not a power of 3$"):
        UntiltElement(C3, {Fraction(1, 2): 1})
    with pytest.raises(DencapError, match="^exponent 1/27 needs denominator "
                                          "p\\^3, cap is p\\^2$"):
        UntiltElement(C3, {Fraction(1, 27): 1})


def test_config_validation():
    with pytest.raises(ConfigError):
        FieldConfig(4, 8, 2)
    with pytest.raises(ConfigError):
        FieldConfig(3, 0, 2)
    with pytest.raises(ConfigError):
        FieldConfig(3, 8, -1)
    for fields in ((3.0, 8, 2), (3, 8.0, 2), (3, 8, 2.0)):
        with pytest.raises(ConfigError):
            FieldConfig(*fields)


def test_primality_is_decided_without_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(-3, 3000):
        assert arith._is_prime(n) == trial(n), n
    # Carmichael numbers and strong pseudoprimes to the leading bases
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not arith._is_prime(n)
    start = time.perf_counter()
    assert FieldConfig(2 ** 61 - 1, 4, 2).p == 2 ** 61 - 1
    assert FieldConfig(10 ** 9 + 7, 4, 1).p == 10 ** 9 + 7
    with pytest.raises(ConfigError, match="not prime"):
        FieldConfig(2 ** 61 + 1, 4, 2)
    # beyond the bound the 12 bases are no longer exact: refused
    with pytest.raises(BudgetError, match="primality test"):
        FieldConfig(318665857834031151167461, 4, 2)
    with pytest.raises(BudgetError, match="primality test"):
        FieldConfig(2 ** 127 - 1, 4, 2)
    assert time.perf_counter() - start < 0.1


def test_config_refuses_a_lattice_scale_beyond_its_budget():
    # p^dencap is the lattice scale every element works on; one of
    # 10^8 * log2(3) bits is refused before it is computed
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        FieldConfig(3, 8, 10 ** 8)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(BudgetError):
        element_from_json({"kind": "tilt", "p": 2, "prec": 1,
                           "dencap": 2 ** 20 + 1,
                           "precexp": {"num": 1, "denpow": 0},
                           "terms": []})
    assert FieldConfig(2, 1, 2 ** 20).scale == 2 ** 2 ** 20


# =====================================================================
# Frozen arithmetic examples
# =====================================================================

def test_integer_carry():
    two = UntiltElement.from_int(C3, 2)
    assert two + two == UntiltElement(C3, {Fraction(0): 1, Fraction(1): 1})


def test_fractional_carry():
    m = UntiltElement.monomial(C3, 2, Fraction(1, 3))
    expected = UntiltElement(C3, {Fraction(1, 3): 1, Fraction(4, 3): 1})
    assert m + m == expected


def test_tilt_square_has_no_carries():
    x = TiltElement(C3, {Fraction(1, 3): 1, Fraction(1): 1})
    expected = TiltElement(
        C3, {Fraction(2, 3): 1, Fraction(4, 3): 2, Fraction(2): 1})
    assert x * x == expected


def test_negative_integers_wrap():
    minus_one = UntiltElement.from_int(C3, -1)
    assert minus_one.digits == {Fraction(j): 2 for j in range(8)}
    assert minus_one + UntiltElement.one(C3) == UntiltElement.zero(C3)


def test_valuation_examples():
    x = UntiltElement(C3, {Fraction(1, 9): 1, Fraction(1): 1})
    assert x.valuation() == Fraction(1, 9)
    assert UntiltElement.zero(C3).valuation() is INF
    y = UntiltElement(C3, {Fraction(0): 2, Fraction(5, 3): 1})
    assert y.valuation() == Fraction(0)


def test_frobenius_and_pth_root_examples():
    x = TiltElement(C3, {Fraction(1, 3): 1, Fraction(1): 1})
    root = x.pth_root()
    assert root == TiltElement(
        C3, {Fraction(1, 9): 1, Fraction(1, 3): 1}, Fraction(8, 3))
    assert TiltElement.monomial(C3, 1, Fraction(1, 3)).frobenius() == \
        TiltElement.uniformizer(C3)
    assert TiltElement.one(C3).pth_root() == \
        TiltElement.one(C3, Fraction(8, 3))


def test_frobenius_caps_precision():
    t = TiltElement.uniformizer(C3)
    fr = t.frobenius()
    assert fr == TiltElement.monomial(C3, 1, Fraction(3))
    assert fr.precexp.as_fraction() == 8


def test_reduce_and_lift_examples():
    a = UntiltElement(C3, {Fraction(1, 3): 2, Fraction(4, 3): 1})
    assert reduce_mod_uniformizer(a) == TiltElement(
        C3, {Fraction(1, 3): 2}, 1)
    b = TiltElement.monomial(C3, 1, Fraction(8, 9))
    assert lift_mod_uniformizer(b) == UntiltElement(
        C3, {Fraction(8, 9): 1}, 1)
    p = UntiltElement.uniformizer(C3)
    assert reduce_mod_uniformizer(p) == TiltElement.zero(C3, 1)


def test_pth_root_mod_examples():
    p = UntiltElement.uniformizer(C3)
    assert pth_root_mod(p, 1) == UntiltElement.zero(C3, Fraction(1, 3))
    one = UntiltElement.one(C3)
    assert pth_root_mod(one, 1) == UntiltElement.one(C3, Fraction(1, 3))
    with pytest.raises(PrecisionError):
        pth_root_mod(one, Fraction(4, 3))


def test_pth_root_mod_mixed_digit_case():
    # Frozen via the exhaustive oracle below: the unique cube root of
    # 2 + p^(1/3) modulo p has digits 2, 1, 0 at exponents 0, 1/9, 2/9.
    a = UntiltElement(C3, {Fraction(0): 2, Fraction(1, 3): 1})
    y = pth_root_mod(a, 1)
    assert y == UntiltElement(
        C3, {Fraction(0): 2, Fraction(1, 9): 1}, Fraction(1, 3))


def test_pth_root_mod_exhaustive_oracle():
    a = UntiltElement(C3, {Fraction(0): 2, Fraction(1, 3): 1})
    target = oracles.dense_from_element(a)
    cutoff = 9  # indices < 9 on the 1/9 lattice are the exponents < 1
    matches = []
    for vec in oracles.all_dense_vectors(C3, 3):
        cube = oracles.dense_pow(vec, 3, C3, "untilt")
        if cube[:cutoff] == target[:cutoff]:
            matches.append(vec[:3])
    assert matches == [[2, 1, 0]]


def test_mul_precision_tracking():
    p5 = UntiltElement.monomial(C3, 1, 5)
    fuzz = UntiltElement.zero(C3, 2)
    prod = fuzz * p5
    assert prod.is_zero()
    assert prod.precexp.as_fraction() == 7
    assert (fuzz * fuzz).precexp.as_fraction() == 4
    exact = UntiltElement.one(C3) * UntiltElement.uniformizer(C3)
    assert exact.precexp.as_fraction() == 8


def test_add_precision_is_min():
    a = UntiltElement.one(C3, 3)
    b = UntiltElement.uniformizer(C3)
    assert (a + b).precexp.as_fraction() == 3


def test_mixed_kinds_rejected():
    with pytest.raises(ConfigError):
        UntiltElement.one(C3) + TiltElement.one(C3)
    with pytest.raises(ConfigError):
        UntiltElement.one(C3) * TiltElement.one(C3)
    with pytest.raises(ConfigError):
        UntiltElement.one(C3) + UntiltElement.one(C2)


def test_pth_root_dencap_overflow():
    deep = TiltElement.monomial(C3, 1, Fraction(1, 9))
    with pytest.raises(DencapError):
        deep.pth_root()


@settings(max_examples=200)
@given(data=st.data())
def test_root_divides_every_exponent(data):
    config = data.draw(st.sampled_from(CONFIGS))
    x = data.draw(elements(config, "tilt", max_denpow=data.draw(
        st.integers(0, config.dencap))))
    n = data.draw(st.integers(0, 4))
    want = {e.as_fraction() / config.p ** n: c for e, c in x.digits.items()}
    if any(f.denominator > config.p ** config.dencap for f in want):
        with pytest.raises(DencapError):
            x.root(n)
    else:
        root = x.root(n)
        assert {e.as_fraction(): c for e, c in root.digits.items()} == want
        assert root.precexp.as_fraction() == config.prec


def test_root_is_decided_before_p_to_the_n_is_built():
    config = FieldConfig(3, 4, 2)
    third = TiltElement.monomial(config, 1, Fraction(1, 3))
    with pytest.raises(DencapError, match=r"^exponent 1/27 needs "
                                          r"denominator p\^3, cap is p\^2$"):
        third.root(2)
    # 3^10001 has 4772 decimal digits, past int-to-str's limit: the
    # exponent is worded as num/p^denpow
    start = time.perf_counter()
    with pytest.raises(DencapError, match=r"^exponent 1/3\^10001 needs "
                                          r"denominator p\^10001, cap is "
                                          r"p\^2$"):
        third.root(10 ** 4)
    with pytest.raises(DencapError, match=r"^exponent 1/3\^1000000000000"
                                          r"000001 needs"):
        third.root(10 ** 18)
    # an index of 0 holds at any depth
    for n in (0, 10 ** 7, 10 ** 18):
        assert TiltElement.one(config).root(n) == TiltElement.one(config)
    assert time.perf_counter() - start < 0.1
    # 3^9010 has 4299 decimal digits and 3^9011 has 4300: the wording
    # switches one digit early, decided from the denominator exponent
    t = TiltElement.uniformizer(FieldConfig(3, 4, 0))
    with pytest.raises(DencapError, match=rf"^exponent 1/{3 ** 9010} "):
        t.root(9010)
    with pytest.raises(DencapError, match=r"^exponent 1/3\^9011 needs"):
        t.root(9011)
    for n in (-1, 1.0, None):
        with pytest.raises(KernelError, match="root depth must be a "
                                              "nonnegative integer"):
            third.root(n)


def test_shift_and_division():
    a = UntiltElement(C3, {Fraction(1, 3): 2, Fraction(4, 3): 1})
    up = a.shift(Fraction(2, 3))
    assert up == UntiltElement(C3, {Fraction(1): 2, Fraction(2): 1})
    assert up.shift(Fraction(-2, 3)).digits == a.digits
    unit = UntiltElement(C3, {Fraction(0): 2, Fraction(1, 3): 1})
    inv = invert_unit(unit)
    assert unit * inv == UntiltElement.one(C3)
    q = divide_exact(a, UntiltElement.monomial(C3, 2, Fraction(1, 3)))
    assert q * UntiltElement.monomial(C3, 2, Fraction(1, 3)) == \
        a.with_precision(q.precexp + Fraction(1, 3))


# One rule wherever an exponent enters: off the 1/p^dencap lattice it
# is refused, also where its digit would cancel below the precision, or
# the exponent lies above prec.
_LATTICE_C = FieldConfig(3, 2, 1)
_LATTICE_D = FieldConfig(3, 4, 1)
_OFF_LATTICE = {
    "tilt digit key, digit 0 mod p": lambda: TiltElement(
        _LATTICE_C, {Fraction(1, 9): 3}),
    "untilt digit key, carried out": lambda: UntiltElement(
        _LATTICE_C, {Fraction(1, 9): 9}),
    "untilt digit key, above precexp": lambda: UntiltElement(
        _LATTICE_C, {Fraction(1, 9): 1}, 0),
    "precexp above prec": lambda: TiltElement(
        _LATTICE_C, {1: 1}, Fraction(5, 2)),
    "with_precision above prec": lambda: TiltElement.one(
        _LATTICE_C).with_precision(Fraction(5, 2)),
    "shift of zero": lambda: TiltElement.zero(_LATTICE_C).shift(
        Fraction(1, 9)),
    "homogeneous precexp above prec": lambda: HomogeneousElement(
        _LATTICE_D, "untilt", 2, 1,
        {Monomial(_LATTICE_D, [1, 0]): UntiltElement.one(_LATTICE_D)},
        Fraction(9, 2)),
    "Monomial.scaled": lambda: Monomial(
        _LATTICE_C, [Fraction(1, 3), 0]).scaled(Fraction(1, 3)),
}


@pytest.mark.parametrize("case", list(_OFF_LATTICE))
def test_an_exponent_off_the_lattice_is_refused_where_it_enters(case):
    with pytest.raises(DencapError):
        _OFF_LATTICE[case]()


@pytest.mark.parametrize("e", [Fraction(1, 9), Fraction(-1, 3),
                               Fraction(1, 2), "x"])
def test_digit_at_refuses_what_the_constructor_refuses(e):
    config = FieldConfig(3, 2, 1)
    with pytest.raises(KernelError) as built:
        TiltElement(config, {e: 1})
    with pytest.raises(KernelError) as read:
        TiltElement.one(config).digit_at(e)
    assert type(read.value) is type(built.value)
    assert TiltElement.one(config).digit_at(Fraction(0)) == 1


_NOT_RATIONAL = {
    "with_precision": lambda e: UntiltElement.one(C3).with_precision(e),
    "shift": lambda e: UntiltElement.one(C3).shift(e),
    "monomial": lambda e: UntiltElement.monomial(C3, 1, e),
    "digit key": lambda e: UntiltElement(C3, {e: 1}),
    "Monomial": lambda e: Monomial(C3, [e, 0]),
    "Monomial.scaled": lambda e: Monomial(C3, [1, 0]).scaled(e),
    "homogeneous degree": lambda e: HomogeneousElement(C3, "untilt", 2, e),
    "homogeneous with_precision": lambda e: HomogeneousElement.zero(
        C3, "untilt", 2, 1).with_precision(e),
    "pth_root_mod": lambda e: pth_root_mod(UntiltElement.one(C3), e),
    "AdicPoint.disc": lambda e: AdicPoint.disc(UntiltElement.one(C3), e),
    "Rank2Value": lambda e: Rank2Value(e, 0, "<"),
}


@pytest.mark.parametrize("entry", list(_NOT_RATIONAL))
@pytest.mark.parametrize("e", ["x", None, float("nan")], ids=repr)
def test_an_exponent_that_is_not_rational_is_a_typed_refusal(entry, e):
    with pytest.raises(KernelError):
        _NOT_RATIONAL[entry](e)


@pytest.mark.parametrize("digit", [1.5, "1", True, None, Fraction(1)],
                         ids=repr)
def test_a_digit_value_is_checked_not_converted(digit):
    with pytest.raises(KernelError, match="is not an integer$"):
        UntiltElement(C3, {0: digit})
    with pytest.raises(KernelError, match="is not an integer$"):
        TiltElement.from_int(C3, digit)


def test_a_precexp_on_the_lattice_above_prec_is_cut_to_full():
    x = TiltElement(_LATTICE_C, {1: 1}, Fraction(7, 3))
    assert x.precexp == 2
    assert x == TiltElement.uniformizer(_LATTICE_C)
    assert TiltElement.one(_LATTICE_C).with_precision(5).precexp == 2


def test_an_off_lattice_shift_keeps_the_refusals_of_a_lattice_shift():
    one = TiltElement.one(_LATTICE_C)
    with pytest.raises(DivisionError, match="^digit at exponent 0 does"):
        one.shift(Fraction(-1, 9))
    with pytest.raises(PrecisionError, match="^shift by -19/9 leaves"):
        one.shift(Fraction(-19, 9))


# =====================================================================
# Algebraic laws (property tests)
# =====================================================================

@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_add_and_mul_match_dense_oracle(config, kind, data):
    a = data.draw(elements(config, kind))
    b = data.draw(elements(config, kind))
    da, db = oracles.dense_from_element(a), oracles.dense_from_element(b)
    assert a + b == oracles.dense_to_element(
        oracles.dense_add(da, db, config, kind), config, kind)
    assert a * b == oracles.dense_to_element(
        oracles.dense_mul(da, db, config, kind), config, kind)
    assert -a == oracles.dense_to_element(
        oracles.dense_neg(da, config, kind), config, kind)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_ring_axioms(config, kind, data):
    cls = _cls(kind)
    a = data.draw(elements(config, kind))
    b = data.draw(elements(config, kind))
    c = data.draw(elements(config, kind))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + cls.zero(config) == a
    assert a * cls.one(config) == a
    assert a + (-a) == cls.zero(config)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_power_loop_is_the_repeated_product(config, kind, data):
    # square-and-multiply from the low bit makes no product by one:
    # bit_length - 1 squarings and bit_count - 1 further products
    a = data.draw(elements(config, kind, vary_precision=True))
    n = data.draw(st.integers(1, 12))
    products = []

    def mul(x, y):
        products.append((x, y))
        return x * y

    want = a
    for _ in range(n - 1):
        want = want * a
    assert arith._power(a, n, mul) == want
    assert len(products) == n.bit_length() + n.bit_count() - 2
    assert a ** n == want
    assert a ** 0 == _cls(kind).one(config)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_valuation_laws(config, kind, data):
    a = data.draw(elements(config, kind))
    b = data.draw(elements(config, kind))
    va, vb = a.valuation(), b.valuation()
    assume(va is not INF and vb is not INF)
    s = a + b
    if va != vb:
        assert s.valuation() == min(va, vb)
    else:
        assert s.valuation() is INF or s.valuation() >= va
    assume(va.as_fraction() + vb.as_fraction() < config.prec)
    assert (a * b).valuation() == va + vb


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_exponent_views_are_fractions(kind, data):
    config = data.draw(st.sampled_from(CONFIGS))
    x = data.draw(elements(config, kind, vary_precision=True))
    scale = config.scale
    assert x.precexp == Fraction(x._k, scale)
    if x.is_zero():
        assert x.valuation() is INF
    else:
        assert x.valuation() == min(x.digits) == Fraction(x._low(), scale)
    for j, c in x._digits.items():
        assert x.digits[Fraction(j, scale)] == c
    assert type(x)(x.config, x.digits, x.precexp) == x
    f = HomogeneousElement(config, kind, 1, 0, {Monomial(config, [0]): x},
                           precexp=x.precexp)
    assert f.precexp == x.precexp


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@settings(max_examples=60)
@given(data=st.data())
def test_frobenius_pth_root_inverse(config, data):
    a = data.draw(elements(config, "tilt"))
    small = a.with_precision(Fraction(config.prec, config.p))
    assert small.frobenius().pth_root() == small
    up = small.frobenius()
    assert up.pth_root().frobenius() == up


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@settings(max_examples=60)
@given(data=st.data())
def test_reduce_is_ring_homomorphism(config, data):
    a = data.draw(elements(config, "untilt"))
    b = data.draw(elements(config, "untilt"))
    ra, rb = reduce_mod_uniformizer(a), reduce_mod_uniformizer(b)
    assert reduce_mod_uniformizer(a + b) == ra + rb
    assert reduce_mod_uniformizer(a * b) == (ra * rb).with_precision(1)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@settings(max_examples=60)
@given(data=st.data())
def test_reduce_lift_section(config, data):
    a = data.draw(elements(config, "tilt"))
    below = a.with_precision(1)
    assert reduce_mod_uniformizer(lift_mod_uniformizer(below)) == below


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(data=st.data())
def test_unit_inversion(config, kind, data):
    cls = _cls(kind)
    a = data.draw(elements(config, kind))
    unit = a if a.digit_at(0) else a + cls.one(config)
    assume(unit.digit_at(0))
    assert unit * invert_unit(unit) == cls.one(config)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(data=st.data())
def test_divide_exact_recovers_factor(config, kind, data):
    a = data.draw(elements(config, kind))
    b = data.draw(elements(config, kind))
    assume(not b.is_zero())
    q = divide_exact(a * b, b)
    assert q == a.with_precision(q.precexp)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@settings(max_examples=30)
@given(data=st.data())
def test_pth_root_mod_postcondition(config, data):
    a = data.draw(elements(config, "untilt"))
    try:
        y = pth_root_mod(a, 1)
    except DencapError:
        assume(False)  # documented overflow for exponents at the cap
    # Any representative of the root's residue class works modulo p.
    diff = y.with_precision(config.prec) ** config.p - a
    v = diff.valuation()
    assert v is INF or v.as_fraction() >= 1


# =====================================================================
# Serialization
# =====================================================================

def test_text_form_frozen():
    a = UntiltElement(C3, {Fraction(1, 3): 2, Fraction(4, 3): 1})
    assert a.to_text() == "2*p^(1/3) + 1*p^(4/3) + O(p^8)"
    assert UntiltElement.from_int(C3, 5).to_text() == "2 + 1*p + O(p^8)"
    assert UntiltElement.zero(C3).to_text() == "O(p^8)"
    assert UntiltElement.zero(C3, 0).to_text() == "O(1)"
    assert UntiltElement.zero(C3, 1).to_text() == "O(p)"
    t = TiltElement.uniformizer(C3).pth_root()
    assert t.to_text() == "1*t^(1/3) + O(t^(8/3))"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python writes integers of any length")
def test_text_form_past_the_decimal_limit_is_a_typed_refusal():
    # 2^20000 has 6,021 decimal digits, past Python's int-to-str limit
    # (4,300 by default); the JSON form writes the exponent's denpow
    x = TiltElement(FieldConfig(2, 1, 20000), {Fraction(1, 2 ** 20000): 1})
    assert x.to_json()["terms"] == [{"num": 1, "denpow": 20000, "digit": 1}]
    with pytest.raises(BudgetError, match="denominator 2\\^20000"):
        x.to_text()
    with pytest.raises(BudgetError):
        repr(x)


# Refusals word their exponents as ``_index_from_json`` does: the first
# six at exponent 1/2^20000 or its root, whose denominator is past the decimal
# limit, the last two where the decimal fraction is written.
_DEEP = FieldConfig(2, 4, 20000)
_DEEP_E = Fraction(1, 2 ** 20000)
_WORDED_REFUSALS = {
    "digit": (lambda: UntiltElement(_DEEP, {-_DEEP_E: 1}), KernelError,
              "negative digit exponent -1/2^20000"),
    "precexp": (lambda: UntiltElement(_DEEP, {}, -_DEEP_E), PrecisionError,
                "negative precision exponent -1/2^20000"),
    "_shift": (lambda: TiltElement(_DEEP, {}, _DEEP_E)._shift(-2),
               PrecisionError,
               "shift by -1/2^19999 leaves no precision (precexp "
               "1/2^20000)"),
    "shift": (lambda: TiltElement(_DEEP, {_DEEP_E: 1}).shift(-1),
              DivisionError,
              "digit at exponent 1/2^20000 does not divide by t^1"),
    "invert_unit": (lambda: invert_unit(TiltElement(_DEEP, {_DEEP_E: 1})),
                    DivisionError,
                    "invert_unit needs valuation 0, got 1/2^20000"),
    "pth_root": (lambda: TiltElement(_DEEP, {_DEEP_E: 1}).pth_root(),
                 DencapError, "exponent 1/2^20001 needs denominator "
                 "p^20001, cap is p^20000"),
    "invert_unit-1/3": (
        lambda: invert_unit(TiltElement(C3, {Fraction(1, 3): 1})),
        DivisionError, "invert_unit needs valuation 0, got 1/3"),
    "invert_unit-zero": (lambda: invert_unit(TiltElement.zero(C3)),
                         DivisionError,
                         "invert_unit needs valuation 0, got INF"),
}


@pytest.mark.parametrize("case", list(_WORDED_REFUSALS))
def test_refusals_word_exponents_as_the_codec_does(case):
    call, error, message = _WORDED_REFUSALS[case]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


# Refusals of an exponent with the numerator n: (error, call, message
# at a small n, a small n, a huge n).  The huge numerators are past
# Python's int-to-str limit of 4,300 digits; the small ones keep the
# decimal wording byte for byte.
_FAR = FieldConfig(2, 1000, 14280)
_FAR_E = Fraction(1, 2 ** 14280)
_TWO = FieldConfig(2, 4, 0)
_N = 10 ** 5000 + 1
_HUGE_NUMERATORS = {
    "_shift": (
        PrecisionError,
        lambda n: TiltElement(_FAR, {}, _FAR_E).shift(-(n + 3) * _FAR_E),
        lambda n: f"shift by {-(n + 3) * _FAR_E} leaves no precision "
                  f"(precexp {_FAR_E})", 0, 1000 * 2 ** 14280),
    "off-lattice digit": (
        KernelError, lambda n: TiltElement(_TWO, {Fraction(-n, 2): 1}),
        lambda n: f"negative digit exponent {Fraction(-n, 2)}", 3, _N),
    "off-lattice shift": (
        PrecisionError, lambda n: TiltElement.one(_TWO).shift(Fraction(-n, 2)),
        lambda n: f"shift by {Fraction(-n, 2)} leaves no precision "
                  f"(precexp 4)", 11, _N),
    "lattice digit": (
        KernelError, lambda n: TiltElement(_TWO, {-(n - 1): 1}),
        lambda n: f"negative digit exponent {-(n - 1)}", 3, _N),
}


@pytest.mark.parametrize("case", list(_HUGE_NUMERATORS))
def test_huge_numerators_keep_the_refusal_type(case):
    error, call, message, small, huge = _HUGE_NUMERATORS[case]
    with pytest.raises(error) as caught:
        call(small)
    assert str(caught.value) == message(small)
    with pytest.raises(error) as caught:
        call(huge)
    assert type(caught.value) is error


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("text,what", [
    ("1*t^(" + "1" * 5000 + "/3) + O(t^4)", "the exponent of t"),
    ("1*t^(1/" + "3" * 5000 + ") + O(t^4)", "the exponent of t"),
    ("1 + O(t^" + "4" * 5000 + ")", "the exponent of t"),
    ("1" * 5000 + "*t + O(t^4)", "a digit"),
], ids=["numerator", "denominator", "precision", "digit"])
def test_text_past_the_decimal_limit_is_refused_when_read(text, what):
    # a number of 5,000 decimal digits, past Python's str-to-int limit
    # (4,300 by default): the same refusal as the writer's
    with pytest.raises(BudgetError,
                       match=f"the text form cannot read {what} in "
                             f"decimal: Exceeds the limit"):
        parse_text(text, FieldConfig(3, 4, 2), "tilt")


def test_json_form_frozen():
    a = UntiltElement(C3, {Fraction(1, 3): 2, Fraction(4, 3): 1})
    assert a.to_json() == {
        "kind": "untilt", "p": 3, "prec": 8, "dencap": 2,
        "precexp": {"num": 8, "denpow": 0},
        "terms": [{"num": 1, "denpow": 1, "digit": 2},
                  {"num": 4, "denpow": 1, "digit": 1}],
    }
    assert element_from_json(a.to_json()) == a


def test_parse_rejects_noncanonical():
    with pytest.raises(KernelError):
        parse_text("4 + O(p^8)", C3, "untilt")
    with pytest.raises(KernelError):
        parse_text("1*p + 2 + O(p^8)", C3, "untilt")
    with pytest.raises(KernelError):
        parse_text("2 + 1*p", C3, "untilt")
    with pytest.raises(KernelError):
        parse_text("2 + O(t^8)", C3, "untilt")
    with pytest.raises(KernelError):
        parse_text("1*p^(1/0) + O(p^8)", C3, "untilt")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_serialization_round_trips(config, kind, data):
    a = data.draw(elements(config, kind, vary_precision=True))
    assert parse_text(a.to_text(), config, kind) == a
    assert element_from_json(a.to_json()) == a
    text = a.to_text()
    assert parse_text(text, config, kind).to_text() == text


@st.composite
def _written_elements(draw):
    """Elements at p in {2, 3, 5}, dencap 0..6, any precision, built or
    computed by + and *."""
    config = FieldConfig(draw(st.sampled_from([2, 3, 5])),
                         draw(st.integers(1, 3)), draw(st.integers(0, 6)))
    kind = draw(st.sampled_from(KINDS))
    a, b = (draw(elements(config, kind, vary_precision=True))
            for _ in range(2))
    return draw(st.sampled_from([a, a + b, a * b]))


@settings(max_examples=300)
@given(x=_written_elements())
def test_writers_match_the_reference_writer(x):
    text = oracles.reference_text(x)
    assert x.to_text() == text
    assert repr(x) == f"<{x.kind} {text}>"
    assert x.dumps() == json.dumps(oracles.reference_json(x),
                                   separators=(",", ":"))


def _tilt_json(term, precexp=None):
    return {"kind": "tilt", "p": 3, "prec": 4, "dencap": 2,
            "precexp": precexp or {"num": 4, "denpow": 0},
            "terms": [dict(term, digit=1)]}


@pytest.mark.parametrize("exp", [
    {"num": 1, "denpow": 100_000},
    {"num": 1, "denpow": 10 ** 6},
    {"num": 3 ** 50 + 3 ** 49, "denpow": 10 ** 9},
])
def test_huge_json_denominator_is_refused_before_scaling(exp):
    # p is divided out of num only while denpow exceeds dencap: the
    # refusal never computes p^denpow
    start = time.perf_counter()
    with pytest.raises(DencapError, match=r"cap is p\^2"):
        element_from_json(_tilt_json(exp))
    with pytest.raises(DencapError, match=r"cap is p\^2"):
        element_from_json(_tilt_json({"num": 0, "denpow": 0}, exp))
    assert time.perf_counter() - start < 0.1


def test_json_exponents_off_the_lattice_or_malformed_are_refused():
    # reducible onto the lattice: read, then refused as non-canonical
    with pytest.raises(KernelError, match="not in canonical form"):
        element_from_json(_tilt_json({"num": 3 ** 40, "denpow": 41}))
    with pytest.raises(KernelError, match="not in canonical form"):
        element_from_json(_tilt_json({"num": 0, "denpow": 10 ** 9}))
    with pytest.raises(DencapError):
        element_from_json(_tilt_json({"num": 1, "denpow": 3}))
    with pytest.raises(KernelError, match="negative exponent"):
        element_from_json(_tilt_json({"num": -1, "denpow": 0}))
    for bad in ({"num": "1", "denpow": 0}, {"num": 1, "denpow": -1},
                {"num": 1.5, "denpow": 0}, {"num": 1}):
        with pytest.raises(KernelError, match="malformed element JSON"):
            element_from_json(_tilt_json(bad))
    doc = _tilt_json({"num": 0, "denpow": 0})
    doc["terms"][0]["digit"] = "one"
    with pytest.raises(KernelError, match="malformed element JSON"):
        element_from_json(doc)


def test_malformed_json_text_is_refused_typed():
    with pytest.raises(KernelError, match="^malformed element JSON"):
        element_from_json('{"kind": "tilt",')


# An element at FieldConfig(3, 4, 2): 2*p^(1/3) + 1*p^(4/3) + O(p^4).
_DOC = {"kind": "untilt", "p": 3, "prec": 4, "dencap": 2,
        "precexp": {"num": 4, "denpow": 0},
        "terms": [{"num": 1, "denpow": 1, "digit": 2},
                  {"num": 4, "denpow": 1, "digit": 1}]}
_T0, _T1 = _DOC["terms"]
_UNREDUCED = {"num": 3, "denpow": 2, "digit": 2}
_NOT_CANONICAL = (KernelError, "element JSON is not in canonical form")

# Documents the reader refuses, each with the refusal's type and text: a
# document it reads but that is not the element's own JSON form, and
# malformed ones whose refusal comes before that judgement.
NONCANONICAL_ELEMENT_DOCS = [
    ("term-unreduced", {"terms": [_UNREDUCED, _T1]}, *_NOT_CANONICAL),
    ("term-unreduced-past-dencap",
     {"terms": [{"num": 27, "denpow": 4, "digit": 2}, _T1]},
     *_NOT_CANONICAL),
    ("term-zero-over-p", {"terms": [{"num": 0, "denpow": 1, "digit": 1},
                                    _T1]}, *_NOT_CANONICAL),
    ("precexp-unreduced", {"precexp": {"num": 36, "denpow": 2}},
     *_NOT_CANONICAL),
    ("precexp-zero-over-p", {"precexp": {"num": 0, "denpow": 1},
                             "terms": []}, *_NOT_CANONICAL),
    ("descending", {"terms": [_T1, _T0]}, *_NOT_CANONICAL),
    ("repeated", {"terms": [_T0, _T0]}, *_NOT_CANONICAL),
    ("digit-0", {"terms": [_T0, dict(_T1, digit=0)]}, *_NOT_CANONICAL),
    ("digit-p", {"terms": [_T0, dict(_T1, digit=3)]}, *_NOT_CANONICAL),
    ("tilt-digit-above-p", {"kind": "tilt",
                            "terms": [_T0, dict(_T1, digit=7)]},
     *_NOT_CANONICAL),
    ("tilt-digit-negative", {"kind": "tilt",
                             "terms": [_T0, dict(_T1, digit=-1)]},
     *_NOT_CANONICAL),
    ("term-at-precexp", {"precexp": {"num": 4, "denpow": 1}},
     *_NOT_CANONICAL),
    ("term-past-precexp", {"precexp": {"num": 1, "denpow": 0}},
     *_NOT_CANONICAL),
    ("precexp-above-prec", {"precexp": {"num": 5, "denpow": 0}},
     *_NOT_CANONICAL),
    ("extra-key", {"note": 1}, *_NOT_CANONICAL),
    ("extra-term-key", {"terms": [dict(_T0, x=0), _T1]}, *_NOT_CANONICAL),
    ("extra-precexp-key", {"precexp": {"num": 4, "denpow": 0, "x": 0}},
     *_NOT_CANONICAL),
    ("terms-tuple", {"terms": (_T0, _T1)}, *_NOT_CANONICAL),
    ("unreduced-then-float-digit",
     {"terms": [_UNREDUCED, dict(_T1, digit=1.0)]}, KernelError,
     "malformed element JSON: digit 1.0 is not an integer"),
    ("unreduced-then-off-lattice",
     {"terms": [_UNREDUCED, {"num": 1, "denpow": 3, "digit": 1}]},
     DencapError, "exponent 1/3^3 needs denominator p^3, cap is p^2"),
    ("extra-key-then-missing-digit",
     {"note": 1, "terms": [_T0, {"num": 4, "denpow": 1}]}, KernelError,
     "malformed element JSON: 'digit'"),
    ("bool-p-unreduced", {"p": True, "terms": [_UNREDUCED]}, ConfigError,
     "p, prec and dencap must be integers, got True, 4, 2"),
]


@pytest.mark.parametrize("changes, error, message",
                         [case[1:] for case in NONCANONICAL_ELEMENT_DOCS],
                         ids=[case[0] for case in NONCANONICAL_ELEMENT_DOCS])
def test_noncanonical_element_json_is_refused(changes, error, message):
    assert element_from_json(copy.deepcopy(_DOC)) == UntiltElement(
        FieldConfig(3, 4, 2), {Fraction(1, 3): 2, Fraction(4, 3): 1})
    doc = {**copy.deepcopy(_DOC), **copy.deepcopy(changes)}
    with pytest.raises(error) as info:
        element_from_json(doc)
    assert type(info.value) is error and str(info.value) == message


def _mutations(draw, doc, p, cap):
    """doc, changed by one to three of the edits a hand-written document
    could carry: unreduced exponents, digits out of range, terms out of
    order, repeated, dropped or added, another precision or kind, extra
    or missing keys, a tuple for the terms."""
    exponents = st.fixed_dictionaries({"num": st.integers(0, 30),
                                       "denpow": st.integers(0, cap + 2)})
    for _ in range(draw(st.integers(1, 3))):
        terms = doc["terms"]
        edit = draw(st.sampled_from([
            "unreduce-term", "unreduce-precexp", "digit", "swap",
            "repeat", "drop", "insert", "precexp", "kind", "extra-key",
            "extra-term-key", "missing-key", "tuple"]))
        i = draw(st.integers(0, max(len(terms) - 1, 0)))
        if edit == "unreduce-precexp" or (edit == "unreduce-term"
                                          and terms):
            part = doc["precexp"] if edit == "unreduce-precexp" \
                else terms[i]
            k = draw(st.integers(1, 2))
            part["num"] *= p ** k
            part["denpow"] += k
        elif edit == "digit" and terms:
            terms[i]["digit"] = draw(st.integers(-1, 2 * p))
        elif edit == "swap" and len(terms) > 1:
            j = draw(st.integers(0, len(terms) - 1))
            terms[i], terms[j] = terms[j], terms[i]
        elif edit == "repeat" and terms:
            terms.insert(i, dict(terms[i]))
        elif edit == "drop" and terms:
            del terms[i]
        elif edit == "insert":
            terms.insert(i, {**draw(exponents),
                             "digit": draw(st.integers(1, p - 1))})
        elif edit == "precexp":
            doc["precexp"] = draw(exponents)
        elif edit == "kind":
            doc["kind"] = "tilt" if doc["kind"] == "untilt" else "untilt"
        elif edit == "extra-key":
            doc["x"] = 0
        elif edit == "extra-term-key" and terms:
            terms[i]["x"] = 0
        elif edit == "missing-key":
            part = draw(st.sampled_from([doc, doc["precexp"], *terms]))
            del part[draw(st.sampled_from(sorted(part)))]
            return doc
        elif edit == "tuple":
            doc["terms"] = tuple(terms)
            return doc
    return doc


@settings(max_examples=400)
@given(data=st.data())
def test_element_json_is_read_as_the_element_would_write_it(data):
    # a document is accepted exactly when the element it describes
    # writes it back unchanged, and refused as the composed reference
    # refuses it
    config = FieldConfig(data.draw(st.sampled_from([2, 3, 5])),
                         data.draw(st.integers(1, 4)),
                         data.draw(st.integers(0, 3)))
    x = data.draw(elements(config, data.draw(st.sampled_from(KINDS)),
                           vary_precision=True))
    doc = x.to_json()
    if data.draw(st.booleans()):
        doc = _mutations(data.draw, doc, config.p, config.dencap)
    assert _outcome(element_from_json, copy.deepcopy(doc)) == \
        _outcome(oracles.reference_element_from_json, copy.deepcopy(doc))


# =====================================================================
# The lattice core against the dense oracle, at any precision
# =====================================================================

# The benchmark's digit configs and one without fractional exponents.
ORACLE_CONFIGS = [FieldConfig(2, 16, 2), FieldConfig(3, 8, 2),
                  FieldConfig(5, 6, 1), FieldConfig(3, 6, 4),
                  FieldConfig(3, 5, 0)]


def _operands(config, kind):
    """Elements known below any lattice index, zero ones included: a
    zero element's only valuation bound is its precision."""
    scale = config.p ** config.dencap
    full = config.prec * scale
    zeros = st.integers(min_value=0, max_value=full).map(
        lambda k: _cls(kind).zero(config, Fraction(k, scale)))
    return st.one_of(zeros, elements(config, kind, vary_precision=True))


def _dense(x):
    return oracles.dense_from_element(x), oracles.dense_precision(x)


def _assert_stored_in_order(x):
    # dict equality ignores order: the writers rely on ascending indices
    assert list(x._digits) == sorted(x._digits)
    assert all(j < x._k for j in x._digits)


@pytest.mark.parametrize("config", ORACLE_CONFIGS,
                         ids=lambda c: f"p{c.p}n{c.prec}m{c.dencap}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(data=st.data())
def test_ring_ops_match_dense_oracle_at_any_precision(config, kind, data):
    a = data.draw(_operands(config, kind))
    b = data.draw(_operands(config, kind))
    (da, ka), (db, kb) = _dense(a), _dense(b)
    full = oracles.dense_length(config)

    def expect(vec, known):
        return oracles.dense_to_element(oracles.dense_truncate(vec, known),
                                        config, kind, known)

    assert a + b == expect(oracles.dense_add(da, db, config, kind),
                           min(ka, kb))
    assert a - b == expect(
        oracles.dense_add(da, oracles.dense_neg(db, config, kind), config,
                          kind), min(ka, kb))
    assert -a == expect(oracles.dense_neg(da, config, kind), ka)
    va, vb = oracles.dense_valuation(da, ka), oracles.dense_valuation(db, kb)
    assert a * b == expect(oracles.dense_mul(da, db, config, kind),
                           min(ka + vb, kb + va, full))
    for x in (a + b, a - b, -a, a * b):
        _assert_stored_in_order(x)


@pytest.mark.parametrize("config", ORACLE_CONFIGS,
                         ids=lambda c: f"p{c.p}n{c.prec}m{c.dencap}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(data=st.data())
def test_construction_matches_dense_oracle(config, kind, data):
    # coefficients outside 0..p-1, negative ones included, carry (untilt)
    # or reduce (tilt) exactly as the dense normalization does; up to
    # p^3 in size, they give borrows and carries that run past the last
    # key
    full = oracles.dense_length(config)
    scale = config.p ** config.dencap
    raw = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=full - 1),
        st.integers(min_value=-config.p ** 3, max_value=config.p ** 3),
        max_size=8))
    known = data.draw(st.integers(min_value=0, max_value=full))
    x = _cls(kind)(config, {Fraction(j, scale): c for j, c in raw.items()},
                   Fraction(known, scale))
    vec = [raw.get(j, 0) for j in range(full)]
    expected = oracles.dense_truncate(
        oracles.dense_normalize(vec, config, kind), known)
    assert x == oracles.dense_to_element(expected, config, kind, known)
    _assert_stored_in_order(x)


@pytest.mark.parametrize("config", ORACLE_CONFIGS,
                         ids=lambda c: f"p{c.p}n{c.prec}m{c.dencap}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40)
@given(data=st.data())
def test_division_matches_dense_oracle_at_any_precision(config, kind, data):
    # The quotient of known-precision operands is the unique canonical
    # expansion below its precision index with q * b == a below that
    # index plus v(b), so checking the product against the oracle
    # checks the quotient.
    a = data.draw(_operands(config, kind))
    b = data.draw(_operands(config, kind))
    (da, ka), (db, kb) = _dense(a), _dense(b)
    full = oracles.dense_length(config)
    one = [1] + [0] * (full - 1)
    if db[0]:
        inv = invert_unit(b)
        di, ki = _dense(inv)
        assert ki == kb
        assert all(0 < c < config.p for c in inv.digits.values())
        assert oracles.dense_truncate(
            oracles.dense_mul(db, di, config, kind), kb) == \
            oracles.dense_truncate(one, kb)
    else:
        with pytest.raises(DivisionError):
            invert_unit(b)
    if b.is_zero():
        with pytest.raises(DivisionError):
            divide_exact(a, b)
        return
    va, vb = oracles.dense_valuation(da, ka), oracles.dense_valuation(db, kb)
    # a * invert_unit(b / X^vb) is known below kq + vb; its lowest digit
    # sits at va when va is below that
    kq = min(ka, kb - vb + va, full) - vb
    if kq < 0:
        with pytest.raises(PrecisionError):
            divide_exact(a, b)
        return
    if va < vb:
        with pytest.raises(DivisionError):
            divide_exact(a, b)
        return
    q = divide_exact(a, b)
    dq, known = _dense(q)
    assert known == kq
    assert all(0 < c < config.p for c in q.digits.values())
    assert oracles.dense_truncate(
        oracles.dense_mul(db, dq, config, kind), kq + vb) == \
        oracles.dense_truncate(da, kq + vb)


def _outcome(operation, *args):
    """What an operation gives: its element's digits and precision, or
    its refusal's type and text."""
    try:
        x = operation(*args)
    except KernelError as exc:
        return type(exc), str(exc)
    return x.kind, x.digits, x.precexp


@pytest.mark.parametrize("config", ORACLE_CONFIGS[:4],
                         ids=lambda c: f"p{c.p}n{c.prec}m{c.dencap}")
@pytest.mark.parametrize("kind", KINDS)
def test_division_matches_the_composed_reference(config, kind):
    # divide_exact and invert_unit against a * invert_unit(b / X^v)
    # shifted down by v, on the benchmark's digit configs: divisors of
    # any valuation and precision, exact multiples, numerators that do
    # not divide, and operands known only modulo X^0
    rng = random.Random(f"{config!r} {kind}")
    cls, scale, full = _cls(kind), config.scale, config.full

    def element(terms, low=full, known=full):
        indices = [rng.randrange(low), *(rng.randrange(full)
                                         for _ in range(terms - 1))]
        return cls(config, {Fraction(j, scale): rng.randrange(1, config.p)
                            for j in indices[:terms]},
                   Fraction(known, scale))

    def any_precision():
        return rng.choice([full, full, rng.randint(0, full)])

    for _ in range(120):
        b = element(rng.randint(1, 6), rng.choice([1, 2 * scale, full]),
                    any_precision())
        numerators = [element(rng.randint(0, 6), full, any_precision()),
                      cls.zero(config, 0),
                      element(rng.randint(1, 4), full, 0)]
        c = element(rng.randint(1, 4), rng.choice([1, full]),
                    any_precision())
        multiple = c * b
        numerators += [multiple,
                       multiple + cls.monomial(config, 1, 0),
                       multiple + element(1, max(1, b._low()))]
        for a in numerators:
            assert _outcome(divide_exact, a, b) == \
                _outcome(oracles.reference_divide_exact, a, b)
        for u in (b, b.shift(-b.valuation()) if not b.is_zero() else b,
                  cls.zero(config, 0)):
            assert _outcome(invert_unit, u) == \
                _outcome(oracles.reference_invert_unit, u)


# =====================================================================
# Precision honesty: refining the inputs changes results only at or
# above the precision exponent they report
# =====================================================================

HONEST_CONFIGS = [FieldConfig(2, 6, 2), FieldConfig(3, 4, 2),
                  FieldConfig(5, 3, 1)]


def _agree(fine, coarse):
    assert fine.with_precision(coarse.precexp) == coarse


@pytest.mark.parametrize("config", HONEST_CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_ring_ops_are_honest_under_refinement(config, kind, data):
    a = data.draw(_operands(config, kind))
    b = data.draw(_operands(config, kind))
    fa, fb = refined(data, a), refined(data, b)
    _agree(fa + fb, a + b)
    _agree(fa - fb, a - b)
    _agree(fa * fb, a * b)
    scale = config.p ** config.dencap
    s = Fraction(data.draw(st.integers(min_value=-config.prec * scale,
                                       max_value=config.prec * scale)),
                 scale)
    try:
        shifted = a.shift(s)
    except (DivisionError, PrecisionError):
        return
    _agree(fa.shift(s), shifted)


@pytest.mark.parametrize("config", HONEST_CONFIGS, ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_division_is_honest_under_refinement(config, kind, data):
    # a multiple of b, so that most quotients exist
    b = data.draw(_operands(config, kind))
    a = data.draw(_operands(config, kind)) * b
    fa, fb = refined(data, a), refined(data, b)
    if b.digit_at(0):
        _agree(invert_unit(fb), invert_unit(b))
    try:
        q = divide_exact(a, b)
    except (DivisionError, PrecisionError):
        return
    _agree(divide_exact(fa, fb), q)


@pytest.mark.parametrize("config", HONEST_CONFIGS, ids=lambda c: f"p{c.p}")
@settings(max_examples=60)
@given(data=st.data())
def test_frobenius_and_residues_are_honest_under_refinement(config, data):
    x = data.draw(elements(config, "tilt", vary_precision=True,
                           max_denpow=config.dencap - 1))
    fine = refined(data, x, config.dencap - 1)
    _agree(fine.frobenius(), x.frobenius())
    _agree(fine.pth_root(), x.pth_root())
    _agree(lift_mod_uniformizer(fine), lift_mod_uniformizer(x))
    u = data.draw(elements(config, "untilt", vary_precision=True))
    _agree(reduce_mod_uniformizer(refined(data, u)),
           reduce_mod_uniformizer(u))


# =====================================================================
# Fraction stays at the boundary
# =====================================================================

def test_element_arithmetic_builds_no_fraction(fractions_built):
    """Arithmetic on built elements runs on lattice integers: no
    Fraction is constructed by +, *, ==, hash, invert_unit,
    divide_exact, frobenius or pth_root."""
    built = []
    for config in (C2, C3, C5, FieldConfig(3, 6, 4)):
        for cls in (UntiltElement, TiltElement):
            a = cls(config, {Fraction(0): 1, Fraction(1, config.p): 1,
                             Fraction(2): config.p - 1})
            b = cls(config, {Fraction(1, config.scale): 1, Fraction(3): 1},
                    config.prec - 1)
            built.append((a, b, a * b))
    roots = [TiltElement(C3, {Fraction(1, 3): 1, Fraction(2): 2})]
    roots += [r.frobenius() for r in roots]
    ones = {(a.kind, a.config): type(a).one(a.config) for a, _, _ in built}
    made = fractions_built()
    for a, b, ab in built:
        assert a + b == b + a
        assert a * b == ab
        assert hash(a * b) == hash(ab)
        assert invert_unit(a) * a == ones[a.kind, a.config]
        divide_exact(ab, b)
    for r in roots:
        r.frobenius().pth_root()
    assert made == []
    Fraction(1, 3)
    assert made == [(1, 3)]


def test_text_and_json_boundary_builds_no_fraction(fractions_built):
    """The writers and parsers reduce exponents in integers: no Fraction
    on valid input."""
    built = []
    for config in (C2, C3, C5, FieldConfig(3, 6, 4), FieldConfig(2, 3, 0)):
        for cls in (UntiltElement, TiltElement):
            a = cls(config, {Fraction(0): 1, Fraction(1, config.scale): 1,
                             Fraction(2): config.p - 1,
                             Fraction(7, config.scale): 1})
            built += [a, a.with_precision(Fraction(1, config.scale)),
                      a.with_precision(1), cls.zero(config, 0)]
    forms = [(x, x.to_text(), x.dumps()) for x in built]
    made = fractions_built()
    for x, text, dumped in forms:
        assert x.to_text() == text
        repr(x)
        x.to_json()
        assert x.dumps() == dumped
        assert parse_text(text, x.config, x.kind) == x
        assert element_from_json(dumped) == x
        assert element_from_json(json.loads(dumped)) == x
    assert made == []
