"""Homogeneous elements, the approximation loop and its verifier."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import elements
from perfectoid.adicdisc import AdicPoint, adic_point_from_json
from perfectoid.arith import (
    ConfigError,
    DencapError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    PrecisionError,
    TiltElement,
    UntiltElement,
    reduce_mod_uniformizer,
)
from perfectoid.tatealg import (
    ApproximationError,
    HomogeneousElement,
    Monomial,
    _expand,
    _tilt_power,
    approximate,
    decompose,
    evaluate,
    sharp_element,
    valuation_at,
    verify_contract,
)
from perfectoid.tiltkit import sharp

# full-precision sharps root exponents by p^(prec-1), so dencap leaves
# that much headroom over the digit denominators in play
C3 = FieldConfig(3, 4, 5)
# prec = p^2 certifies target-3 sharp values representative-independent
TC3 = FieldConfig(3, 9, 6)


def uvar(config, nvars, j, coeff=None):
    x = HomogeneousElement.variable(config, "untilt", nvars, j)
    return x if coeff is None else x.scalar_mul(coeff)


def tvar(config, nvars, j, coeff=None):
    x = HomogeneousElement.variable(config, "tilt", nvars, j)
    return x if coeff is None else x.scalar_mul(coeff)


def w_times(config, F, s):
    return F.scalar_mul(UntiltElement.monomial(config, 1, s))


# =====================================================================
# Monomials
# =====================================================================

def test_monomial_graded_lex_order():
    a = Monomial(C3, [2, 0])
    b = Monomial(C3, [1, 1])
    c = Monomial(C3, [0, 2])
    d = Monomial(C3, [1, 0])
    assert c < b < a          # same degree, lex on exponents
    assert d < c              # lower total degree loses
    assert max([c, a, b], key=Monomial.sort_key) == a


def test_monomial_arithmetic():
    m = Monomial(C3, [Fraction(1, 3), 1])
    n = Monomial(C3, [Fraction(2, 3), 0])
    assert m * n == Monomial(C3, [1, 1])
    assert n.divides(m * n)
    assert not n.divides(m)
    assert (m * n) / n == m
    with pytest.raises(KernelError):
        m / n
    assert m.scaled(2) == Monomial(C3, [Fraction(2, 3), 2])
    assert m.total_degree() == Fraction(4, 3)


def test_monomial_lattice_guard():
    with pytest.raises(DencapError):
        Monomial(C3, [Fraction(1, 729), 0])
    m = Monomial(C3, [Fraction(1, 243), 0])
    with pytest.raises(DencapError):
        m.scaled(Fraction(1, 3))


def test_monomial_json_round_trip():
    m = Monomial(C3, [Fraction(5, 9), 2])
    assert Monomial.from_json(C3, m.to_json()) == m


def test_monomial_repr():
    assert repr(Monomial(C3, [Fraction(1, 3), 0, 2])) == "T0^(1/3)*T2^2"
    assert repr(Monomial(C3, [0, 0])) == "1"


@settings(max_examples=200)
@given(p=st.sampled_from([2, 3, 5]), dencap=st.integers(0, 6),
       data=st.data())
def test_monomial_writers_match_the_reference_writer(p, dencap, data):
    config = FieldConfig(p, 2, dencap)
    scale = config.scale
    idx = data.draw(st.lists(st.integers(0, 3 * scale), min_size=1,
                             max_size=4))
    m = Monomial(config, [Fraction(j, scale) for j in idx])
    assert repr(m) == oracles.reference_monomial_repr(m)
    assert (json.dumps(m.to_json())
            == json.dumps(oracles.reference_monomial_json(m)))
    assert Monomial.from_json(config, m.to_json()) == m


# =====================================================================
# Homogeneous elements: construction and ring laws
# =====================================================================

def test_element_rejects_mixed_degrees():
    one = UntiltElement.one(C3)
    with pytest.raises(KernelError):
        HomogeneousElement(C3, "untilt", 2, 1, {
            Monomial(C3, [1, 0]): one,
            Monomial(C3, [2, 0]): one,
        })


def test_element_rejects_kind_mismatch():
    with pytest.raises(ConfigError):
        HomogeneousElement(C3, "untilt", 1, 1,
                           {Monomial(C3, [1]): TiltElement.one(C3)})


def test_element_precision_is_the_minimum():
    # a zero coefficient still caps the precision before being dropped
    sharp_coeff = UntiltElement.one(C3)
    fuzzy_zero = UntiltElement.zero(C3, 2)
    F = HomogeneousElement(C3, "untilt", 2, 1, {
        Monomial(C3, [1, 0]): sharp_coeff,
        Monomial(C3, [0, 1]): fuzzy_zero,
    })
    assert F.precexp == 2
    assert list(F.terms) == [Monomial(C3, [1, 0])]
    assert F.terms[Monomial(C3, [1, 0])].precexp.as_fraction() == 2


def test_element_square_expands():
    T0 = uvar(C3, 2, 0)
    T1 = uvar(C3, 2, 1)
    sq = (T0 + T1) ** 2
    assert sq == HomogeneousElement(C3, "untilt", 2, 2, {
        Monomial(C3, [2, 0]): UntiltElement.one(C3),
        Monomial(C3, [1, 1]): UntiltElement.from_int(C3, 2),
        Monomial(C3, [0, 2]): UntiltElement.one(C3),
    })
    assert sq.degree == 2


def test_element_add_requires_one_degree():
    with pytest.raises(KernelError):
        uvar(C3, 2, 0) + HomogeneousElement.one(C3, "untilt", 2)


def test_element_leading_term():
    F = uvar(C3, 2, 0) + uvar(C3, 2, 1)
    mono, coeff = F.leading()
    assert mono == Monomial(C3, [1, 0])
    assert coeff == UntiltElement.one(C3)
    with pytest.raises(KernelError):
        HomogeneousElement.zero(C3, "untilt", 2, 1).leading()


def test_element_json_round_trip():
    p13 = UntiltElement.monomial(C3, 1, Fraction(1, 3))
    F = HomogeneousElement(C3, "untilt", 2, Fraction(4, 3), {
        Monomial(C3, [Fraction(1, 3), 1]): p13,
        Monomial(C3, [Fraction(4, 3), 0]): UntiltElement.from_int(C3, 2),
    }, 4)
    assert HomogeneousElement.from_json(F.to_json()) == F
    assert HomogeneousElement.from_json(F.dumps()) == F


def test_element_json_is_read_without_fraction(fractions_built):
    p13 = UntiltElement.monomial(C3, 1, Fraction(1, 3))
    F = HomogeneousElement(C3, "untilt", 2, Fraction(4, 3), {
        Monomial(C3, [Fraction(1, 3), 1]): p13,
        Monomial(C3, [Fraction(4, 3), 0]): UntiltElement.from_int(C3, 2),
    }, Fraction(11, 9))
    dumped = F.dumps()
    made = fractions_built()
    assert HomogeneousElement.from_json(dumped) == F
    assert F.dumps() == dumped
    assert [repr(m) for m in F.terms] == ["T0^(1/3)*T1", "T0^(4/3)"]
    assert made == []


def test_malformed_json_text_is_refused_typed():
    with pytest.raises(KernelError,
                       match="^malformed homogeneous element JSON"):
        HomogeneousElement.from_json('{"p": 3,')


@pytest.mark.parametrize("field", ["degree", "precexp", "exps"])
def test_huge_json_denominator_in_an_element_is_refused(field):
    F = HomogeneousElement(C3, "untilt", 2, 1, {
        Monomial(C3, [1, 0]): UntiltElement.one(C3)}, 4)
    doc = F.to_json()
    huge = {"num": 1, "denpow": 10 ** 6}
    if field == "exps":
        doc["terms"][0]["exps"][0] = huge
    else:
        doc[field] = huge
    start = time.perf_counter()
    with pytest.raises(DencapError, match=r"cap is p\^5"):
        HomogeneousElement.from_json(doc)
    assert time.perf_counter() - start < 0.1


def test_scalar_multiplication_shifts_digits():
    F = uvar(C3, 1, 0, UntiltElement.from_int(C3, 2))
    G = w_times(C3, F, 1)
    assert G.terms[Monomial(C3, [1])] == UntiltElement.monomial(C3, 2, 1)


# =====================================================================
# sharp_element: frozen values and the coefficient oracle
# =====================================================================

def test_sharp_element_fixes_rational_monomials():
    g = tvar(C3, 1, 0, TiltElement.monomial(C3, 1, Fraction(1, 3)))
    f = sharp_element(g, 4)
    assert f == uvar(C3, 1, 0, UntiltElement.monomial(C3, 1, Fraction(1, 3)))


def test_sharp_element_is_identity_on_plain_variables():
    g = tvar(C3, 2, 0) + tvar(C3, 2, 1)
    assert sharp_element(g, 4) == uvar(C3, 2, 0) + uvar(C3, 2, 1)


def test_sharp_element_matches_coefficient_lift():
    one_plus_t = TiltElement.one(TC3) + TiltElement.uniformizer(TC3)
    g = HomogeneousElement(TC3, "tilt", 2, 2,
                           {Monomial(TC3, [1, 1]): one_plus_t})
    f = sharp_element(g, 3)
    assert f.terms[Monomial(TC3, [1, 1])] == sharp(one_plus_t, 3)
    assert f.precexp == 3


def test_sharp_element_is_multiplicative_mod_target():
    g1 = tvar(TC3, 2, 0, TiltElement.one(TC3) + TiltElement.uniformizer(TC3))
    g2 = tvar(TC3, 2, 0) + tvar(TC3, 2, 1, TiltElement.uniformizer(TC3))
    lhs = sharp_element(g1 * g2, 3)
    rhs = (sharp_element(g1, 3) * sharp_element(g2, 3)).with_precision(3)
    assert lhs == rhs


def test_sharp_element_requires_tilt_input():
    with pytest.raises(ConfigError):
        sharp_element(uvar(C3, 1, 0), 4)


# =====================================================================
# _tilt_power: exact fractional powers in characteristic p, by the
# lattice index of the exponent (1/3 at C3 is index 81)
# =====================================================================

THIRD = C3.scale // 3


def test_tilt_power_cube_root_cubes_back():
    g = tvar(C3, 2, 0) + tvar(C3, 2, 1, TiltElement.uniformizer(C3))
    r = _tilt_power(g, THIRD)
    assert r.terms == {
        Monomial(C3, [Fraction(1, 3), 0]): TiltElement.one(C3),
        Monomial(C3, [0, Fraction(1, 3)]):
            TiltElement.monomial(C3, 1, Fraction(1, 3)),
    }
    assert r ** 3 == g.with_precision(C3.prec)
    assert r.degree == Fraction(1, 3)


def test_tilt_power_integer_and_trivial_cases():
    g = tvar(C3, 1, 0)
    assert _tilt_power(g, 0) == HomogeneousElement.one(C3, "tilt", 1)
    assert _tilt_power(g, C3.scale) == g.with_precision(C3.prec)
    assert _tilt_power(g, 2 * C3.scale) == g * g


def test_tilt_power_respects_the_lattice():
    g = tvar(C3, 1, 0, TiltElement.monomial(C3, 1, Fraction(1, 243)))
    with pytest.raises(DencapError):
        _tilt_power(g, THIRD)


# =====================================================================
# decompose: slicing along powers of the uniformizer
# =====================================================================

def test_decompose_splits_linear_form():
    f = uvar(C3, 2, 0) + uvar(C3, 2, 1, UntiltElement.uniformizer(C3))
    g0, g1 = decompose(f, 1)
    assert g0 == tvar(C3, 2, 0)
    assert g1 == tvar(C3, 2, 1)


def test_decompose_keeps_rational_digits():
    coeff = UntiltElement.monomial(C3, 1, Fraction(1, 3))
    f = uvar(C3, 1, 0, coeff)
    (g0,) = decompose(f, 0)
    assert g0 == tvar(C3, 1, 0, TiltElement.monomial(C3, 1, Fraction(1, 3)))


def test_decompose_unit_coefficient():
    f = uvar(C3, 1, 0, UntiltElement.one(C3)
             + UntiltElement.uniformizer(C3))
    g0, g1 = decompose(f, 1)
    assert g0 == tvar(C3, 1, 0)
    assert g1 == tvar(C3, 1, 0)
    recomb = sharp_element(g0, 2) + w_times(C3, sharp_element(g1, 1), 1)
    assert recomb.with_precision(2) == f.with_precision(2)


def test_decompose_needs_enough_precision():
    f = uvar(C3, 1, 0).with_precision(2)
    with pytest.raises(PrecisionError):
        decompose(f, 2)


@settings(max_examples=40)
@given(
    p=st.sampled_from([2, 3, 5]),
    c=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_decompose_recombines_mod_depth(p, c, data):
    config = FieldConfig(p, 4, 4)
    a = data.draw(elements(config, "untilt", max_terms=3, max_denpow=1))
    b = data.draw(elements(config, "untilt", max_terms=3, max_denpow=1))
    f = HomogeneousElement(config, "untilt", 2, 1, {
        Monomial(config, [1, 0]): a,
        Monomial(config, [0, 1]): b,
    })
    parts = decompose(f, c)
    assert len(parts) == c + 1
    # slice i only reaches the target modulo w^(c+1-i); the weighted sum
    # is then determined exactly modulo w^(c+1)
    recomb = HomogeneousElement.zero(config, "untilt", 2, 1)
    for i, gi in enumerate(parts):
        recomb = recomb + w_times(config, sharp_element(gi, c + 1 - i), i)
    assert recomb.with_precision(c + 1) == f.with_precision(c + 1)


# =====================================================================
# Points and evaluation
# =====================================================================

def test_evaluate_integer_exponents():
    F = HomogeneousElement(C3, "untilt", 2, 2,
                           {Monomial(C3, [1, 1]): UntiltElement.one(C3)})
    pt = AdicPoint.classical(UntiltElement.uniformizer(C3),
                             UntiltElement.one(C3)
                             + UntiltElement.uniformizer(C3))
    got = evaluate(F, pt)
    want = UntiltElement.uniformizer(C3) * (
        UntiltElement.one(C3) + UntiltElement.uniformizer(C3))
    assert got == want


def test_evaluate_fractional_exponent_on_uniformizer_powers():
    F = HomogeneousElement(C3, "untilt", 2, 1, {
        Monomial(C3, [Fraction(1, 3), Fraction(2, 3)]):
            UntiltElement.one(C3)})
    pt = AdicPoint.classical(*[UntiltElement.uniformizer(C3)] * 2)
    assert evaluate(F, pt) == UntiltElement.uniformizer(C3)


def test_evaluate_fractional_exponent_through_preimage():
    y = TiltElement.one(C3) + TiltElement.uniformizer(C3)
    x = sharp(y, C3.prec)
    pt = AdicPoint.classical(x, tilts=[y])
    F = HomogeneousElement(
        C3, "untilt", 1, Fraction(1, 3),
        {Monomial(C3, [Fraction(1, 3)]): UntiltElement.one(C3)})
    # (1+t)^(1/3) = 1 + t^(1/3), so the value is its sharp image
    root = TiltElement.one(C3) + TiltElement.monomial(C3, 1, Fraction(1, 3))
    assert evaluate(F, pt) == sharp(root, C3.prec)


def test_evaluate_a_tilt_element_at_the_tilt_coordinates():
    # F = T0^(1/3) T1^(2/3) + t T0 at the tilt coordinates (1 + t, y1)
    F = HomogeneousElement(C3, "tilt", 2, 1, {
        Monomial(C3, [Fraction(1, 3), Fraction(2, 3)]): TiltElement.one(C3),
        Monomial(C3, [1, 0]): TiltElement.uniformizer(C3)})
    y0 = TiltElement.one(C3) + TiltElement.uniformizer(C3)
    for y1, want in [
            # (1 + t^(1/3)) t^(2/3) + t (1 + t) = t^(2/3) + 2t + t^2
            (TiltElement.uniformizer(C3),
             TiltElement(C3, {Fraction(2, 3): 1, 1: 2, 2: 1})),
            # a zero coordinate: its roots are zero at full precision
            (TiltElement.zero(C3), TiltElement(C3, {1: 1, 2: 1}))]:
        pt = AdicPoint.classical(*[sharp(y, C3.prec) for y in (y0, y1)],
                                 tilts=[y0, y1])
        assert evaluate(F, pt) == want


def test_evaluate_reports_missing_roots():
    F = HomogeneousElement(
        C3, "untilt", 1, Fraction(1, 3),
        {Monomial(C3, [Fraction(1, 3)]): UntiltElement.one(C3)})
    pt = AdicPoint.classical(UntiltElement.one(C3)
                             + UntiltElement.uniformizer(C3))
    with pytest.raises(IndeterminateError):
        evaluate(F, pt)


def test_evaluate_zero_coordinate_and_empty_element():
    F = uvar(C3, 2, 0) + uvar(C3, 2, 1)
    pt = AdicPoint.classical(UntiltElement.zero(C3, 4),
                             UntiltElement.one(C3))
    assert evaluate(F, pt) == UntiltElement.one(C3)
    Z = HomogeneousElement.zero(C3, "untilt", 2, 1, 4)
    assert evaluate(Z, pt).is_zero()


def test_evaluate_rejects_the_gauss_point():
    with pytest.raises(KernelError):
        evaluate(uvar(C3, 1, 0), AdicPoint.gauss(C3))


def test_point_validates_tilt_preimages():
    y = TiltElement.uniformizer(C3)
    good = UntiltElement.uniformizer(C3)
    AdicPoint.classical(good, tilts=[y])
    with pytest.raises(KernelError, match="^tilt preimage .* does not lift "):
        AdicPoint.classical(UntiltElement.one(C3), tilts=[y])


def test_point_json_round_trip():
    y = TiltElement.uniformizer(C3)
    pt = AdicPoint.classical(UntiltElement.uniformizer(C3),
                             UntiltElement.one(C3), tilts=[y, None])
    back = adic_point_from_json(pt.to_json())
    assert back == pt
    gauss = AdicPoint.gauss(C3, 2)
    assert gauss.to_json() == {"kind": "gauss"}
    assert adic_point_from_json(gauss.to_json(), C3, 2) == gauss


def test_gauss_valuation_reads_coefficients():
    F = (uvar(C3, 2, 0, UntiltElement.monomial(C3, 1, 2))
         + uvar(C3, 2, 1, UntiltElement.uniformizer(C3)))
    assert valuation_at(F, AdicPoint.gauss(C3, 2)) == (1, 1)
    Z = HomogeneousElement.zero(C3, "untilt", 2, 1, 4)
    assert valuation_at(Z, AdicPoint.gauss(C3, 2)) == (None, 4)


def test_classical_valuation_flags_unsettled_zero():
    F = uvar(C3, 2, 0) - uvar(C3, 2, 1)
    pt = AdicPoint.classical(UntiltElement.one(C3), UntiltElement.one(C3))
    exact, lower = valuation_at(F, pt)
    assert exact is None
    assert lower == 4


# =====================================================================
# approximate: frozen runs
# =====================================================================

def test_approximate_exact_residue_stops_at_once():
    f = uvar(C3, 2, 0) + uvar(C3, 2, 1)
    g = approximate(f, 1, Fraction(1, 3))
    assert g == tvar(C3, 2, 0) + tvar(C3, 2, 1)


def test_approximate_linear_form():
    f = uvar(C3, 2, 0) + uvar(C3, 2, 1, UntiltElement.uniformizer(C3))
    g = approximate(f, 1, Fraction(1, 3))
    assert g == tvar(C3, 2, 0) + tvar(C3, 2, 1, TiltElement.uniformizer(C3))


def test_approximate_quadratic_depth():
    f = (uvar(C3, 3, 0)
         + uvar(C3, 3, 1, UntiltElement.uniformizer(C3))
         + uvar(C3, 3, 2, UntiltElement.monomial(C3, 1, 2)))
    g = approximate(f, 2, Fraction(1, 3))
    assert g == (tvar(C3, 3, 0)
                 + tvar(C3, 3, 1, TiltElement.uniformizer(C3))
                 + tvar(C3, 3, 2, TiltElement.monomial(C3, 1, 2)))


def test_approximate_unit_coefficient_meets_contract():
    # 1 + p has no finite tilt expansion, so every stage refines; the
    # digit denominators grow by one p-power per stage and the dencap
    # must hold all of them
    UC3 = FieldConfig(3, 4, 14)
    f = uvar(UC3, 1, 0, UntiltElement.one(UC3)
             + UntiltElement.uniformizer(UC3))
    g = approximate(f, 1, Fraction(1, 3))
    assert g.degree == f.degree
    pts = [AdicPoint.gauss(UC3),
           AdicPoint.classical(UntiltElement.one(UC3)),
           AdicPoint.classical(UntiltElement.uniformizer(UC3)),
           AdicPoint.classical(UntiltElement.zero(UC3, 4))]
    report = verify_contract(f, g, 1, Fraction(1, 3), pts)
    assert report.passed, report.failures()


def test_approximate_validates_inputs():
    f = uvar(C3, 1, 0)
    with pytest.raises(KernelError):
        approximate(f, -1, Fraction(1, 3))
    with pytest.raises(KernelError):
        approximate(f, 1, Fraction(3, 2))
    with pytest.raises(DencapError):
        approximate(f, 1, Fraction(1, 2))    # off the p = 3 lattice
    with pytest.raises(PrecisionError):
        approximate(f.with_precision(1), 1, Fraction(1, 3))


_DEPTH_AND_BUDGET_CALLS = {
    "approximate": lambda c, eps: approximate(uvar(C3, 1, 0), c, eps),
    "verify_contract": lambda c, eps: verify_contract(
        uvar(C3, 1, 0), tvar(C3, 1, 0), c, eps, [AdicPoint.gauss(C3)]),
}


@pytest.mark.parametrize("call", _DEPTH_AND_BUDGET_CALLS.values(),
                         ids=_DEPTH_AND_BUDGET_CALLS)
@pytest.mark.parametrize("c,eps,message", [
    ("x", "1/3", "^depth 'x' is not a rational$"),
    (1, "1/0", "^loss budget '1/0' is not a rational$"),
    (float("inf"), "1/3", "^depth inf is not a rational$"),
    (1, float("nan"), "^loss budget nan is not a rational$"),
    (None, "1/3", "^depth None is not a rational$"),
    (-1, "1/3", "^depth must be nonnegative, got -1$"),
    (1, "3/2", r"^loss budget must satisfy 0 < eps < 1, got 3/2$"),
], ids=["text", "zero-denominator", "infinite", "nan", "none",
        "negative-depth", "budget-above-one"])
def test_depth_and_budget_are_checked_alike(call, c, eps, message):
    with pytest.raises(KernelError, match=message) as refused:
        call(c, eps)
    assert type(refused.value) is KernelError


def _valexp(e):
    """The exponent e as the ValExp that ``valuation()`` hands out."""
    return UntiltElement.monomial(C3, 1, e).valuation()


def _linear_form():
    return uvar(C3, 2, 0) + uvar(C3, 2, 1, UntiltElement.uniformizer(C3))


# Each entry point that reads an exponent, called with the exponent
# builder e (Fraction or _valexp).
_EXPONENT_CALLS = {
    "init": lambda e: HomogeneousElement(C3, "untilt", 1, 1, {},
                                         precexp=e(2)),
    "with_precision": lambda e: uvar(C3, 1, 0).with_precision(e(2)),
    "scaled": lambda e: Monomial(C3, [Fraction(1, 3), 1]).scaled(e(2)),
    "approximate": lambda e: approximate(_linear_form(), e(1),
                                         e(Fraction(1, 3))),
    "verify_contract": lambda e: verify_contract(
        _linear_form(), approximate(_linear_form(), 1, Fraction(1, 3)),
        e(1), e(Fraction(1, 3)), [AdicPoint.gauss(C3, 2)]).to_json(),
}


@pytest.mark.parametrize("name", list(_EXPONENT_CALLS))
def test_entry_points_take_the_exponents_the_package_hands_out(name):
    call = _EXPONENT_CALLS[name]
    assert call(_valexp) == call(Fraction)


def test_expansion_error_reports_shallow_remainder():
    h = uvar(C3, 1, 0, UntiltElement.monomial(C3, 1, Fraction(1, 9)))
    g = tvar(C3, 1, 0)
    with pytest.raises(ApproximationError):
        _expand(h, g, 0, 7 * C3.scale // 9, C3.prec, 2)


# =====================================================================
# verify_contract
# =====================================================================

def _linear_pair():
    f = uvar(C3, 2, 0) + uvar(C3, 2, 1, UntiltElement.uniformizer(C3))
    g = tvar(C3, 2, 0) + tvar(C3, 2, 1, TiltElement.uniformizer(C3))
    return f, g


def test_contract_passes_on_an_exact_match():
    f, g = _linear_pair()
    pts = [AdicPoint.gauss(C3, 2),
           AdicPoint.classical(UntiltElement.one(C3), UntiltElement.one(C3)),
           AdicPoint.classical(UntiltElement.zero(C3, 4),
                               UntiltElement.uniformizer(C3))]
    report = verify_contract(f, g, 1, Fraction(1, 3), pts)
    assert report.passed
    assert all(r["equality"] == "pass" and r["inequality"] == "pass"
               for r in report.rows)


def test_contract_takes_classical_and_gauss_points_in_its_arity():
    f, g = _linear_pair()
    one = UntiltElement.one(C3)
    rows = verify_contract(f, g, 1, Fraction(1, 3), [
        AdicPoint.classical(one, UntiltElement.uniformizer(C3)),
        AdicPoint.gauss(C3, 2)]).rows
    assert [(r["f_valuation"], r["equality"], r["inequality"])
            for r in rows] == [("0", "pass", "pass"), ("0", "pass", "pass")]
    assert rows[1]["point"] == {"kind": "gauss"}
    for point in (AdicPoint.gauss(C3), AdicPoint.classical(one),
                  AdicPoint.gauss(FieldConfig(3, 4, 4), 2)):
        with pytest.raises(ConfigError):
            verify_contract(f, g, 1, Fraction(1, 3), [point])
    with pytest.raises(KernelError, match="classical points and the Gauss"):
        verify_contract(uvar(C3, 1, 0), tvar(C3, 1, 0), 1, Fraction(1, 3),
                        [AdicPoint.disc(one, 1)])


def test_contract_catches_a_dropped_term():
    # keeping only the residue of T0 + p*T1 fails where T1 dominates
    f, _ = _linear_pair()
    g = tvar(C3, 2, 0)
    one = UntiltElement.one(C3)
    zero = UntiltElement.zero(C3, 4)
    at_e0 = AdicPoint.classical(one, zero)
    at_e1 = AdicPoint.classical(zero, one)
    report = verify_contract(f, g, 1, Fraction(1, 2), [at_e0, at_e1])
    assert not report.passed
    good, bad = report.rows
    assert good["equality"] == "pass" and good["inequality"] == "pass"
    assert bad["equality"] == "pass"
    assert bad["inequality"] == "fail"


def test_contract_fails_on_wrong_residue():
    f = uvar(C3, 1, 0)
    g = HomogeneousElement.zero(C3, "tilt", 1, 1)
    pt = AdicPoint.classical(UntiltElement.one(C3))
    report = verify_contract(f, g, 1, Fraction(1, 3), [pt])
    assert not report.passed
    row = report.rows[0]
    assert row["equality"] == "fail"
    assert row["inequality"] == "fail"


def test_contract_reports_indeterminate_when_precision_runs_out():
    coeff = UntiltElement(C3, {Fraction(1): 1}, Fraction(4, 3))
    f = uvar(C3, 1, 0, coeff)
    g = tvar(C3, 1, 0, TiltElement.uniformizer(C3))
    report = verify_contract(f, g, 1, Fraction(1, 3),
                             [AdicPoint.gauss(C3)])
    row = report.rows[0]
    assert row["equality"] == "pass"
    assert row["inequality"] == "indeterminate"
    assert not report.passed


def test_contract_refuses_an_empty_sample(monkeypatch):
    # no point checked would pass any contract; refused before any sharp
    import perfectoid.tatealg as tatealg

    def no_sharp(*args):
        raise AssertionError("sharp_element called")

    monkeypatch.setattr(tatealg, "sharp_element", no_sharp)
    f = uvar(C3, 1, 0)
    g = HomogeneousElement.zero(C3, "tilt", 1, 1)
    for points in ([], iter(())):
        with pytest.raises(KernelError, match="at least one point") as refused:
            verify_contract(f, g, 1, Fraction(1, 3), points)
        assert type(refused.value) is KernelError


def test_contract_refuses_points_it_cannot_iterate(monkeypatch):
    import perfectoid.tatealg as tatealg

    def no_sharp(*args):
        raise AssertionError("sharp_element called")

    monkeypatch.setattr(tatealg, "sharp_element", no_sharp)
    f = uvar(C3, 1, 0)
    g = HomogeneousElement.zero(C3, "tilt", 1, 1)
    for points in (None, 5):
        with pytest.raises(KernelError, match="needs an iterable of points"):
            verify_contract(f, g, 1, Fraction(1, 3), points)


def test_contract_takes_a_tuple_or_a_generator_of_points():
    f, g = _linear_pair()
    gauss = AdicPoint.gauss(C3, 2)
    rows = verify_contract(f, g, 1, Fraction(1, 3), [gauss]).rows
    for points in ((gauss,), (p for p in [gauss])):
        assert verify_contract(f, g, 1, Fraction(1, 3), points).rows == rows


def test_contract_report_shapes():
    f, g = _linear_pair()
    report = verify_contract(f, g, 1, Fraction(1, 3),
                             [AdicPoint.gauss(C3, 2)])
    data = report.to_json()
    assert data["passed"] is True
    assert data["points"][0]["point"] == {"kind": "gauss"}
    assert report.failures() == []
    assert "pass" in repr(report)


# =====================================================================
# reduction of the coefficients modulo the uniformizer
# =====================================================================

def test_reduce_drops_deep_digits():
    r = reduce_mod_uniformizer(UntiltElement.one(C3)
                               + UntiltElement.uniformizer(C3))
    assert r == TiltElement.one(C3).with_precision(1)
    assert r.precexp == 1


def test_reduce_of_sharp_recovers_the_residue():
    g = tvar(C3, 2, 0, TiltElement.one(C3)
             + TiltElement.monomial(C3, 1, Fraction(1, 3))) + tvar(C3, 2, 1)
    f = sharp_element(g, C3.prec)
    assert {m: reduce_mod_uniformizer(c) for m, c in f.terms.items()} == {
        m: c.with_precision(1) for m, c in g.terms.items()}
