"""Newton polygons, Hensel lifting, digit search, and the transfer."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elements, refined
from oracles import lower_hull_brute, shifted_binomial
from perfectoid import polyroots
from perfectoid.arith import (
    INF,
    ConfigError,
    DencapError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
)
from perfectoid.polyroots import (
    NewtonPolygon,
    Polynomial,
    RootError,
    _lower_hull,
    charp_root,
    fw_transfer,
    hensel_root,
    mixed_root_refine,
    newton_polygon,
    transfer_agreement,
)
from perfectoid.tiltkit import sharp_const

C3 = FieldConfig(3, 8, 2)
C2 = FieldConfig(2, 8, 2)
# transfer configs: full-precision sharps consume dencap at one level
# per precision step, so the cap must cover digit depth + prec - 1
FW3 = FieldConfig(3, 8, 8)
FW3_SMALL = FieldConfig(3, 4, 4)
M2 = FieldConfig(2, 6, 3)
M3 = FieldConfig(3, 6, 3)


def t_int(config, n):
    return TiltElement.from_int(config, n)


def u_int(config, n):
    return UntiltElement.from_int(config, n)


def t_zero(config):
    return TiltElement.zero(config)


def x_squared_minus_p(config):
    return Polynomial([
        u_int(config, -1).shift(1),
        UntiltElement.zero(config),
        UntiltElement.one(config),
    ])


# =====================================================================
# Polynomial plumbing
# =====================================================================

def test_polynomial_validation():
    with pytest.raises(KernelError):
        Polynomial([])
    with pytest.raises(KernelError):
        Polynomial([TiltElement.one(C3), t_zero(C3)])
    with pytest.raises(ConfigError):
        Polynomial([TiltElement.one(C3), UntiltElement.one(C3)])
    with pytest.raises(ConfigError):
        Polynomial([TiltElement.one(C3), TiltElement.one(C2)])


def test_polynomial_trimmed():
    P = Polynomial.trimmed(
        [TiltElement.one(C3), TiltElement.uniformizer(C3), t_zero(C3)])
    assert P.degree == 1


def test_polynomial_evaluate_and_shift():
    # P = X^2 + X + t at x = t: t^2 + t + t = t^2 + 2t
    t = TiltElement.uniformizer(C3)
    P = Polynomial([t, TiltElement.one(C3), TiltElement.one(C3)])
    assert P(t) == TiltElement(C3, {Fraction(1): 2, Fraction(2): 1})
    shifted = P.shifted(TiltElement.one(C3))
    for x in [t_zero(C3), t, t_int(C3, 2)]:
        assert shifted(x) == P(x + TiltElement.one(C3))
    # Q = X^2 + X + p at x = p: p^2 + 2p; the shift by 2 carries
    p = UntiltElement.uniformizer(C3)
    Q = Polynomial([p, UntiltElement.one(C3), UntiltElement.one(C3)])
    assert Q(p) == UntiltElement(C3, {Fraction(1): 2, Fraction(2): 1})
    shifted = Q.shifted(u_int(C3, 2))
    assert shifted.coeffs[0] == Q(u_int(C3, 2))
    for x in [UntiltElement.zero(C3), p, u_int(C3, 2), u_int(C3, -1)]:
        assert shifted(x) == Q(x + u_int(C3, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("dencap", [0, 1, 2])
@pytest.mark.parametrize("kind", ["untilt", "tilt"])
@settings(max_examples=40)
@given(data=st.data())
def test_shift_matches_the_binomial_form_byte_for_byte(p, dencap, kind,
                                                        data):
    """Ruffini-Horner values with the binomial precision rule give the
    bytes of the binomial re-expansion, precisions included, on inexact
    coefficients and shifts."""
    config = FieldConfig(p, 3, dencap)
    inexact = elements(config, kind, max_terms=4, vary_precision=True)
    coeffs = data.draw(st.lists(inexact, min_size=1, max_size=6).filter(
        lambda cs: not cs[-1].is_zero()))
    delta = data.draw(inexact)
    got = Polynomial(coeffs).shifted(delta)
    want = shifted_binomial(coeffs, delta)
    assert [c.dumps() for c in got.coeffs] == [c.dumps() for c in want]


def _seeded_element(rng, config, cls):
    # up to 4 digits on the full lattice, at a random precision index
    k = rng.randrange(config.full + 1)
    digits = {rng.randrange(k): rng.randrange(1, config.p)
              for _ in range(rng.randrange(5) if k else 0)}
    return cls._make(config, digits, k)


@pytest.mark.parametrize("config", [C3, C2, FieldConfig(5, 3, 1)],
                         ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("cls", [UntiltElement, TiltElement],
                         ids=lambda cls: cls.kind)
def test_shift_by_an_exact_zero_is_the_identity(config, cls):
    """Shifting by 0 or by zero(config) returns the polynomial itself,
    which is the binomial re-expansion byte for byte; a zero known only
    below full precision takes the general rule, and there the result
    can lose precision."""
    rng = random.Random(23)
    changed = 0
    for _ in range(60):
        coeffs = [_seeded_element(rng, config, cls)
                  for _ in range(rng.randrange(1, 6))]
        if coeffs[-1].is_zero():
            continue
        P = Polynomial(coeffs)
        for zero in (0, cls.zero(config)):
            assert P.shifted(zero) is P
            want = shifted_binomial(coeffs, zero)
            assert [c.dumps() for c in P.coeffs] == [c.dumps() for c in want]
        low = cls._make(config, {}, rng.randrange(config.full))
        got = P.shifted(low)
        want = shifted_binomial(coeffs, low)
        assert [c.dumps() for c in got.coeffs] == [c.dumps() for c in want]
        changed += got != P
    assert changed > 0


@pytest.mark.parametrize("config", [C3, C2, FieldConfig(5, 3, 1)],
                         ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", ["untilt", "tilt"])
@settings(max_examples=60)
@given(data=st.data())
def test_shift_and_evaluation_are_honest_under_refinement(config, kind,
                                                          data):
    """Refining the coefficients and the point to any compatible values
    changes P(x) and the coefficients of P(X + x) only at or above the
    precision each reports."""
    coeffs = data.draw(st.lists(
        elements(config, kind, max_terms=3, vary_precision=True),
        min_size=1, max_size=5).filter(lambda cs: not cs[-1].is_zero()))
    x = data.draw(elements(config, kind, max_terms=3, vary_precision=True))
    P = Polynomial(coeffs)
    fine = Polynomial([refined(data, c) for c in coeffs])
    fine_x = refined(data, x)
    value = P(x)
    assert fine(fine_x).with_precision(value.precexp) == value
    for fine_c, c in zip(fine.shifted(fine_x).coeffs, P.shifted(x).coeffs):
        assert fine_c.with_precision(c.precexp) == c


def test_polynomial_json_round_trip():
    P = x_squared_minus_p(C2)
    assert Polynomial.from_json(P.to_json()) == P
    with pytest.raises(KernelError):
        Polynomial.from_json([])


# =====================================================================
# Newton polygon: frozen examples
# =====================================================================

def test_polygon_x2_minus_p():
    assert newton_polygon(x_squared_minus_p(C2)) == \
        NewtonPolygon([(Fraction(1, 2), 2)])


def test_polygon_x2_plus_x_plus_t():
    P = Polynomial([TiltElement.uniformizer(C3), TiltElement.one(C3),
                    TiltElement.one(C3)])
    assert newton_polygon(P) == NewtonPolygon([(0, 1), (1, 1)])


def test_polygon_x3_px_p():
    p_elem = UntiltElement.uniformizer(C3)
    P = Polynomial([p_elem, p_elem, UntiltElement.zero(C3),
                    UntiltElement.one(C3)])
    assert newton_polygon(P) == NewtonPolygon([(Fraction(1, 3), 3)])


def test_polygon_vanishing_order():
    # X^3 - tX: one root at zero, then two of valuation 1/2
    P = Polynomial([t_zero(C3), t_int(C3, -1) * TiltElement.uniformizer(C3),
                    t_zero(C3), TiltElement.one(C3)])
    got = newton_polygon(P)
    assert got == NewtonPolygon([(Fraction(1, 2), 2)], vanishing_order=1)
    assert got.to_json() == [{"slope": "1/2", "mult": 2},
                             {"slope": "inf", "mult": 1}]


def test_polygon_json_matches_spec_form():
    assert newton_polygon(x_squared_minus_p(C2)).to_json() == \
        [{"slope": "1/2", "mult": 2}]


def test_polygon_indeterminate_interior_zero():
    # a_1 known zero only mod p^(1/4): could dip under the hull
    ok = Polynomial([UntiltElement.uniformizer(C2),
                     UntiltElement.zero(C2, 1),
                     UntiltElement.one(C2)])
    assert newton_polygon(ok) == NewtonPolygon([(Fraction(1, 2), 2)])
    bad = Polynomial([UntiltElement.uniformizer(C2),
                      UntiltElement.zero(C2, Fraction(1, 4)),
                      UntiltElement.one(C2)])
    with pytest.raises(IndeterminateError):
        newton_polygon(bad)


def test_polygon_indeterminate_partial_constant():
    bad = Polynomial([t_zero(C3).with_precision(1), TiltElement.one(C3),
                      TiltElement.one(C3)])
    with pytest.raises(IndeterminateError):
        newton_polygon(bad)


@pytest.mark.parametrize("config", [C3, C2, FieldConfig(5, 3, 1)],
                         ids=lambda c: f"p{c.p}")
@pytest.mark.parametrize("kind", ["untilt", "tilt"])
@settings(max_examples=100)
@given(data=st.data())
def test_polygon_is_honest_under_refinement(config, kind, data):
    """A polygon decided for coarse coefficients is the polygon of every
    compatible refinement of them; indeterminacy is allowed only on the
    coarse side."""
    coeffs = data.draw(st.lists(
        elements(config, kind, max_terms=3, vary_precision=True),
        min_size=1, max_size=5).filter(lambda cs: not cs[-1].is_zero()))
    fine = Polynomial([refined(data, c) for c in coeffs])
    try:
        coarse = newton_polygon(Polynomial(coeffs))
    except IndeterminateError:
        return
    assert newton_polygon(fine) == coarse


@settings(max_examples=200)
@given(st.data())
def test_lower_hull_matches_the_brute_oracle(data):
    # points a small offset above one line: many lie on it, so collinear
    # runs are common, and the hull keeps only their ends
    xs = sorted(data.draw(st.lists(st.integers(0, 20), min_size=1,
                                   max_size=10, unique=True)))
    slope = data.draw(st.integers(-3, 3))
    points = [(x, slope * x + data.draw(st.integers(0, 3))) for x in xs]
    assert _lower_hull(points) == lower_hull_brute(points)


# =====================================================================
# Hensel lifting
# =====================================================================

def test_hensel_exact_residue_root():
    P = Polynomial([t_int(C3, -1), t_zero(C3), TiltElement.one(C3)])
    assert hensel_root(P, t_int(C3, 2)) == t_int(C3, 2)


def test_hensel_char_p_square_root():
    target = TiltElement.one(C3) + TiltElement.uniformizer(C3)
    P = Polynomial([t_int(C3, -1) * target, t_zero(C3), TiltElement.one(C3)])
    root = hensel_root(P, TiltElement.one(C3))
    assert root * root == target
    assert P(root).is_zero()


def test_hensel_char_zero_exact_two():
    P = Polynomial([u_int(C3, -4), UntiltElement.zero(C3),
                    UntiltElement.one(C3)])
    root = hensel_root(P, sharp_const(C3, 2))
    assert root == u_int(C3, 2)


def test_hensel_precondition_rejected():
    P = Polynomial([u_int(C3, -4), UntiltElement.zero(C3),
                    UntiltElement.one(C3)])
    with pytest.raises(RootError):
        hensel_root(P, UntiltElement.uniformizer(C3))


def test_hensel_vanishing_derivative_rejected():
    # X^3 - t has derivative 3X^2 = 0 in characteristic 3
    P = Polynomial([t_int(C3, -1) * TiltElement.uniformizer(C3),
                    t_zero(C3), t_zero(C3), TiltElement.one(C3)])
    with pytest.raises(RootError):
        hensel_root(P, TiltElement.one(C3))


@pytest.mark.parametrize("cls", [UntiltElement, TiltElement])
def test_hensel_step_budget_follows_the_lattice(cls):
    # X^2 - (1 + w^(1/81)), w the uniformizer, from 1: each step only
    # doubles the residual valuation 1/81, which needs 8 steps to pass
    # precision 2, within the budget full.bit_length() + 2 = 10
    C = FieldConfig(3, 2, 4)
    a = cls.one(C) + cls.monomial(C, 1, Fraction(1, 81))
    P = Polynomial([-a, cls.zero(C), cls.one(C)])
    root = hensel_root(P, cls.one(C))
    assert P(root).is_zero()
    assert root.precexp == 2
    assert (root - cls.one(C))._low() == 1


# =====================================================================
# Characteristic-p digit search
# =====================================================================

def test_charp_cube_root_of_t():
    P = Polynomial([t_int(C3, -1) * TiltElement.uniformizer(C3),
                    t_zero(C3), t_zero(C3), TiltElement.one(C3)])
    root = charp_root(P)
    assert root == TiltElement.monomial(C3, 1, Fraction(1, 3))
    assert P(root).is_zero()


def test_charp_artin_schreier_branch():
    P = Polynomial([TiltElement.uniformizer(C3), TiltElement.one(C3),
                    TiltElement.one(C3)])
    root = charp_root(P)
    assert root is not None
    assert P(root).is_zero()
    assert [root.digit_at(Fraction(k)) for k in (1, 2, 3, 4)] == [2, 2, 1, 1]
    # independent fixed-point oracle: x = -t - x^2 converges to the
    # valuation-1 branch one digit per pass
    x = t_zero(C3)
    for _ in range(C3.prec + 1):
        x = t_int(C3, -1) * (TiltElement.uniformizer(C3) + x * x)
    assert root == x


def test_charp_lattice_obstruction():
    P = Polynomial([t_int(C3, -1) * TiltElement.uniformizer(C3),
                    t_zero(C3), TiltElement.one(C3)])
    assert charp_root(P) is None


def test_charp_zero_constant_short_circuit():
    P = Polynomial([t_zero(C3), t_zero(C3), TiltElement.one(C3)])
    root = charp_root(P)
    assert root == t_zero(C3)


def test_charp_rejects_untilt():
    with pytest.raises(ConfigError):
        charp_root(x_squared_minus_p(C2))


def test_charp_budget_surfaced(monkeypatch):
    monkeypatch.setattr(polyroots, "_ROOT_SEARCH_BUDGET", 1)
    P = Polynomial([TiltElement.uniformizer(C3), TiltElement.one(C3),
                    TiltElement.one(C3)])
    with pytest.raises(RootError):
        charp_root(P)


# =====================================================================
# Exhaustive root/polygon consistency on small instances
# =====================================================================

def _small_pool(config):
    pool = [TiltElement.zero(config), TiltElement.one(config)]
    for c in range(1, config.p):
        pool.append(TiltElement.monomial(config, c, 1))
        pool.append(TiltElement.monomial(
            config, c, Fraction(1, config.p)))
    return pool


def _all_small_elements(config):
    # every element supported on the full exponent lattice below prec
    scale = config.p ** config.dencap
    idxs = range(config.prec * scale)
    out = []
    for digits in itertools.product(range(config.p), repeat=len(idxs)):
        out.append(TiltElement(
            config,
            {Fraction(i, scale): d for i, d in zip(idxs, digits) if d},
            config.prec))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_charp_matches_brute_force(p):
    config = FieldConfig(p, 2, 1)
    candidates = _all_small_elements(config)
    pool = _small_pool(config)
    one = TiltElement.one(config)
    checked = 0
    for degree in (1, 2, 3):
        picks = (pool if degree < 3
                 else [TiltElement.zero(config), one,
                       TiltElement.uniformizer(config)])
        for lower in itertools.product(picks, repeat=degree):
            P = Polynomial(list(lower) + [one])
            true_roots = [y for y in candidates if P(y).is_zero()]
            got = charp_root(P)
            if got is None:
                assert not true_roots
                continue
            checked += 1
            assert P(got).is_zero()
            assert any(got == y for y in true_roots)
            polygon = newton_polygon(P)
            finite = {s for s, _ in polygon.segments}
            by_slope = {}
            for y in true_roots:
                v = y.valuation()
                if v is INF:
                    assert polygon.vanishing_order > 0
                    continue
                vf = v.as_fraction()
                ev = P(y)
                bounds = [
                    (a.precexp if a.valuation() is INF
                     else a.valuation()).as_fraction() + j * vf
                    for j, a in enumerate(P.coeffs)]
                if min(bounds) >= ev.precexp.as_fraction():
                    # Every term already sits at or above the precision
                    # of the evaluation, so any element of this valuation
                    # reads as a root; the polygon owes it no slope.
                    continue
                assert vf in finite
                by_slope.setdefault(vf, set()).add(
                    next(iter(y.digits.values())))
            for s, mult in polygon.segments:
                assert len(by_slope.get(s, ())) <= mult
    assert checked > 10


# =====================================================================
# Transfer
# =====================================================================

def test_fw_transfer_x2_minus_t():
    P = Polynomial([t_int(FW3, -1) * TiltElement.uniformizer(FW3),
                    t_zero(FW3), TiltElement.one(FW3)])
    assert fw_transfer(P, 0) == x_squared_minus_p(FW3)


def test_fw_transfer_x_minus_one_all_stages():
    P = Polynomial([t_int(FW3, -1), TiltElement.one(FW3)])
    expected = Polynomial([u_int(FW3, -1), UntiltElement.one(FW3)])
    for n in range(3):
        assert fw_transfer(P, n) == expected


def test_fw_transfer_keeps_the_constant_digit():
    # Rooting 1 twice must keep it: flooring prec 3 by 2^2 to the
    # integer lattice would drop the digit and zero the leading term.
    config = FieldConfig(2, 3, 0)
    P = Polynomial([TiltElement.one(config)] * 2)
    assert [c.to_text() for c in fw_transfer(P, 2).coeffs] == \
        ["1 + O(p^3)"] * 2


def test_fw_transfer_rejects_untilt_and_bad_depth():
    P = Polynomial([t_int(FW3, -1), TiltElement.one(FW3)])
    with pytest.raises(ConfigError):
        fw_transfer(x_squared_minus_p(C2), 0)
    with pytest.raises(KernelError):
        fw_transfer(P, -1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fw_transfer_preserves_polygon(data):
    degree = data.draw(st.integers(min_value=1, max_value=4))
    coeffs = [data.draw(elements(FW3_SMALL, "tilt", max_terms=3,
                                 max_denpow=1))
              for _ in range(degree)]
    coeffs.append(TiltElement.one(FW3_SMALL))
    P = Polynomial(coeffs)
    try:
        polygon = newton_polygon(P)
    except IndeterminateError:
        polygon = None
    if polygon is None:
        return
    assert newton_polygon(fw_transfer(P, 0)) == polygon


def test_transfer_agreement_grows():
    a0 = t_int(FW3, -1) * (TiltElement.uniformizer(FW3)
                           + TiltElement.uniformizer(FW3) ** 2)
    P = Polynomial([a0, t_zero(FW3), TiltElement.one(FW3)])
    levels = [transfer_agreement(P, n) for n in range(3)]
    assert levels == [Fraction(2), Fraction(3), Fraction(4)]
    assert all(a < b for a, b in zip(levels, levels[1:]))


# =====================================================================
# Mixed-characteristic refinement
# =====================================================================

def test_mixed_square_root_of_p():
    root = mixed_root_refine(x_squared_minus_p(M2))
    assert root == UntiltElement.monomial(M2, 1, Fraction(1, 2))


def test_mixed_cube_root_of_p():
    P = Polynomial([u_int(M3, -1) * UntiltElement.uniformizer(M3),
                    UntiltElement.zero(M3), UntiltElement.zero(M3),
                    UntiltElement.one(M3)])
    root = mixed_root_refine(P)
    assert root == UntiltElement.monomial(M3, 1, Fraction(1, 3))


def test_mixed_unit_root():
    P = Polynomial([u_int(M3, -4), UntiltElement.zero(M3),
                    UntiltElement.one(M3)])
    root = mixed_root_refine(P)
    assert root == u_int(M3, -2)
    assert P(root).is_zero()
    # cross-check against direct Hensel lifting from the same residue
    assert root == hensel_root(P, UntiltElement.one(M3))


def test_mixed_respects_stage_cap(monkeypatch):
    # A stage solver that keeps only the lowest digit of each root makes
    # X^2 - (1 + p^(1/3)) gain 1/3 a stage, so the refinement runs out
    # of its prec stages.
    solve = charp_root

    def lowest_digit(Q):
        root = solve(Q)
        e = root.valuation()
        return TiltElement.monomial(M3, root.digit_at(e), e, root.precexp)

    monkeypatch.setattr(polyroots, "charp_root", lowest_digit)
    P = Polynomial([
        -(u_int(M3, 1) + UntiltElement.monomial(M3, 1, Fraction(1, 3))),
        UntiltElement.zero(M3),
        UntiltElement.one(M3),
    ])
    with pytest.raises(RootError, match="^no convergence within 6 "):
        mixed_root_refine(P)


def test_mixed_lattice_failure_loud():
    # X^2 - p needs exponent 1/2, which p = 2 dencap 0 cannot host
    flat = FieldConfig(2, 6, 0)
    with pytest.raises(RootError):
        mixed_root_refine(x_squared_minus_p(flat))


def test_mixed_stage_root_whose_lift_leaves_the_lattice_is_a_root_error():
    # X^2 + p^(1/3) X + 2 at dencap 1: the stage root has a digit at
    # t^(1/3), and lifting it to precision 3 roots it to t^(1/27)
    C = FieldConfig(3, 3, 1)
    P = Polynomial([UntiltElement.from_int(C, 2),
                    UntiltElement.monomial(C, 1, Fraction(1, 3)),
                    UntiltElement.one(C)])
    with pytest.raises(RootError, match="leaves the dencap lattice: "
                       "exponent 1/27 needs denominator p\\^3, cap is "
                       "p\\^1$") as caught:
        mixed_root_refine(P)
    assert isinstance(caught.value.__cause__, DencapError)


def test_mixed_root_of_a_zero_constant_term_is_zero():
    P = Polynomial([UntiltElement.zero(M3), UntiltElement.uniformizer(M3),
                    UntiltElement.one(M3)])
    assert mixed_root_refine(P) == UntiltElement.zero(M3)


@pytest.mark.parametrize("middle, message", [
    # X^2 + 1 has no root over F_3
    (None, "^characteristic-p stage has no root in the lattice"),
    # X^3 + a X^2 + p^(2/3) X + p, with a = 0 known to p^0 or p^(1/3)
    (Fraction(0), "^stage polygon indeterminate: coefficient 2 is zero "
                  "at precision 0"),
    (Fraction(1, 3), "^deepest stage slope 0 is not positive"),
], ids=["no-root", "indeterminate", "not-positive"])
def test_mixed_stage_refusals(middle, message):
    one = UntiltElement.one(M3)
    if middle is None:
        coeffs = [one, UntiltElement.zero(M3), one]
    else:
        coeffs = [UntiltElement.uniformizer(M3),
                  UntiltElement.monomial(M3, 1, Fraction(2, 3)),
                  UntiltElement.zero(M3, middle), one]
    with pytest.raises(RootError, match=message):
        mixed_root_refine(Polynomial(coeffs))


def test_mixed_requires_monic_untilt():
    P = Polynomial([u_int(M3, -1), u_int(M3, 2)])
    with pytest.raises(KernelError):
        mixed_root_refine(P)
    with pytest.raises(ConfigError):
        mixed_root_refine(Polynomial([t_int(M3, -1), TiltElement.one(M3)]))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_charp_roots_match_polygon(data):
    config = FieldConfig(3, 4, 1)
    degree = data.draw(st.integers(min_value=1, max_value=3))
    coeffs = [data.draw(elements(config, "tilt", max_terms=2, max_denpow=1))
              for _ in range(degree)]
    coeffs.append(TiltElement.one(config))
    P = Polynomial(coeffs)
    root = charp_root(P)
    if root is None or root.is_zero():
        return
    assert P(root).is_zero()
    slopes = newton_polygon(P).slopes()
    assert root.valuation().as_fraction() in slopes
