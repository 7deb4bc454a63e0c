"""Points of the adic unit disc: evaluation, membership, specialization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfectoid.adicdisc import (
    AdicPoint,
    RationalSubset,
    Rank2Value,
    adic_point_from_json,
    eval_at,
    in_rational_subset,
    specializes,
    tilt_point_check,
)
from perfectoid.arith import (
    ConfigError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
)
from perfectoid.polyroots import Polynomial
from perfectoid.tiltkit import sharp

from conftest import elements, refined

C = FieldConfig(3, 4, 3)


def ui(n: int) -> UntiltElement:
    return UntiltElement.from_int(C, n)


def upoly(*coeffs) -> Polynomial:
    return Polynomial([ui(c) if isinstance(c, int) else c for c in coeffs])


def tpoly(*coeffs) -> Polynomial:
    out = []
    for c in coeffs:
        if isinstance(c, int):
            acc = TiltElement.zero(C)
            one = TiltElement.one(C)
            for _ in range(c):
                acc = acc + one
            out.append(acc)
        else:
            out.append(c)
    return Polynomial(out)


T_VAR = upoly(0, 1)
W = UntiltElement.uniformizer(C)
TW = TiltElement.uniformizer(C)


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    out = []
    for k in range(f.degree + g.degree + 1):
        acc = None
        for i in range(max(0, k - g.degree), min(k, f.degree) + 1):
            t = f.coeffs[i] * g.coeffs[k - i]
            acc = t if acc is None else acc + t
        out.append(acc)
    return Polynomial.trimmed(out)


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    n = max(f.degree, g.degree)
    zero = type(f.coeffs[0]).zero(f.config)
    fc = list(f.coeffs) + [zero] * (n - f.degree)
    gc = list(g.coeffs) + [zero] * (n - g.degree)
    return Polynomial.trimmed([a + b for a, b in zip(fc, gc)])


# ---------------------------------------------------------------------
# point construction and classification
# ---------------------------------------------------------------------

def test_gauss_is_radius_one_disc():
    g = AdicPoint.gauss(C)
    assert g.kind == "disc"
    assert g.radius_exp == 0
    assert g.is_gauss()
    assert g.classify() == 2


def test_classification_by_radius_denominator():
    assert AdicPoint.classical(ui(0)).classify() == 1
    assert AdicPoint.disc(ui(0), 1).classify() == 2
    assert AdicPoint.disc(ui(0), Fraction(1, 3)).classify() == 2
    assert AdicPoint.disc(ui(0), Fraction(2, 9)).classify() == 2
    assert AdicPoint.disc(ui(0), Fraction(1, 2)).classify() == 3
    assert AdicPoint.disc(ui(0), Fraction(5, 6)).classify() == 3
    assert AdicPoint.halo(ui(0), 0, "<").classify() == 5
    assert AdicPoint.halo(ui(0), 1, ">").classify() == 5


@given(num=st.integers(min_value=0, max_value=24),
       den=st.integers(min_value=1, max_value=24))
def test_classifier_matches_value_group_membership(num, den):
    q = Fraction(num, den)
    d = q.denominator
    while d % 3 == 0:
        d //= 3
    assert (AdicPoint.disc(ui(0), q).classify() == 2) == (d == 1)


def test_point_validation():
    with pytest.raises(KernelError):
        AdicPoint.halo(ui(0), 0, ">")
    with pytest.raises(KernelError):
        AdicPoint.disc(ui(0), -1)
    with pytest.raises(ConfigError):
        AdicPoint.halo(ui(0), 1, "!")
    with pytest.raises(ConfigError):
        AdicPoint("disc", ui(0), 1, sign="<")
    with pytest.raises(ConfigError):
        AdicPoint("classical", ui(0), radius_exp=1)
    with pytest.raises(ConfigError):
        AdicPoint.classical(TiltElement.one(C))


def test_points_are_immutable():
    g = AdicPoint.gauss(C)
    with pytest.raises(AttributeError):
        g.radius_exp = Fraction(1)


# ---------------------------------------------------------------------
# semantic identity
# ---------------------------------------------------------------------

def test_disc_identity_ignores_centers_within_radius():
    g = AdicPoint.gauss(C)
    assert AdicPoint.disc(ui(3), 0).same_point(g)
    assert AdicPoint.disc(ui(1), 0).same_point(g)
    assert AdicPoint.disc(ui(3), 1).same_point(AdicPoint.disc(ui(0), 1))
    assert not AdicPoint.disc(ui(1), 1).same_point(AdicPoint.disc(ui(0), 1))
    assert not AdicPoint.disc(ui(0), 1).same_point(AdicPoint.disc(ui(0), 2))


def test_inside_halo_identity_is_strict():
    # residue classes at the Gauss point: open unit discs
    h0 = AdicPoint.halo(ui(0), 0, "<")
    assert AdicPoint.halo(ui(3), 0, "<").same_point(h0)
    assert not AdicPoint.halo(ui(1), 0, "<").same_point(h0)


def test_outside_halo_identity_is_closed():
    h = AdicPoint.halo(ui(0), 1, ">")
    assert AdicPoint.halo(ui(3), 1, ">").same_point(h)
    assert not AdicPoint.halo(ui(1), 1, ">").same_point(h)


def test_classical_identity():
    assert AdicPoint.classical(ui(3)).same_point(AdicPoint.classical(ui(3)))
    assert not AdicPoint.classical(ui(3)).same_point(
        AdicPoint.classical(ui(0)))


# ---------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------

def test_eval_at_gauss_takes_min_coefficient_valuation():
    f = upoly(3, 3, 1)
    assert eval_at(f, AdicPoint.gauss(C)) == 0
    assert eval_at(upoly(9, 3), AdicPoint.gauss(C)) == 1


def test_eval_at_disc_weights_by_radius():
    assert eval_at(upoly(0, 0, 1), AdicPoint.disc(ui(0), Fraction(1, 2))) == 1
    assert eval_at(upoly(3, 3, 1), AdicPoint.disc(ui(0), 1)) == 1


@pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(1),
                               Fraction(2)])
def test_eval_of_variable_reads_off_radius(q):
    assert eval_at(T_VAR, AdicPoint.disc(ui(0), q)) == q


def test_eval_at_classical_point():
    f = upoly(3, 3, 1)
    assert eval_at(f, AdicPoint.classical(ui(3))) == 1
    assert eval_at(T_VAR, AdicPoint.classical(ui(1))) == 0


def test_eval_at_inner_halo_keeps_gamma_exponent():
    v = eval_at(T_VAR, AdicPoint.halo(ui(0), 0, "<"))
    assert v == Rank2Value(0, 1, "<")


def test_eval_separates_halo_from_disc_center():
    # around T = 3 at radius exponent 1 the constant term dominates the
    # inner value but loses to the outer one
    inner = eval_at(T_VAR, AdicPoint.halo(ui(3), 1, "<"))
    outer = eval_at(T_VAR, AdicPoint.halo(ui(3), 1, ">"))
    assert inner == Rank2Value(1, 0, "<")
    assert outer == Rank2Value(1, 1, ">")


def test_eval_rejects_vanishing_classical_value():
    f = Polynomial([ui(0) - ui(3), ui(1)])  # T - 3
    with pytest.raises(IndeterminateError):
        eval_at(f, AdicPoint.classical(ui(3)))


def test_eval_rejects_blocking_unknown_coefficient():
    f = Polynomial([UntiltElement.zero(C, 1), ui(9)])
    with pytest.raises(IndeterminateError):
        eval_at(f, AdicPoint.gauss(C))


def test_eval_accepts_harmless_unknown_coefficient():
    f = Polynomial([UntiltElement.zero(C, 1), ui(1)])
    assert eval_at(f, AdicPoint.gauss(C)) == 0


def test_eval_rejects_unsettled_gamma_tie():
    f = Polynomial([UntiltElement.zero(C, 1), ui(3)])
    with pytest.raises(IndeterminateError):
        eval_at(f, AdicPoint.halo(ui(0), 0, "<"))
    g = Polynomial([ui(3), UntiltElement.zero(C, 0), ui(1)])
    with pytest.raises(IndeterminateError):
        eval_at(g, AdicPoint.halo(ui(0), 1, ">"))


def test_eval_config_and_kind_checks():
    for x in (AdicPoint.disc(ui(0), 1), AdicPoint.halo(ui(0), 1, ">")):
        with pytest.raises(KernelError,
                           match="classical points and the Gauss point"):
            eval_at(tpoly(0, 1), x)
    with pytest.raises(ConfigError, match="not a polynomial"):
        eval_at(ui(1), AdicPoint.gauss(C))
    other = FieldConfig(2, 4, 3)
    with pytest.raises(ConfigError):
        eval_at(T_VAR, AdicPoint.gauss(other))


# ---------------------------------------------------------------------
# rank-2 values
# ---------------------------------------------------------------------

def test_rank2_value_order_inner():
    one = Rank2Value(0, 0, "<")
    t = Rank2Value(0, 1, "<")
    assert t.value_le(one)
    assert not one.value_le(t)


def test_rank2_value_order_outer():
    p_val = Rank2Value(1, 0, ">")
    t_val = Rank2Value(1, 1, ">")
    assert p_val.value_le(t_val)
    assert not t_val.value_le(p_val)


def test_rank2_multiplication_adds_componentwise():
    a = Rank2Value(Fraction(1, 3), 2, "<")
    b = Rank2Value(Fraction(2, 3), 1, "<")
    assert a * b == Rank2Value(1, 3, "<")


def test_rank2_sign_mismatch_rejected():
    with pytest.raises(ConfigError):
        Rank2Value(0, 1, "<").value_le(Rank2Value(1, 1, ">"))
    with pytest.raises(ConfigError):
        Rank2Value(0, 1, "<") * Rank2Value(1, 1, ">")
    with pytest.raises(ConfigError):
        Rank2Value(0, Fraction(1, 2), "<")


# ---------------------------------------------------------------------
# rational subsets
# ---------------------------------------------------------------------

def test_rational_subset_pins_a_uniformizer_power():
    U = RationalSubset([T_VAR], upoly(1))
    assert len(U.numerators) == 2
    pinned = U.numerators[-1]
    assert pinned.degree == 0
    assert pinned.coeffs[0].valuation().as_fraction() == C.prec - 1
    V = RationalSubset([T_VAR, upoly(9)], upoly(1))
    assert len(V.numerators) == 2


def test_gauss_point_lies_in_unit_ball_condition():
    U = RationalSubset([T_VAR], upoly(1))
    assert in_rational_subset(AdicPoint.gauss(C), U)


def test_inner_halo_escapes_inverted_variable_locus():
    # |1| <= |T| fails just inside the unit sphere
    U = RationalSubset([upoly(1)], T_VAR)
    assert not in_rational_subset(AdicPoint.halo(ui(0), 0, "<"), U)
    assert in_rational_subset(AdicPoint.gauss(C), U)


def test_classical_membership_in_shrunk_disc():
    U = RationalSubset([T_VAR], upoly(3))
    assert in_rational_subset(AdicPoint.classical(ui(3)), U)
    assert not in_rational_subset(AdicPoint.classical(ui(1)), U)
    assert not in_rational_subset(AdicPoint.gauss(C), U)


def test_rational_subset_validation_and_json():
    with pytest.raises(ConfigError):
        RationalSubset([], upoly(1))
    with pytest.raises(ConfigError):
        RationalSubset([tpoly(1)], upoly(1))
    U = RationalSubset([T_VAR], upoly(3))
    assert RationalSubset.from_json(U.to_json()) == U


# ---------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------

def test_gauss_specializes_to_its_halos():
    g = AdicPoint.gauss(C)
    assert specializes(g, AdicPoint.halo(ui(0), 0, "<"))
    assert specializes(g, AdicPoint.halo(ui(1), 0, "<"))
    assert not specializes(AdicPoint.halo(ui(0), 0, "<"), g)


def test_classical_points_are_closed():
    assert not specializes(AdicPoint.classical(ui(0)), AdicPoint.gauss(C))
    assert not specializes(AdicPoint.gauss(C), AdicPoint.classical(ui(0)))


def test_disc_specializes_to_outer_halo():
    d = AdicPoint.disc(ui(0), 1)
    assert specializes(d, AdicPoint.halo(ui(0), 1, ">"))
    assert specializes(d, AdicPoint.halo(ui(3), 1, "<"))
    assert not specializes(d, AdicPoint.halo(ui(1), 1, "<"))
    assert not specializes(d, AdicPoint.halo(ui(0), 2, "<"))


def test_nonbranching_disc_is_closed():
    d = AdicPoint.disc(ui(0), Fraction(1, 2))
    assert not specializes(d, AdicPoint.halo(ui(0), Fraction(1, 2), "<"))


def test_generization_chain_above_halo_has_length_one():
    h = AdicPoint.halo(ui(0), 0, "<")
    pool = [AdicPoint.gauss(C), AdicPoint.classical(ui(0)),
            AdicPoint.disc(ui(0), 1), AdicPoint.halo(ui(1), 0, "<")]
    above = [y for y in pool if specializes(y, h) and not y.same_point(h)]
    assert len(above) == 1
    assert above[0].is_gauss()


RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3),
         Fraction(2)]


def adic_points(config):
    centers = elements(config, "untilt", max_terms=2)
    return st.one_of(
        centers.map(AdicPoint.classical),
        st.builds(AdicPoint.disc, centers, st.sampled_from(RADII)),
        st.builds(lambda c, q: AdicPoint.halo(c, q, "<"),
                  centers, st.sampled_from(RADII)),
        st.builds(lambda c, q: AdicPoint.halo(c, q, ">"),
                  centers, st.sampled_from([q for q in RADII if q > 0])),
    )


@given(x=adic_points(C))
def test_specialization_is_reflexive(x):
    assert specializes(x, x)


@given(x=adic_points(C), y=adic_points(C))
def test_specialization_is_antisymmetric(x, y):
    if specializes(x, y) and specializes(y, x):
        assert x.same_point(y)


@given(x=adic_points(C), y=adic_points(C), z=adic_points(C))
def test_specialization_is_transitive(x, y, z):
    if specializes(x, y) and specializes(y, z):
        assert specializes(x, z)


# ---------------------------------------------------------------------
# evaluation properties
# ---------------------------------------------------------------------

def untilt_polys(config, max_deg=4):
    return st.lists(
        elements(config, "untilt", max_terms=3),
        min_size=1, max_size=max_deg + 1,
    ).filter(lambda cs: not cs[-1].is_zero()).map(Polynomial)


@given(f=untilt_polys(C, 2), g=untilt_polys(C, 2), x=adic_points(C))
def test_eval_is_multiplicative(f, g, x):
    try:
        fg = poly_mul(f, g)
    except KernelError:
        assume(False)
    try:
        ef = eval_at(f, x)
        eg = eval_at(g, x)
        efg = eval_at(fg, x)
    except IndeterminateError:
        assume(False)
    if isinstance(ef, Rank2Value):
        assert efg == ef * eg
    else:
        assert efg == ef + eg


def coarse_points(config):
    """Points whose center may be known only to partial precision, at
    any rational radius up to 3."""
    centers = elements(config, "untilt", max_terms=3, vary_precision=True)
    radii = st.fractions(min_value=0, max_value=3, max_denominator=9)
    return st.one_of(
        centers.map(AdicPoint.classical),
        st.builds(AdicPoint.disc, centers, radii),
        st.builds(lambda c, q: AdicPoint.halo(c, q, "<"), centers, radii),
        st.builds(lambda c, q: AdicPoint.halo(c, q, ">"), centers,
                  radii.filter(lambda q: q > 0)),
    )


@pytest.mark.parametrize("config", [C, FieldConfig(2, 4, 2)],
                         ids=lambda c: f"p{c.p}")
@settings(max_examples=150)
@given(data=st.data())
def test_eval_is_honest_under_refinement(config, data):
    """A valuation decided for coarse inputs is the valuation of every
    compatible refinement of the coefficients and the center;
    indeterminacy is allowed only on the coarse side."""
    coeffs = data.draw(st.lists(
        elements(config, "untilt", max_terms=3, vary_precision=True),
        min_size=1, max_size=4).filter(lambda cs: not cs[-1].is_zero()))
    x = data.draw(coarse_points(config))
    f = Polynomial(coeffs)
    fine_f = Polynomial([refined(data, c) for c in coeffs])
    fine_x = AdicPoint(x.kind, refined(data, x.center), x.radius_exp,
                       x.sign)
    try:
        coarse = eval_at(f, x)
    except IndeterminateError:
        return
    assert eval_at(fine_f, fine_x) == coarse


def _value_key(e):
    return e.sort_key() if isinstance(e, Rank2Value) else (e,)


@given(f=untilt_polys(C, 3), g=untilt_polys(C, 3), x=adic_points(C))
def test_eval_is_ultrametric(f, g, x):
    try:
        fg = poly_add(f, g)
    except KernelError:
        assume(False)
    try:
        ef = eval_at(f, x)
        eg = eval_at(g, x)
        efg = eval_at(fg, x)
    except IndeterminateError:
        assume(False)
    assert _value_key(efg) >= min(_value_key(ef), _value_key(eg))


# ---------------------------------------------------------------------
# point tilting
# ---------------------------------------------------------------------

def test_tilt_check_variable_at_uniformizer():
    out = tilt_point_check(tpoly(0, 1), AdicPoint.classical(W))
    assert out == {"untilt_exponent": Fraction(1),
                   "tilt_exponent": Fraction(1), "match": True}


def test_tilt_check_constant_one():
    out = tilt_point_check(tpoly(1), AdicPoint.gauss(C))
    assert out["match"]
    assert out["untilt_exponent"] == 0


def test_tilt_check_variable_plus_uniformizer_at_gauss():
    fb = Polynomial([TW, TiltElement.one(C)])
    out = tilt_point_check(fb, AdicPoint.gauss(C))
    assert out == {"untilt_exponent": Fraction(0),
                   "tilt_exponent": Fraction(0), "match": True}


def test_tilt_check_at_uniformizer_powers():
    fb = Polynomial([TW ** 3, TW])  # t*T + t^3
    out = tilt_point_check(fb, AdicPoint.classical(ui(1)))
    assert out["match"]
    assert out["untilt_exponent"] == 1
    out2 = tilt_point_check(fb, AdicPoint.classical(W * W))
    assert out2["match"]
    assert out2["untilt_exponent"] == 3


def test_tilt_check_at_a_point_with_its_tilt_coordinate():
    # 1 + p is no evident sharp image; the point carries its tilt 1 + t
    y = TiltElement.one(C) + TW
    x = AdicPoint.classical(sharp(y, C.prec), tilts=[y])
    one = TiltElement.one(C)
    for fb in (tpoly(0, 1), Polynomial([TW, one])):
        out = tilt_point_check(fb, x)
        assert out["match"] and out["untilt_exponent"] == 0
    # T - (1 + t) vanishes there, on both sides
    with pytest.raises(IndeterminateError):
        tilt_point_check(Polynomial([-y, one]), x)


@pytest.mark.parametrize("fb, x, want", [
    # T - 1 at the carried tilt 1 + t of sharp(1 + t)
    (Polynomial([-TiltElement.one(C), TiltElement.one(C)]),
     AdicPoint.classical(sharp(TiltElement.one(C) + TW, C.prec),
                         tilts=[TiltElement.one(C) + TW]), 1),
    # T + t^2 at 0, tT + t^3 at p^2, T^2 + t at p^(1/3): evident tilts
    (Polynomial([TW ** 2, TiltElement.one(C)]),
     AdicPoint.classical(ui(0)), 2),
    (Polynomial([TW ** 3, TW]), AdicPoint.classical(W * W), 3),
    (Polynomial([TW, TiltElement.zero(C), TiltElement.one(C)]),
     AdicPoint.classical(UntiltElement.monomial(C, 1, Fraction(1, 3))),
     Fraction(2, 3)),
    # tT + t^2 at the Gauss point
    (Polynomial([TW ** 2, TW]), AdicPoint.gauss(C), 1),
], ids=["carried", "zero", "p-power", "p-root", "gauss"])
def test_eval_reads_a_tilt_polynomial_at_the_tilt(fb, x, want):
    assert eval_at(fb, x) == want
    assert tilt_point_check(fb, x)["tilt_exponent"] == want


def test_point_tilts_are_carried_or_evident():
    y = TiltElement.one(C) + TW
    x = AdicPoint.classical(sharp(y, C.prec), W ** 2, ui(1) + W, ui(0),
                            tilts=[y, None, None, None])
    assert [x.tilt(i) for i in range(4)] == [
        y, TW ** 2, None, TiltElement.zero(C)]


def test_tilt_check_requires_recognizable_center():
    center = ui(1) + W
    with pytest.raises(KernelError, match="not a recognized sharp image"):
        tilt_point_check(tpoly(0, 1), AdicPoint.classical(center))
    with pytest.raises(KernelError, match="^tilt preimage .* does not lift "):
        AdicPoint.classical(center, tilts=[TW])


def test_tilt_check_rejects_other_point_kinds():
    with pytest.raises(KernelError):
        tilt_point_check(tpoly(0, 1), AdicPoint.disc(ui(0), 1))
    with pytest.raises(ConfigError):
        tilt_point_check(T_VAR, AdicPoint.gauss(C))


def test_tilt_membership_transfers_along_sharp():
    # |T| <= |t| on the tilt side matches |T| <= |p| upstairs, tested
    # through the exponent pairs at several classical points
    fb_list = [tpoly(0, 1), Polynomial([TW ** 2])]
    gb = Polynomial([TW])
    for x in [AdicPoint.classical(W), AdicPoint.classical(ui(1)),
              AdicPoint.classical(W * W), AdicPoint.gauss(C)]:
        pairs = [tilt_point_check(fb, x) for fb in fb_list]
        gpair = tilt_point_check(gb, x)
        for pair in pairs + [gpair]:
            assert pair["match"]
        upstairs = all(p["untilt_exponent"] >= gpair["untilt_exponent"]
                       for p in pairs)
        downstairs = all(p["tilt_exponent"] >= gpair["tilt_exponent"]
                         for p in pairs)
        assert upstairs == downstairs


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_point_json_round_trip():
    y = TiltElement.one(C) + TW
    pts = [AdicPoint.classical(ui(3)),
           AdicPoint.classical(sharp(y, C.prec), tilts=[y]),
           AdicPoint.classical(ui(3), W, tilts=[None, TW]),
           AdicPoint.disc(ui(1), Fraction(1, 2)),
           AdicPoint.halo(ui(0), Fraction(4, 3), ">")]
    for x in pts:
        assert adic_point_from_json(x.to_json()) == x


def test_one_coordinate_is_the_disc_form_and_more_the_polydisc_form():
    # both forms of a classical point in one coordinate read into one
    # point, which writes the disc form back
    u = ui(3).to_json()
    disc = adic_point_from_json({"type": "classical", "center": u})
    assert adic_point_from_json({"kind": "classical", "coords": [u]}) == disc
    assert disc.to_json() == {"type": "classical", "center": u}
    pair = AdicPoint.classical(ui(3), W)
    assert pair.to_json() == {"kind": "classical",
                              "coords": [u, W.to_json()]}
    assert AdicPoint.gauss(C, 3).to_json() == {"kind": "gauss"}
    # each form keeps its refusal of an unknown shape
    with pytest.raises(ConfigError, match="^unknown point type 'x'$"):
        adic_point_from_json({"type": "x"})
    with pytest.raises(ConfigError, match="^unknown point kind 'x'$"):
        adic_point_from_json({"kind": "x"})


def test_points_check_their_coordinates_tilts_and_arity():
    with pytest.raises(ConfigError, match="one coordinate"):
        AdicPoint("disc", (ui(0), ui(0)), Fraction(1, 2))
    with pytest.raises(ConfigError, match="one coordinate"):
        AdicPoint("halo", (ui(0), ui(0)), 1, "<")
    with pytest.raises(ConfigError, match="bad tilt preimage"):
        AdicPoint("disc", ui(0), 1, tilts=[TW])
    for tilts in (5, [None, None], iter([None])):
        with pytest.raises(ConfigError, match="a tilt or None per coordinate"):
            AdicPoint.classical(ui(0), tilts=tilts)
    with pytest.raises(ConfigError, match="one or more coordinates"):
        AdicPoint.classical()
    with pytest.raises(ConfigError, match="one variable"):
        eval_at(Polynomial([ui(1)]), AdicPoint.gauss(C, 2))
    assert AdicPoint.gauss(C, 2).same_point(AdicPoint.gauss(C, 2))
    assert not AdicPoint.gauss(C, 2).same_point(AdicPoint.gauss(C))
    # the Gauss point of the plane is not the disc a halo presses on
    with pytest.raises(ConfigError, match="numbers of coordinates"):
        specializes(AdicPoint.gauss(C, 2), AdicPoint.halo(ui(0), 0, "<"))


def test_gauss_json_shorthand():
    g = AdicPoint.gauss(C)
    data = g.to_json()
    assert data["type"] == "gauss"
    assert adic_point_from_json(data) == g
    assert adic_point_from_json({"type": "gauss"}, config=C) == g
    # an inline config equal to the caller's leaves the caller's object
    assert adic_point_from_json(data, config=C).config is C
    with pytest.raises(KernelError):
        adic_point_from_json({"type": "gauss"})
    # the polydisc shorthand takes the arity as well, and has no inline
    # config
    assert adic_point_from_json({"kind": "gauss"}, C, 3) == \
        AdicPoint.gauss(C, 3)
    assert adic_point_from_json({"kind": "gauss"}, C) == g
    with pytest.raises(KernelError, match="explicit config"):
        adic_point_from_json({"kind": "gauss"})


def test_rank2_json_shape():
    v = Rank2Value(Fraction(1, 2), 3, ">")
    assert v.to_json() == {"exponent": {"num": 1, "den": 2},
                           "gamma_exp": 3, "sign": ">"}
