"""The untilt element's stored form, its layer coefficients, against the
dense digit oracle of ``oracles``.

Operands are built from raw coefficient maps, negative ones included,
of up to p^3 in size (so construction borrows and carries), known below
any lattice index.  Every operation on the coefficients is compared
with the same operation on dense digit arrays, and every result's text
and JSON forms with the bytes the reference writers give for the
oracle's digits.  Tilt elements run through the same table.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from perfectoid.arith import (
    FieldConfig,
    TiltElement,
    UntiltElement,
    ValExp,
    divide_exact,
    dumps,
    element_from_json,
    invert_unit,
    lift_mod_uniformizer,
    parse_text,
    reduce_mod_uniformizer,
)
from perfectoid.tiltkit import untilt_power_pn

CONFIGS = [FieldConfig(2, 4, 2), FieldConfig(3, 3, 1), FieldConfig(5, 2, 1),
           FieldConfig(3, 2, 2)]
KINDS = {"untilt": UntiltElement, "tilt": TiltElement}


def _operand(data, config, kind):
    """(element, its dense digits, the index it is known below), from a
    raw map of coefficients in -p^3..p^3."""
    full = oracles.dense_length(config)
    raw = data.draw(st.dictionaries(
        st.integers(0, full - 1),
        st.integers(-config.p ** 3, config.p ** 3), max_size=6))
    known = data.draw(st.integers(0, full))
    x = KINDS[kind](config, {Fraction(j, config.scale): c
                             for j, c in raw.items()},
                    Fraction(known, config.scale))
    vec = oracles.dense_normalize([raw.get(j, 0) for j in range(full)],
                                  config, kind)
    return x, oracles.dense_truncate(vec, known), known


def _reference(vec, known, config, kind):
    """A stand-in for the element with dense digits vec known below
    ``known``, as the reference writers read one."""
    cls = KINDS[kind]
    return SimpleNamespace(
        kind=kind, symbol=cls.symbol, config=config,
        digits={ValExp(j, config.scale): c for j, c in enumerate(vec)
                if c and j < known},
        precexp=ValExp(known, config.scale))


def _check(x, vec, known, kind):
    """x is the element with dense digits vec known below ``known``, and
    its text and JSON forms are the reference bytes and read back to
    it."""
    config = x.config
    vec = oracles.dense_truncate(vec, known)
    assert oracles.dense_precision(x) == known
    assert oracles.dense_from_element(x) == vec
    ref = _reference(vec, known, config, kind)
    text = x.to_text()
    assert text == oracles.reference_text(ref)
    assert x.dumps() == dumps(oracles.reference_json(ref))
    again = parse_text(text, config, kind)
    assert again == x and again.to_text() == text
    again = element_from_json(x.dumps())
    assert again == x and again.dumps() == x.dumps()
    assert hash(again) == hash(x)


def _shifted(vec, s, full):
    """The dense digits moved by s indices, cut to the array."""
    out = [0] * full
    for j, c in enumerate(vec):
        if c and 0 <= j + s < full:
            out[j + s] = c
    return out


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"p{c.p}n{c.prec}m{c.dencap}")
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_layer_core_matches_the_dense_oracle(config, kind, data):
    full = oracles.dense_length(config)
    a, da, ka = _operand(data, config, kind)
    b, db, kb = _operand(data, config, kind)
    c, dc, kc = _operand(data, config, kind)
    for x, vec, known in ((a, da, ka), (b, db, kb)):
        _check(x, vec, known, kind)
    va, vb = (oracles.dense_valuation(da, ka),
              oracles.dense_valuation(db, kb))
    assert a._low() == va

    def mul(u, v):
        return oracles.dense_mul(u, v, config, kind)[:full]

    def add(u, v):
        return oracles.dense_add(u, v, config, kind)

    neg_b = oracles.dense_neg(db, config, kind)
    _check(a + b, add(da, db), min(ka, kb), kind)
    _check(a - b, add(da, neg_b), min(ka, kb), kind)
    _check(-a, oracles.dense_neg(da, config, kind), ka, kind)
    kab = min(ka + vb, kb + va, full)
    _check(a * b, mul(da, db), kab, kind)
    _check(c._addmul(a, b), add(dc, mul(da, db)), min(kc, kab), kind)

    # a shift up, and one down by at most the valuation
    up = data.draw(st.integers(0, full))
    _check(a._shift(up), _shifted(da, up, full), min(ka + up, full), kind)
    down = data.draw(st.integers(0, min(va, ka)))
    _check(a._shift(-down), _shifted(da, -down, full), ka - down, kind)
    # a cut below the precision, and a promotion above it
    k = data.draw(st.integers(0, full))
    _check(a._at(k), da, k, kind)

    if da[0]:
        inverse = invert_unit(a)
        di = oracles.dense_from_element(inverse)
        one = oracles.dense_truncate([1] + [0] * (full - 1), ka)
        assert oracles.dense_precision(inverse) == ka
        assert oracles.dense_truncate(mul(da, di), ka) == one
        _check(inverse, di, ka, kind)
    if not b.is_zero():
        # a b / b: the quotient times b is a b, below the quotient's
        # precision shifted by v(b)
        q = divide_exact(a * b, b)
        kq = oracles.dense_precision(q)
        assert oracles.dense_truncate(
            mul(oracles.dense_from_element(q), db), kq + vb) == \
            oracles.dense_truncate(mul(da, db), kq + vb)

    if kind == "untilt":
        scale = config.scale
        r = reduce_mod_uniformizer(a)
        _check(r, da[:scale] + [0] * (full - scale), min(ka, scale), "tilt")
        lifted = lift_mod_uniformizer(r)
        _check(lifted, da[:scale] + [0] * (full - scale), min(ka, scale),
               "untilt")
        # a zero keeps min(precexp * p^n, prec), any other power precexp
        n = data.draw(st.integers(0, 2))
        kp = ka if n == 0 or not a.is_zero() else min(ka * config.p ** n,
                                                        full)
        _check(untilt_power_pn(a, n),
               oracles.dense_pow(da, config.p ** n, config, kind), kp,
               kind)
