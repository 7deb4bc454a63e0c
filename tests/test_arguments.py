"""Every integer and rational argument of the Python API follows one rule.

An integer argument is an int and not a bool; a rational one is an int,
a Fraction or text that Fraction reads.  Both are checked by one of
``arith``'s two numeric entries and never converted: a float, a bool or
anything else is refused with the entry point's typed error, a subclass
of KernelError, and never escapes as a TypeError or ValueError.

Each row of ``SITES`` names one numeric argument of one entry point:
how to call it with that argument, its typed error, the bad values it
must refuse and one good value with the answer it must give.  To cover
another numeric argument, add a row.  The digit map of an element is
checked alike: any mapping answers, anything else is a KernelError.
"""

from fractions import Fraction
from types import MappingProxyType

import pytest

from perfectoid.adicdisc import AdicPoint, Rank2Value
from perfectoid.arith import (ConfigError, FieldConfig, KernelError,
                              PrecisionError, TiltElement, UntiltElement,
                              check_prime, pth_root_mod)
from perfectoid.polyroots import (NewtonPolygon, Polynomial, fw_transfer,
                                  transfer_agreement)
from perfectoid.tatealg import (HomogeneousElement, Monomial, approximate,
                                decompose, verify_contract)
from perfectoid.tiltkit import WittVector, sharp, untilt_power_pn
from perfectoid.toric import (Cone, ConeError, TWeilDivisor, projective_fan,
                              sections)

NAN = float("nan")
# what no numeric argument takes; -1 joins where the range refuses it
NOT_NUMBERS = (True, False, 1.0, 0.5, NAN, "x", None)
NOT_NATURAL = NOT_NUMBERS + (-1,)
NOT_POSITIVE = NOT_NATURAL + (0,)
# for an argument whose default None means "not given"
NOT_GIVEN_NATURAL = tuple(v for v in NOT_NATURAL if v is not None)

C2 = FieldConfig(2, 2, 1)
C3 = FieldConfig(3, 4, 2)
P2 = projective_fan(2)
HYPERPLANE = TWeilDivisor(P2, [1, 0, 0])


def _tilt_poly():
    return Polynomial([TiltElement.from_int(C3, 2), TiltElement.one(C3)])


def _form(kind):
    return HomogeneousElement.variable(C3, kind, 1, 0)


# (id, call with the argument, typed error, bad values, good value,
# the answer to the good value)
SITES = [
    # arith
    ("UntiltElement-exponent", lambda e: UntiltElement(C2, {e: 1}),
     KernelError, NOT_NATURAL, "1/2", UntiltElement(C2, {Fraction(1, 2): 1})),
    ("UntiltElement-precexp", lambda k: UntiltElement.one(C2, k),
     KernelError, NOT_GIVEN_NATURAL, "3/2",
     UntiltElement(C2, {0: 1}, Fraction(3, 2))),
    ("with_precision", lambda k: UntiltElement.one(C2).with_precision(k),
     KernelError, NOT_NATURAL, 1, UntiltElement(C2, {0: 1}, 1)),
    ("digit_at", lambda e: TiltElement.one(C2).digit_at(e),
     KernelError, NOT_NATURAL, Fraction(0), 1),
    ("shift", lambda s: UntiltElement.one(C2).shift(s),
     KernelError, NOT_NUMBERS + (-2,), "1/2",
     UntiltElement(C2, {Fraction(1, 2): 1})),
    ("monomial", lambda e: UntiltElement.monomial(C2, 1, e),
     KernelError, NOT_NATURAL, 1, UntiltElement.uniformizer(C2)),
    ("add", lambda x: UntiltElement.one(C2) + x,
     ConfigError, NOT_NUMBERS, -1, UntiltElement.zero(C2)),
    ("mul", lambda x: UntiltElement.one(C2) * x,
     ConfigError, NOT_NUMBERS, 3, UntiltElement.from_int(C2, 3)),
    ("rsub", lambda x: x - UntiltElement.one(C2),
     ConfigError, NOT_NUMBERS + (Fraction(1, 2),), 3,
     UntiltElement.from_int(C2, 2)),
    ("pow", lambda n: UntiltElement.from_int(C2, 3) ** n,
     KernelError, NOT_NATURAL, 2, UntiltElement.from_int(C2, 9)),
    ("root", lambda n: TiltElement.uniformizer(C2).root(n),
     KernelError, NOT_NATURAL, 1, TiltElement(C2, {Fraction(1, 2): 1})),
    ("pth_root_mod", lambda k: pth_root_mod(UntiltElement.one(C2), k),
     KernelError, NOT_NATURAL, "1/2", UntiltElement(C2, {0: 1}, 0)),
    ("check_prime", check_prime, ConfigError, NOT_NATURAL, 3, None),
    # tiltkit
    ("sharp", lambda n: sharp(TiltElement.one(C3), n),
     PrecisionError, NOT_POSITIVE, 1, UntiltElement.one(C3, 1)),
    ("untilt_power_pn", lambda n: untilt_power_pn(
        UntiltElement.from_int(C3, 2), n),
     KernelError, NOT_NATURAL, 1, UntiltElement.from_int(C3, 8)),
    ("WittVector.zero", lambda n: WittVector.zero(C3, n),
     KernelError, NOT_POSITIVE, 1,
     WittVector(C3, [TiltElement.zero(C3)])),
    ("WittVector.teichmuller", lambda n: WittVector.teichmuller(
        TiltElement.one(C3), n),
     KernelError, NOT_POSITIVE, 2,
     WittVector(C3, [TiltElement.one(C3), TiltElement.zero(C3)])),
    # polyroots
    ("NewtonPolygon-slope", lambda s: NewtonPolygon([(s, 1)]),
     KernelError, NOT_NUMBERS, "1/2", NewtonPolygon([(Fraction(1, 2), 1)])),
    ("NewtonPolygon-multiplicity", lambda m: NewtonPolygon([(0, m)]),
     KernelError, NOT_POSITIVE + (2.7,), 2, NewtonPolygon([(0, 2)])),
    ("NewtonPolygon-vanishing", lambda n: NewtonPolygon([], n),
     KernelError, NOT_NATURAL, 1, NewtonPolygon([], 1)),
    ("fw_transfer", lambda n: fw_transfer(_tilt_poly(), n),
     KernelError, NOT_NATURAL + (-5, 1.5), 0,
     Polynomial([UntiltElement.from_int(C3, -1), UntiltElement.one(C3)])),
    ("transfer_agreement", lambda n: transfer_agreement(_tilt_poly(), n),
     KernelError, NOT_NATURAL + (-5, 1.5), 0, Fraction(2)),
    # tatealg
    ("Monomial", lambda e: Monomial(C3, [e, 0]),
     KernelError, NOT_NATURAL, "1/3", Monomial(C3, [Fraction(1, 3), 0])),
    ("Monomial.scaled", lambda f: Monomial(C3, [1, 0]).scaled(f),
     KernelError, NOT_NATURAL, "1/3", Monomial(C3, [Fraction(1, 3), 0])),
    ("HomogeneousElement-degree", lambda d: HomogeneousElement.zero(
        C3, "untilt", 1, d),
     KernelError, NOT_NATURAL, "1/3",
     HomogeneousElement.zero(C3, "untilt", 1, Fraction(1, 3))),
    ("HomogeneousElement-nvars", lambda n: HomogeneousElement.zero(
        C3, "untilt", n, 0),
     ConfigError, NOT_POSITIVE, 1,
     HomogeneousElement(C3, "untilt", 1, 0)),
    ("HomogeneousElement.one", lambda n: HomogeneousElement.one(
        C3, "untilt", n),
     ConfigError, NOT_POSITIVE + (2.5,), 1,
     HomogeneousElement(C3, "untilt", 1, 0, {
         Monomial(C3, [0]): UntiltElement.one(C3)})),
    ("HomogeneousElement.variable-nvars", lambda n: HomogeneousElement
     .variable(C3, "untilt", n, 0),
     ConfigError, NOT_POSITIVE + (2.5,), 1, _form("untilt")),
    ("HomogeneousElement.variable-index", lambda j: HomogeneousElement
     .variable(C3, "untilt", 1, j),
     ConfigError, NOT_NATURAL + (1,), 0, _form("untilt")),
    ("HomogeneousElement.with_precision", lambda k: _form("untilt")
     .with_precision(k),
     KernelError, NOT_NATURAL, 1, _form("untilt").with_precision(
         Fraction(1))),
    ("HomogeneousElement-pow", lambda n: _form("untilt") ** n,
     KernelError, NOT_NATURAL, 2, _form("untilt") * _form("untilt")),
    ("decompose", lambda c: decompose(_form("untilt"), c),
     KernelError, NOT_NATURAL, 0, [_form("tilt")]),
    ("approximate-depth", lambda c: approximate(
        _form("untilt"), c, Fraction(1, 3)),
     KernelError, NOT_NATURAL, "1", _form("tilt")),
    ("approximate-budget", lambda e: approximate(_form("untilt"), 1, e),
     KernelError, NOT_NATURAL, "1/3", _form("tilt")),
    ("verify_contract-depth", lambda c: verify_contract(
        _form("untilt"), _form("tilt"), c, Fraction(1, 3),
        [AdicPoint.gauss(C3)]).passed,
     KernelError, NOT_NATURAL, "1", True),
    ("verify_contract-budget", lambda e: verify_contract(
        _form("untilt"), _form("tilt"), 1, e, [AdicPoint.gauss(C3)]).passed,
     KernelError, NOT_NATURAL, "1/3", True),
    # toric
    ("TWeilDivisor-list", lambda a: TWeilDivisor(P2, [a, 0, 0]),
     ConeError, NOT_NUMBERS, "1/2",
     TWeilDivisor(P2, [Fraction(1, 2), 0, 0])),
    ("TWeilDivisor-dict", lambda a: TWeilDivisor(
        P2, dict(zip(P2.rays, [a, 0, 0]))),
     ConeError, NOT_NUMBERS, "1/2",
     TWeilDivisor(P2, [Fraction(1, 2), 0, 0])),
    ("TWeilDivisor.scaled", lambda f: HYPERPLANE.scaled(f),
     ConeError, NOT_NUMBERS, "1/2",
     TWeilDivisor(P2, [Fraction(1, 2), 0, 0])),
    ("sections-dencap", lambda m: len(sections(P2, HYPERPLANE, m, 3)),
     ConeError, NOT_NATURAL, 0, 3),
    ("sections-p", lambda p: len(sections(P2, HYPERPLANE, 1, p)),
     ConfigError, NOT_GIVEN_NATURAL, 3, 10),
    ("projective_fan", projective_fan,
     ConeError, NOT_POSITIVE, 2, P2),
    ("Cone-rank", lambda n: Cone(n, []).rank,
     ConeError, NOT_POSITIVE, 2, 2),
    # adicdisc
    ("AdicPoint.disc", lambda r: AdicPoint.disc(
        UntiltElement.zero(C2), r).radius_exp,
     KernelError, NOT_NATURAL, "1/2", Fraction(1, 2)),
    ("AdicPoint.halo", lambda r: AdicPoint.halo(
        UntiltElement.zero(C2), r, "<").radius_exp,
     KernelError, NOT_NATURAL, "1/2", Fraction(1, 2)),
    ("AdicPoint.gauss", lambda n: AdicPoint.gauss(C2, n).nvars,
     ConfigError, NOT_POSITIVE, 2, 2),
    ("Rank2Value-exponent", lambda q: Rank2Value(q, 0, "<").q,
     KernelError, NOT_NUMBERS, "-1/2", Fraction(-1, 2)),
    ("Rank2Value-gamma", lambda k: Rank2Value(0, k, "<").k,
     ConfigError, NOT_NUMBERS, -1, -1),
]


def _refusals():
    for name, call, error, bad, _, _ in SITES:
        for value in bad:
            yield pytest.param(call, error, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("call,error,value", _refusals())
def test_a_bad_numeric_argument_is_a_typed_refusal(call, error, value):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call,good,expected",
                         [pytest.param(row[1], row[4], row[5], id=row[0])
                          for row in SITES])
def test_a_good_numeric_argument_answers(call, good, expected):
    assert call(good) == expected


@pytest.mark.parametrize("kind", [UntiltElement, TiltElement])
@pytest.mark.parametrize("digits", [[1], (1,), [], "1", 5, {1}])
def test_digits_that_are_not_a_mapping_are_a_typed_refusal(kind, digits):
    with pytest.raises(KernelError, match="^not a digit mapping: "):
        kind(C2, digits)


@pytest.mark.parametrize("kind", [UntiltElement, TiltElement])
def test_digits_in_any_mapping_answer(kind):
    digits = {Fraction(1, 2): 1}
    assert kind(C2, MappingProxyType(digits)) == kind(C2, digits)
    assert kind(C2, None) == kind(C2, {})
