"""Every value the package hands out is immutable and compares by value.

One table row per value class: a sample, a separately built value
equal to it (a JSON round trip where the class has a reader), and the
tuple it hashes as.  The hash tuples are pinned because set and dict
iteration orders follow them, and through ``Fan`` those orders reach
refusal texts.  A guard keeps the rule in the two bases of ``arith``.
"""

import copy
import importlib
import inspect
import json
import pickle
import pkgutil
from fractions import Fraction
from itertools import combinations

import pytest

import perfectoid
from perfectoid.adicdisc import (AdicPoint, RationalSubset, Rank2Value,
                                 adic_point_from_json)
from perfectoid.arith import (FieldConfig, TiltElement, UntiltElement,
                              _DigitElement, _Frozen, _Value,
                              element_from_json)
from perfectoid.polyroots import NewtonPolygon, Polynomial, newton_polygon
from perfectoid.suite import CheckResult
from perfectoid.tatealg import (ClassicalPoint, ContractReport, GaussPoint,
                                HomogeneousElement, Monomial,
                                point_from_json)
from perfectoid.tiltkit import WittVector
from perfectoid.toric import (Cone, Fan, TransferResult, TWeilDivisor,
                              projective_fan)

C = FieldConfig(3, 4, 2)
U = UntiltElement(C, {Fraction(1, 3): 2, 1: 1})
T = TiltElement(C, {Fraction(1, 9): 1})
POLY = Polynomial([-UntiltElement.uniformizer(C), UntiltElement.zero(C),
                   UntiltElement.one(C)])
MONO = Monomial(C, [Fraction(1, 3), 1])
HOM = HomogeneousElement(C, "untilt", 2, Fraction(4, 3), {MONO: U})
P2 = projective_fan(2)
REPORT = ContractReport([{"equality": "pass", "inequality": "pass"}])


def _element_key(x):
    return x.kind, x.config, x._k, frozenset(x._digits.items())


# (sample, an equal value built apart from it or None when the class
# compares by identity, the tuple the value hashes as)
VALUES = [
    (C, lambda: FieldConfig(3, 4, 2), lambda v: (v.p, v.prec, v.dencap)),
    (U, lambda: element_from_json(U.dumps()), _element_key),
    (T, lambda: element_from_json(T.to_json()), _element_key),
    (WittVector.teichmuller(T, 2),
     lambda: WittVector.from_json(WittVector.teichmuller(T, 2).to_json()),
     lambda v: (v.config, v.components)),
    (POLY, lambda: Polynomial.from_json(json.dumps(POLY.to_json())),
     lambda v: (v.kind, v.coeffs)),
    (newton_polygon(POLY), lambda: NewtonPolygon([(Fraction(1, 2), 2)]),
     lambda v: (v.segments, v.vanishing_order)),
    (MONO, lambda: Monomial.from_json(C, MONO.to_json()),
     lambda v: (v.config, v._idx)),
    (HOM, lambda: HomogeneousElement.from_json(HOM.dumps()),
     lambda v: (v.config, v.kind, v.nvars, v._deg, v._k,
                frozenset(v.terms.items()))),
    (GaussPoint(), lambda: point_from_json({"kind": "gauss"}),
     lambda v: ()),
    (ClassicalPoint([U, UntiltElement.one(C)]),
     lambda: point_from_json(
         ClassicalPoint([U, UntiltElement.one(C)]).to_json()),
     lambda v: (v.coords, v.tilt_coords)),
    (Rank2Value(Fraction(1, 2), 1, "<"), lambda: Rank2Value("1/2", 1, "<"),
     lambda v: (v.q, v.k, v.sign)),
    (AdicPoint.halo(U, Fraction(1, 3), ">"),
     lambda: adic_point_from_json(
         AdicPoint.halo(U, Fraction(1, 3), ">").to_json()),
     lambda v: (v.kind, v.center, v.radius_exp, v.sign)),
    (RationalSubset([POLY], POLY),
     lambda: RationalSubset.from_json(
         RationalSubset([POLY], POLY).to_json()),
     lambda v: (v.numerators, v.denominator)),
    (Cone(2, [(1, 0), (1, 1)]), lambda: Cone(2, [(1, 1), (2, 0)]),
     lambda v: (v.rank, v.generators)),
    (P2, lambda: Fan.from_json(P2.to_json()), lambda v: (v.rank, v.cones)),
    (TWeilDivisor(P2, [1, 0, 0]),
     lambda: TWeilDivisor.from_json(P2, TWeilDivisor(P2, ["1", 0, 0])
                                    .to_json()),
     lambda v: (v.fan, v.coefficients)),
    (CheckResult("sample", True, "fine", 0.5),
     lambda: CheckResult("sample", True, "fine", 0.5),
     lambda v: (v.name, v.passed, v.detail, v.elapsed)),
    (REPORT, None, None),
    (TransferResult(HOM, 0, HOM, REPORT), None, None),
]

IDS = [type(row[0]).__name__ for row in VALUES]
EQUAL = [row for row in VALUES if row[1] is not None]
EQUAL_IDS = [type(row[0]).__name__ for row in EQUAL]


def _slots(value):
    return [name for cls in type(value).__mro__
            for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("value", [row[0] for row in VALUES], ids=IDS)
def test_every_attribute_write_is_refused(value):
    for name in [*_slots(value), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value,rebuild,key", EQUAL, ids=EQUAL_IDS)
def test_a_value_built_apart_is_equal_and_hashes_equal(value, rebuild,
                                                       key):
    again = rebuild()
    assert again is not value
    assert again == value and not again != value
    assert hash(again) == hash(value)


@pytest.mark.parametrize("value,rebuild,key", EQUAL, ids=EQUAL_IDS)
def test_a_value_hashes_as_its_key_tuple(value, rebuild, key):
    assert hash(value) == hash(key(value))
    if isinstance(value, _Value):
        assert value._key() == key(value)


@pytest.mark.parametrize("value", [row[0] for row in VALUES], ids=IDS)
def test_a_value_survives_copy_and_pickle(value):
    for again in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        if type(value).__eq__ is object.__eq__:
            assert again.to_json() == value.to_json()
        else:
            assert again == value and hash(again) == hash(value)
        with pytest.raises(AttributeError):
            setattr(again, "extra", None)


def test_a_value_never_equals_another_class_value():
    samples = [row[0] for row in VALUES]
    for a, b in combinations(samples, 2):
        assert a != b and b != a
    for value, _, key in EQUAL:
        assert value != key(value)


def _package_classes():
    for info in pkgutil.iter_modules(perfectoid.__path__):
        module = importlib.import_module(f"perfectoid.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_value_class_is_in_the_table():
    frozen = {cls for cls in _package_classes() if issubclass(cls, _Frozen)}
    assert frozen - {_Frozen, _Value, _DigitElement} == \
        {type(row[0]) for row in VALUES}


def test_only_the_bases_write_the_value_rules():
    # the two element classes keep their own equality: elements on one
    # config object skip comparing configs
    classes = list(_package_classes())
    assert {cls.__name__ for cls in classes
            if {"__setattr__", "__delattr__"} & vars(cls).keys()} \
        == {"_Frozen"}
    assert {cls.__name__ for cls in classes
            if {"__eq__", "__hash__"} & vars(cls).keys()} \
        == {"_Value", "_DigitElement"}
