"""Bundled fixture documents and their parsers.

Every fixture the package ships is produced here by the canonical
serializers, so checked-in bytes, regenerated bytes, and parse/print
round trips agree by construction.  The ``broken-`` fans are the one
exception: they encode face-condition violations that the fan
constructor must reject, so their documents are literal.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .adicdisc import AdicPoint, RationalSubset, adic_point_from_json
from .arith import (FieldConfig, TiltElement, UntiltElement, dumps,
                    element_from_json)
from .polyroots import Polynomial
from .tatealg import HomogeneousElement
from .tiltkit import WittVector
from .toric import Fan, TWeilDivisor, projective_fan

__all__ = [
    "fixture_documents", "fixture_parsers", "is_rejection_fixture",
    "write_fixtures",
]


def _element_fixtures():
    config = FieldConfig(3, 8, 4)
    t = TiltElement.uniformizer(config)
    u = UntiltElement(config, {Fraction(1, 3): 2, Fraction(4, 3): 1})
    w = UntiltElement.uniformizer(config)
    zero = UntiltElement.zero(config)
    x2p = Polynomial([zero - w, zero, UntiltElement.one(config)])

    deep = FieldConfig(3, 8, 8)
    zt = TiltElement.zero(deep)
    x2t = Polynomial([zt - TiltElement.uniformizer(deep), zt,
                      TiltElement.one(deep)])

    witt_config = FieldConfig(3, 9, 6)
    witt_t = WittVector.teichmuller(
        TiltElement.uniformizer(witt_config), 3)

    form_config = FieldConfig(3, 4, 5)
    form = sum(
        (HomogeneousElement.variable(form_config, "untilt", 3, j)
         for j in range(1, 3)),
        HomogeneousElement.variable(form_config, "untilt", 3, 0))

    return [
        ("t.json", t.to_json(), element_from_json),
        ("u.json", u.to_json(), element_from_json),
        ("x2-p.json", x2p.to_json(), Polynomial.from_json),
        ("x2-t.json", x2t.to_json(), Polynomial.from_json),
        ("witt-t.json", witt_t.to_json(), WittVector.from_json),
        ("linear-form.json", form.to_json(), HomogeneousElement.from_json),
    ]


def _disc_fixtures():
    config = FieldConfig(3, 4, 3)
    gauss = AdicPoint.gauss(config)
    halo = AdicPoint.halo(UntiltElement.zero(config), 0, "<")
    zero = UntiltElement.zero(config)
    variable = Polynomial([zero, UntiltElement.one(config)])
    unit = Polynomial([UntiltElement.one(config)])
    subset = RationalSubset([variable], unit)
    return [
        ("gauss.json", gauss.to_json(), adic_point_from_json),
        ("origin-halo.json", halo.to_json(), adic_point_from_json),
        ("subset-t.json", subset.to_json(), RationalSubset.from_json),
    ]


def _fan_fixtures():
    def divisor_parser(data):
        return TWeilDivisor.from_json(projective_fan(2), data)

    plane = projective_fan(2)
    hyperplane = TWeilDivisor(plane, {(-1, -1): 1, (0, 1): 0, (1, 0): 0})
    fixtures = [
        ("pn1.json", projective_fan(1).to_json(), Fan.from_json),
        ("pn2.json", plane.to_json(), Fan.from_json),
        ("p1xp1.json",
         Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                 [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]).to_json(),
         Fan.from_json),
        ("hyperplane.json", hyperplane.to_json(), divisor_parser),
    ]
    # face-condition violations, one per standard fan: a line cone, a
    # cone strictly inside a neighbour, and a partial overlap
    fixtures += [
        ("broken-pn1.json",
         {"rank": 1, "cones": [[[-1], [1]]]}, Fan.from_json),
        ("broken-pn2.json",
         {"rank": 2, "cones": [[[-1, -1], [0, 1]], [[-1, -1], [1, 0]],
                               [[0, 1], [1, 0]], [[1, 2], [2, 1]]]},
         Fan.from_json),
        ("broken-p1xp1.json",
         {"rank": 2, "cones": [[[1, 0], [0, 1]], [[0, 1], [-1, 0]],
                               [[-1, 0], [0, -1]], [[0, -1], [1, 1]]]},
         Fan.from_json),
    ]
    return fixtures


def _all_fixtures():
    return _element_fixtures() + _disc_fixtures() + _fan_fixtures()


def fixture_documents() -> dict:
    """Fixture name to JSON document, in canonical order."""
    return {name: doc for name, doc, _ in _all_fixtures()}


def fixture_parsers() -> dict:
    """Fixture name to the parser its document feeds."""
    return {name: parser for name, _, parser in _all_fixtures()}


def is_rejection_fixture(name: str) -> bool:
    """Whether the fixture exists to be rejected by its parser."""
    return name.startswith("broken-")


def write_fixtures(directory: str) -> list[str]:
    """Write every fixture document under ``directory``; returns the
    file names written."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, doc in fixture_documents().items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(doc) + "\n")
        written.append(name)
    return written
