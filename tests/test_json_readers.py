"""Every public reader of a JSON form follows one rule.

Text is parsed, by the outermost reader call only, a parsed value is
taken as it is, fields are checked and never converted (JSON's true is
not the integer 1), and a malformed document is refused with the
reader's typed error: ``ConeError`` for the toric readers, a
``KernelError`` for the rest.  The table below feeds each reader the
same list of malformed documents, plus malformed fields of one of its
valid documents; every case must raise that error, never another
exception and never a value.
"""

import copy
import importlib
import inspect
import json
import pkgutil

import pytest

import perfectoid
from perfectoid.adicdisc import RationalSubset, adic_point_from_json
from perfectoid.arith import (FieldConfig, KernelError, UntiltElement,
                              element_from_json)
from perfectoid.fixtures import fixture_documents
from perfectoid.polyroots import Polynomial
from perfectoid.tatealg import HomogeneousElement, Monomial
from perfectoid.tiltkit import WittVector
from perfectoid.toric import ConeError, Fan, TWeilDivisor, projective_fan

DOCS = fixture_documents()
ELEMENT = DOCS["t.json"]
CONFIG = FieldConfig(ELEMENT["p"], ELEMENT["prec"], ELEMENT["dencap"])
P2 = projective_fan(2)
DELETE = object()
# documents of one variable and one component: there, true read as the
# integer 1 would fit
ONE_VARIABLE = HomogeneousElement.variable(CONFIG, "tilt", 1, 0).to_json()
ONE_COMPONENT = {"length": 1, "components": [ELEMENT]}


def _text(doc, *path):
    """The part of doc at path, as JSON text."""
    for key in path:
        doc = doc[key]
    return json.dumps(doc)

# Documents malformed for every reader: text that is not JSON, nesting
# past the recursion limit, values of the wrong shape, and the radius
# forms that are not a rational.
EVERY_READER = [
    ("not-json", '{"kind": '),
    ("deep-nesting", "[" * 100_000),
    ("empty-array-text", "[]"),
    ("number-text", "5"),
    ("null-text", "null"),
    ("empty-array", []),
    ("number", 5),
    ("null", None),
    ("empty-object", {}),
    ("fraction-radius", {"num": 1.9, "den": 2}),
    ("zero-denominator", {"num": 1, "den": 0}),
]

# (name, reader called on a document, typed error, what its refusals
# name, a valid document, {case: (path to a field, value put there)})
READERS = [
    ("perfectoid.arith.element_from_json", element_from_json, KernelError,
     "element", ELEMENT, {
         "missing-key": (["precexp"], DELETE),
         "string-int": (["p"], "3"),
         "float-int": (["p"], 3.9),
         "infinite-int": (["prec"], float("inf")),
         "string-digit": (["terms", 0, "digit"], "1"),
         "float-digit": (["terms", 0, "digit"], 1.0),
         "float-exponent": (["terms", 0, "num"], 1.9),
         "true-int": (["dencap"], True),
         "true-digit": (["terms", 0, "digit"], True),
         "string-document": (["precexp"], _text(ELEMENT, "precexp")),
     }),
    ("perfectoid.tiltkit.WittVector.from_json", WittVector.from_json,
     KernelError, "Witt", DOCS["witt-t.json"], {
         "missing-key": (["length"], DELETE),
         "string-int": (["length"], "3"),
         "float-int": (["length"], 3.9),
         "float-component": (["components", 0, "dencap"], 6.0),
         "true-int": ([], {**ONE_COMPONENT, "length": True}),
         "string-document": (["components", 0],
                             _text(DOCS["witt-t.json"], "components", 0)),
     }),
    ("perfectoid.polyroots.Polynomial.from_json", Polynomial.from_json,
     KernelError, "polynomial", DOCS["x2-p.json"], {
         "missing-key": ([0, "terms"], DELETE),
         "string-int": ([0, "p"], "3"),
         "float-int": ([0, "p"], 3.9),
         "true-int": ([2, "terms", 0, "digit"], True),
         "string-document": ([0], _text(DOCS["x2-p.json"], 0)),
     }),
    ("perfectoid.tatealg.HomogeneousElement.from_json",
     HomogeneousElement.from_json, KernelError, "homogeneous element",
     DOCS["linear-form.json"], {
         "missing-key": (["nvars"], DELETE),
         "string-int": (["p"], "3"),
         "float-int": (["p"], 3.9),
         "float-nvars": (["nvars"], 3.5),
         "float-exponent": (["terms", 0, "exps", 0, "num"], 1.9),
         "true-int": (["terms", 0, "coeff", "terms", 0, "digit"], True),
         "true-nvars": ([], {**ONE_VARIABLE, "nvars": True}),
         "string-document": (["terms", 0, "coeff"],
                             _text(DOCS["linear-form.json"], "terms", 0,
                                   "coeff")),
         "string-monomial": (["terms", 0, "exps"],
                             _text(DOCS["linear-form.json"], "terms", 0,
                                   "exps")),
     }),
    ("perfectoid.tatealg.Monomial.from_json",
     lambda data: Monomial.from_json(CONFIG, data), KernelError,
     "monomial", [{"num": 1, "denpow": 0}, {"num": 0, "denpow": 0}], {
         "missing-key": ([0, "denpow"], DELETE),
         "string-int": ([0, "num"], "1"),
         "float-int": ([0, "num"], 1.9),
         "true-int": ([0, "num"], True),
         "string-document": ([0], json.dumps({"num": 1, "denpow": 0})),
     }),
    # the polydisc form of the same reader, chosen by its key "kind"
    ("perfectoid.adicdisc.adic_point_from_json polydisc",
     adic_point_from_json, KernelError,
     "adic point", {"kind": "classical", "coords": [DOCS["u.json"]]}, {
         "missing-key": (["coords"], DELETE),
         "string-int": (["coords", 0, "p"], "3"),
         "float-int": (["coords", 0, "p"], 3.9),
         "true-int": (["coords", 0, "terms", 1, "digit"], True),
         "string-document": (["coords", 0], _text(DOCS["u.json"])),
     }),
    ("perfectoid.adicdisc.adic_point_from_json", adic_point_from_json,
     KernelError, "adic point",
     {"type": "disc",
      "center": UntiltElement.zero(CONFIG).to_json(),
      "radius_exp": {"num": 1, "den": 2}}, {
         "missing-key": (["center"], DELETE),
         "missing-radius": (["radius_exp"], DELETE),
         "string-int": (["radius_exp", "num"], "1"),
         "float-int": (["radius_exp", "num"], 1.9),
         "zero-radius-denominator": (["radius_exp", "den"], 0),
         "float-gauss-prec": ([], {"type": "gauss", "p": 3, "prec": 4.9,
                                   "dencap": 4}),
         "string-gauss-prec": ([], {"type": "gauss", "p": 3, "prec": "4",
                                    "dencap": 4}),
         "true-int": (["radius_exp", "num"], True),
         "true-gauss-prec": ([], {"type": "gauss", "p": 3, "prec": True,
                                  "dencap": 4}),
         "string-document": (["center"],
                             UntiltElement.zero(CONFIG).dumps()),
     }),
    ("perfectoid.adicdisc.RationalSubset.from_json",
     RationalSubset.from_json, KernelError, "rational subset",
     DOCS["subset-t.json"], {
         "missing-key": (["denominator"], DELETE),
         "string-int": (["numerators", 0, 0, "p"], "3"),
         "float-int": (["numerators", 0, 0, "p"], 3.9),
         "true-int": (["numerators", 1, 0, "terms", 0, "digit"], True),
         "string-document": (["denominator"],
                             _text(DOCS["subset-t.json"], "denominator")),
         "string-element": (["denominator", 0],
                            _text(DOCS["subset-t.json"], "denominator", 0)),
     }),
    ("perfectoid.toric.Fan.from_json", Fan.from_json, ConeError, "fan",
     DOCS["pn2.json"], {
         "missing-key": (["cones"], DELETE),
         "string-int": (["rank"], "2"),
         "float-int": (["rank"], 2.5),
         "float-ray": (["cones", 0, 0, 0], 1.0),
         "true-int": (["rank"], True),
         "string-document": (["cones", 0], _text(DOCS["pn2.json"], "cones",
                                                 0)),
     }),
    ("perfectoid.toric.TWeilDivisor.from_json",
     lambda data: TWeilDivisor.from_json(P2, data), ConeError, "divisor",
     DOCS["hyperplane.json"], {
         "missing-key": (["coefficients"], DELETE),
         "string-int": (["rays", 0, 0], "1"),
         "float-int": (["rays", 0, 0], 1.5),
         "infinite-coefficient": (["coefficients", 0], float("inf")),
         "zero-denominator-coefficient": (["coefficients", 0], "1/0"),
         "true-coefficient": (["coefficients", 0], True),
         "float-coefficient": (["coefficients", 0], 0.5),
         "true-int": (["rays", 0, 0], True),
         "string-document": (["rays", 0], "[-1, -1]"),
     }),
]

# An empty array is a valid monomial: the one of no variables.
VALID = {("perfectoid.tatealg.Monomial.from_json", "empty-array"),
         ("perfectoid.tatealg.Monomial.from_json", "empty-array-text")}


def _with_field(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _cases():
    for name, read, error, what, valid, fields in READERS:
        for case, doc in EVERY_READER:
            if (name, case) in VALID:
                continue
            yield pytest.param(read, error, what, doc, case,
                               id=f"{name}-{case}")
        for case, (path, value) in fields.items():
            yield pytest.param(read, error, what,
                               _with_field(valid, path, value), case,
                               id=f"{name}-{case}")


@pytest.mark.parametrize("name,read,valid",
                         [(r[0], r[1], r[4]) for r in READERS],
                         ids=[r[0] for r in READERS])
def test_each_reader_reads_its_valid_document(name, read, valid):
    # the table's documents are malformed only where a case makes them so
    assert read(valid).to_json() == read(json.dumps(valid)).to_json()


@pytest.mark.parametrize("read,error,what,doc,case", _cases())
def test_a_malformed_document_is_refused_typed(read, error, what, doc,
                                               case):
    with pytest.raises(error) as refused:
        read(doc)
    if case in ("not-json", "deep-nesting"):
        assert str(refused.value).startswith(f"malformed {what} JSON: ")


def _public_readers():
    """Qualified names of every ``from_json`` class method and
    ``*_from_json`` function in a module's ``__all__``."""
    found = set()
    for info in pkgutil.iter_modules(perfectoid.__path__):
        module = importlib.import_module(f"perfectoid.{info.name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and attr.endswith("_from_json"):
                found.add(f"{module.__name__}.{attr}")
            if inspect.isclass(obj) and "from_json" in vars(obj):
                found.add(f"{module.__name__}.{attr}.from_json")
    return found


def test_every_public_reader_is_in_the_table():
    assert _public_readers() == {r[0].split()[0] for r in READERS}
