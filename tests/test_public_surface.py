"""Every module declares its public surface, and src carries no public
code that only the tests use.

A module's ``__all__`` lists the names another module, the command line,
the battery, the README or the benchmark uses, plus the operations its
own public functions are built on.  Three rules follow, read from the
source: every ``__all__`` name resolves; every public top-level name is
in ``__all__`` or used in src outside its own definition (or held in one
of the module's private tables, as ``cli._COMMANDS`` and
``suite._CHECKS`` hold the commands and checks); and every ``__all__``
name is used somewhere besides the tests.  A fourth holds for src and
tests alike: no module imports a name it never uses.  A fifth keeps the
one argument rule: only ``arith._is_int`` tests ``isinstance(x, int)``,
and only the functions on a written list convert a parameter with a
one-argument ``Fraction()`` or ``int()``.  A sixth is the import layout:
importing ``adicdisc`` loads neither ``tatealg`` nor ``tiltkit``, and
importing ``tatealg`` neither ``adicdisc`` nor ``polyroots``.  A seventh
keeps late imports for that layout: a function imports from a package
module only when its own module does not import from it at the top.  An
eighth keeps an element's stored form inside arith: outside it, only
tiltkit's conversion between an untilt element and a layer reads or
builds the layer coefficients, and every other module goes through
``_low()``, ``is_zero()``, the digit view ``_digits`` and ``_dot``.  A
ninth keeps one square-and-multiply loop: only ``arith._power`` tests an
exponent's low bit (``& 1``).
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "perfectoid"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
TREES = {name: ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
         for name in MODULES}
OUTSIDE_SRC = "\n".join(
    [(ROOT / "README.md").read_text(encoding="utf-8")]
    + [path.read_text(encoding="utf-8")
       for path in sorted((ROOT / "perfbench").rglob("*.py"))])

# __all__ names that only the tests use, with the reason each stays
TEST_ONLY = {
    ("fixtures", "fixture_parsers"): "the fixtures module exists to "
    "generate the bundled fixtures and to verify them against it",
    ("fixtures", "is_rejection_fixture"): "as fixture_parsers",
}


def _module(name):
    return importlib.import_module(
        "perfectoid" if name == "__init__" else f"perfectoid.{name}")


def _definitions(tree):
    """The top-level statements of tree that bind a name, by name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
    return found


def _references(node):
    """The names the code under node reads or imports, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


# an import counts: the package's own re-export is a use
REFERENCES = Counter(name for tree in TREES.values()
                     for name in _references(tree))


def _used_in_src(name, definition):
    """Whether src uses name outside the statement defining it."""
    inside = Counter(_references(definition)) if definition else Counter()
    return REFERENCES[name] > inside[name]


def _registered(module):
    """The objects held in the module's private top-level tables."""
    held = set()
    for attr, value in vars(module).items():
        if attr.startswith("_") and isinstance(value, (list, tuple)):
            for entry in value:
                for obj in entry if isinstance(entry, tuple) else (entry,):
                    held.add(id(obj))
    return held


@pytest.mark.parametrize("name", MODULES)
def test_every_module_declares_names_that_resolve(name):
    module = _module(name)
    assert isinstance(getattr(module, "__all__", None), list)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_is_declared_or_used_in_src(name):
    module = _module(name)
    registered = _registered(module)
    stray = [attr for attr, node in _definitions(TREES[name]).items()
             if not attr.startswith("_") and attr not in module.__all__
             and not _used_in_src(attr, node)
             and id(getattr(module, attr)) not in registered]
    assert stray == []


@pytest.mark.parametrize("name", MODULES)
def test_no_declared_name_is_used_only_by_the_tests(name):
    module = _module(name)
    definitions = _definitions(TREES[name])
    test_only = [
        attr for attr in module.__all__
        if not attr.startswith("_") and (name, attr) not in TEST_ONLY
        and not _used_in_src(attr, definitions.get(attr))
        and not re.search(rf"\b{attr}\b", OUTSIDE_SRC)]
    assert test_only == []


def test_the_written_exceptions_are_still_needed():
    for name, attr in TEST_ONLY:
        definitions = _definitions(TREES[name])
        assert attr in _module(name).__all__
        assert not _used_in_src(attr, definitions[attr])
        assert not re.search(rf"\b{attr}\b", OUTSIDE_SRC)


# every module of src and of the tests, as its path under the repo
SOURCES = sorted(path.relative_to(ROOT).as_posix() for path in
                 [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree):
    """The names the imports anywhere in tree bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    """The names tree reads, with those in ``__all__`` and in quoted
    annotations."""
    used = set()
    for node in ast.walk(tree):
        annotation = None
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(name.id for name in ast.walk(
                    ast.parse(sub.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return used


@pytest.mark.parametrize("path", SOURCES)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    assert sorted(set(_imported(tree)) - _used(tree)) == []


def test_a_name_in_a_quoted_annotation_counts_as_used():
    tree = ast.parse("from typing import Mapping\n"
                     "def f(x: 'Mapping[str, int]') -> None: pass\n")
    assert set(_imported(tree)) <= _used(tree)
    assert list(_imported(ast.parse("import a.b"))) == ["a"]


# =====================================================================
# One argument rule: arith's two numeric entries decide what a number is
# =====================================================================

# The one test of "is an int": every other check calls it, or
# arith._integer, which calls it.
INT_TEST = "arith._is_int"
# The functions that may convert a parameter with a one-argument
# Fraction() or int(), with the reason each may.
CONVERTERS = {
    "arith._fraction": "the one numeric entry for a rational argument",
    "arith._read_int": "reads the digits the text form's pattern matched",
    "cli._fraction": "reads a command-line option, which is text",
    "arith.ValExp.as_fraction": "drops the subclass of a value that is a "
    "Fraction already",
}


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, f"{name}.")
        else:
            yield from _functions(child, prefix)


def _numeric_checks(module, tree):
    """{(function, line, what)} for each ``isinstance(x, int)`` and each
    one-argument ``Fraction(x)`` or ``int(x)`` of a parameter x."""
    found = set()
    for name, func in _functions(tree):
        params = {arg.arg for arg in ast.walk(func.args)
                  if isinstance(arg, ast.arg)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)):
                continue
            args, callee = node.args, node.func.id
            if callee == "isinstance" and len(args) == 2:
                kinds = (args[1].elts if isinstance(args[1], ast.Tuple)
                         else [args[1]])
                if any(getattr(k, "id", None) == "int" for k in kinds):
                    found.add((f"{module}.{name}", node.lineno,
                               "isinstance"))
            elif (callee in ("Fraction", "int") and len(args) == 1
                  and not node.keywords and isinstance(args[0], ast.Name)
                  and args[0].id in params):
                found.add((f"{module}.{name}", node.lineno, callee))
    return found


NUMERIC_CHECKS = set().union(*(_numeric_checks(module, tree)
                               for module, tree in TREES.items()))


def test_only_the_numeric_entries_decide_what_a_number_is():
    stray = sorted(check for check in NUMERIC_CHECKS
                   if not (check[0] == INT_TEST if check[2] == "isinstance"
                           else check[0] in CONVERTERS))
    assert stray == []


def test_the_numeric_exemptions_are_still_needed():
    used = {name for name, _, _ in NUMERIC_CHECKS}
    assert {INT_TEST, *CONVERTERS} <= used


def test_the_numeric_guard_sees_each_shape():
    tree = ast.parse("class A:\n"
                     "    def f(self, x, y):\n"
                     "        isinstance(x, (str, int))\n"
                     "        def g():\n"
                     "            return Fraction(x) + int(y)\n"
                     "        return Fraction(x, 2) + int(x > 1) + g()\n")
    assert _numeric_checks("m", tree) == {
        ("m.A.f", 3, "isinstance"), ("m.A.f", 5, "Fraction"),
        ("m.A.f", 5, "int")}


# =====================================================================
# Import layout: the point code and the evaluation code load apart
# =====================================================================

# module -> the package modules importing it must not load.  adicdisc
# reaches tiltkit, and tatealg reaches adicdisc (and through it
# polyroots), only inside the functions that need them, so a process
# that runs one side does not pay for the other.
LOADS_APART = {
    "adicdisc": {"tatealg", "tiltkit"},
    "tatealg": {"adicdisc", "polyroots"},
}


@pytest.mark.parametrize("name", sorted(LOADS_APART))
def test_a_module_loads_without_what_it_imports_late(name):
    # -S keeps site, and the .pth files it runs, from importing modules
    probe = (f"import sys, perfectoid.{name}\n"
             f"print(sorted(m.partition('.')[2] for m in sys.modules\n"
             f"             if m.startswith('perfectoid.')))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert name in loaded
    assert loaded & LOADS_APART[name] == set()


# =====================================================================
# Late imports: only from a module not imported at the top
# =====================================================================

def _package_sources(node):
    """The package modules an ImportFrom node imports from: ``.m`` for
    ``from .m import x``, each m for ``from . import m``."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    return [node.module] if node.module else [a.name for a in node.names]


def _needless_late_imports(tree):
    """(module, line) of each import below the top level of tree from a
    package module its top level imports from already."""
    early = {m for node in tree.body for m in _package_sources(node)}
    top = {id(node) for node in tree.body}
    return sorted((m, node.lineno) for node in ast.walk(tree)
                  if id(node) not in top
                  for m in _package_sources(node) if m in early)


@pytest.mark.parametrize("name", MODULES)
def test_a_function_imports_late_only_what_its_module_does_not(name):
    assert _needless_late_imports(TREES[name]) == []


def test_the_late_import_guard_sees_each_shape():
    tree = ast.parse("from .a import x\n"
                     "from . import b\n"
                     "def f():\n"
                     "    from .a import y\n"
                     "    from .c import z\n"
                     "class K:\n"
                     "    def g(self):\n"
                     "        from . import b\n")
    assert _needless_late_imports(tree) == [("a", 4), ("b", 8)]


# =====================================================================
# Stored form: an untilt element's layer coefficients stay in arith
# =====================================================================

# The attributes that read or build an element's stored form: the slot
# and its untilt name, and the form's own reduction and product.  An
# untilt element's ``_canonical`` takes a form too.
STORAGE = {"_store", "_coeffs", "_reduce", "_mul_into"}
# The functions outside arith that may use them, with the reason each may.
STORAGE_USERS = {
    "tiltkit.untilt_power_pn": "reads an element's coefficients as the "
    "layer it powers",
    "tiltkit._layer_to_element": "builds an element from a layer's "
    "coefficients",
}


def _storage_uses(module, tree):
    """{(function, line)} for each use of ``STORAGE`` or of
    ``UntiltElement._canonical`` in a function of the tree."""
    found = set()
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and (
                    node.attr in STORAGE
                    or (node.attr == "_canonical"
                        and getattr(node.value, "id", None)
                        == "UntiltElement")):
                found.add((f"{module}.{name}", node.lineno))
    return found


STORAGE_USES = set().union(*(_storage_uses(module, tree)
                             for module, tree in TREES.items()
                             if module != "arith"))


def test_only_arith_and_the_layer_conversion_touch_the_stored_form():
    assert sorted(use for use in STORAGE_USES
                  if use[0] not in STORAGE_USERS) == []


def test_the_storage_exemptions_are_still_needed():
    assert set(STORAGE_USERS) <= {name for name, _ in STORAGE_USES}


def test_the_storage_guard_sees_each_shape():
    tree = ast.parse("def f(x):\n"
                     "    def g():\n"
                     "        return x._coeffs\n"
                     "    return UntiltElement._canonical(x.config, {}, 0)\n"
                     "def h(x):\n"
                     "    return TiltElement._canonical(x._digits, x._k)\n")
    assert _storage_uses("m", tree) == {("m.f", 3), ("m.f.g", 3),
                                        ("m.f", 4)}


# =====================================================================
# One power loop: only arith._power tests an exponent's low bit
# =====================================================================

POWER_LOOP = "arith._power"


def _low_bit_tests(module, tree):
    """{(function, line)} for each ``x & 1`` in a function of the tree."""
    found = set()
    for name, func in _functions(tree):
        for node in ast.walk(func):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.BitAnd)
                    and any(isinstance(side, ast.Constant)
                            and side.value == 1
                            for side in (node.left, node.right))):
                found.add((f"{module}.{name}", node.lineno))
    return found


LOW_BIT_TESTS = set().union(*(_low_bit_tests(module, tree)
                              for module, tree in TREES.items()))


def test_only_the_power_loop_tests_an_exponents_low_bit():
    assert {name for name, _ in LOW_BIT_TESTS} == {POWER_LOOP}


def test_the_low_bit_guard_sees_each_shape():
    tree = ast.parse("def f(n):\n"
                     "    def g(e):\n"
                     "        return 1 & e\n"
                     "    return n & 1 or n & 2 or n | 1\n")
    assert _low_bit_tests("m", tree) == {("m.f", 3), ("m.f", 4),
                                         ("m.f.g", 3)}
