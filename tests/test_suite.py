"""Battery runner mechanics; the checks themselves run in the
acceptance module."""

import hashlib
import random
from fractions import Fraction

import pytest

import perfectoid.suite as suite
from perfectoid.adicdisc import Rank2Value, eval_at
from perfectoid.arith import FieldConfig, KernelError, TiltElement, UntiltElement
from perfectoid.suite import check_names, run_all, run_check
from perfectoid.tiltkit import sharp


def test_check_names_are_stable():
    assert check_names() == [
        "ring-axioms", "sharp-map", "witt-theta", "newton-transfer",
        "mixed-roots", "approximation", "adic-disc", "toric"]


def test_unknown_check_name_raises():
    with pytest.raises(KernelError, match="unknown check"):
        run_check("no-such-check")


def test_run_check_reports_a_failure(monkeypatch):
    def exploding(seed):
        raise AssertionError("synthetic violation")

    monkeypatch.setattr(suite, "_CHECKS", (("boom", exploding),))
    result = run_check("boom")
    assert result.passed is False
    assert result.detail == "synthetic violation"
    assert result.elapsed >= 0


def test_run_all_respects_name_subset(monkeypatch):
    calls = []

    def recording(seed):
        calls.append(seed)
        return "ok"

    monkeypatch.setattr(suite, "_CHECKS",
                        (("a", recording), ("b", recording)))
    results = run_all(seed=7, names=["b"])
    assert [r.name for r in results] == ["b"]
    assert calls == [7]


# =====================================================================
# Inputs drawn on the lattice, against the Fraction-keyed draws
# =====================================================================

def _fraction_keyed_element(rng, config, cls, max_terms=4, max_denpow=0):
    # the reference draw: Fraction exponents through the constructor
    digits = {}
    for _ in range(rng.randrange(max_terms + 1)):
        denpow = rng.randrange(max_denpow + 1)
        scale = config.p ** denpow
        digits[Fraction(rng.randrange(0, config.prec * scale), scale)] = (
            rng.randrange(1, config.p))
    return cls(config, digits)


def _fraction_keyed_disc_poly(rng, config):
    def element():
        digits = {}
        for _ in range(rng.randrange(3)):
            digits[Fraction(rng.randrange(0, config.prec))] = (
                rng.randrange(1, config.p))
        return UntiltElement(config, digits)

    degree = rng.randrange(1, 3)
    coeffs = [element() for _ in range(degree)]
    coeffs.append(UntiltElement(config, {
        Fraction(rng.randrange(0, 2)): rng.randrange(1, config.p)}))
    return coeffs


# (config, max_terms, max_denpow) of every _random_element call the
# battery makes: ring-axioms, sharp-map, witt-theta, newton-transfer
_BATTERY_DRAWS = [(FieldConfig(p, 8, 2), 4, 2) for p in (2, 3, 5)] + [
    (FieldConfig(3, 9, 8), 3, 1), (FieldConfig(2, 8, 6), 2, 0),
    (FieldConfig(3, 9, 6), 2, 0), (FieldConfig(3, 4, 4), 2, 0)]


def _same_element(x, y):
    assert x == y
    assert list(x._digits) == list(y._digits)


@pytest.mark.parametrize("cls", [UntiltElement, TiltElement],
                         ids=lambda cls: cls.kind)
@pytest.mark.parametrize("draw", _BATTERY_DRAWS,
                         ids=lambda d: f"{d[0].p}-{d[0].prec}-{d[0].dencap}")
def test_lattice_drawn_elements_match_fraction_keyed_draws(draw, cls):
    config, max_terms, max_denpow = draw
    for seed in range(100):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(30):
            _same_element(
                suite._random_element(rng, config, cls, max_terms,
                                      max_denpow),
                _fraction_keyed_element(reference, config, cls, max_terms,
                                        max_denpow))
            assert rng.getstate() == reference.getstate()


def test_lattice_drawn_disc_polynomials_match_fraction_keyed_draws():
    config = FieldConfig(3, 4, 3)
    for seed in range(100):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(30):
            poly = suite._disc_poly(rng, config)
            coeffs = _fraction_keyed_disc_poly(reference, config)
            assert len(poly.coeffs) == len(coeffs)
            for x, y in zip(poly.coeffs, coeffs):
                _same_element(x, y)
            assert rng.getstate() == reference.getstate()


def test_battery_inputs_are_pinned(monkeypatch):
    """The values ring-axioms, sharp-map, witt-theta and adic-disc draw
    at seed 1, each as its dumps() (a polynomial as its coefficients'),
    digested; the digest was taken before the checks were rewritten to
    reuse their sums and products, so a rewrite that changed what is
    drawn, or in which order, fails here."""
    seen = []

    def recording(inner):
        def draw(*args, **kwargs):
            seen.append(inner(*args, **kwargs))
            return seen[-1]
        return draw

    for name in ("_random_element", "_disc_element", "_disc_poly"):
        monkeypatch.setattr(suite, name, recording(getattr(suite, name)))
    digest = hashlib.sha256()
    counts = []
    for check in ("ring-axioms", "sharp-map", "witt-theta", "adic-disc"):
        seen.clear()
        assert run_check(check, seed=1).passed
        counts.append(len(seen))
        for value in seen:
            line = " ".join(c.dumps() for c in getattr(value, "coeffs",
                                                       (value,)))
            digest.update(f"{check} {line}\n".encode())
    assert counts == [9000, 2277, 1200, 3443]
    assert digest.hexdigest() == (
        "43e0a1fe295aa268176577368c5fce353894a623fdc9c338bb7cc3644fe09ff8")


# =====================================================================
# Failure text, built only on failure
# =====================================================================

def test_sharp_failure_names_the_pair_it_broke_on(monkeypatch):
    seen = []

    def broken(x, target_prec):
        seen.append(x)
        value = sharp(x, target_prec)
        return value + 1 if target_prec == 3 else value

    monkeypatch.setattr(suite, "sharp", broken)
    result = run_check("sharp-map", seed=1)
    assert not result.passed
    assert result.detail.startswith("sharp is not multiplicative on <tilt ")
    assert result.detail == (f"sharp is not multiplicative on "
                             f"{seen[-2]!r}, {seen[-1]!r}")


@pytest.mark.parametrize("add,mul,axiom", [
    # each pair of operations breaks exactly one axiom first
    (lambda add, x, y: add(x, add(y, y)), None, "addition associativity"),
    (None, lambda mul, x, y: mul(x, y) + 1, "multiplication associativity"),
    (lambda add, x, y: add(add(x, y), 1), None, "distributivity"),
    (lambda add, x, y: x, None, "addition commutativity"),
    (None, lambda mul, x, y: y, "multiplication commutativity"),
])
def test_ring_axiom_failure_names_the_axiom(monkeypatch, add, mul, axiom):
    for name, broken in (("__add__", add), ("__mul__", mul)):
        if broken is not None:
            inner = getattr(UntiltElement, name)
            monkeypatch.setattr(UntiltElement, name,
                                lambda x, y, f=broken, g=inner: f(g, x, y))
    result = run_check("ring-axioms", seed=1)
    assert not result.passed
    assert result.detail == f"{axiom} broke at p=2"


def test_eval_failure_names_the_point_it_broke_at(monkeypatch):
    seen = []

    def broken(f, x):
        seen.append(x)
        value = eval_at(f, x)
        if isinstance(value, Rank2Value):
            return Rank2Value(value.q + 1, value.k, value.sign)
        return value + 1

    monkeypatch.setattr(suite, "eval_at", broken)
    result = run_check("adic-disc", seed=1)
    assert not result.passed
    assert result.detail.startswith("eval not multiplicative at <adic ")
    assert result.detail == f"eval not multiplicative at {seen[-1]!r}"
