"""Seeded acceptance battery exercising every kernel component.

Each check is a self-contained runner: it builds its own configs,
draws its randomness from a private ``random.Random(seed)``, and either
returns a one-line summary or raises with a description of the first
violation.  Runners are independent, so a caller may run any subset;
``run_all`` keeps the canonical order and timing.

The default seed is fixed so two runs of the battery see the same
inputs byte for byte.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, gcd

from .adicdisc import AdicPoint, Rank2Value, eval_at, specializes, tilt_point_check
from .arith import (
    FieldConfig,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
    _product_index,
    _Value,
)
from .polyroots import (
    Polynomial,
    fw_transfer,
    hensel_root,
    mixed_root_refine,
    newton_polygon,
    transfer_agreement,
)
from .tatealg import HomogeneousElement, approximate, verify_contract
from .tiltkit import WittVector, sharp, theta, witt_add, witt_mul
from .toric import (
    Cone,
    Fan,
    TWeilDivisor,
    dual_cone,
    hypersurface_transfer,
    is_complete,
    is_smooth,
    projective_fan,
    sections,
)

__all__ = [
    "DEFAULT_SEED", "CheckResult", "SuiteFailure", "check_names", "run_check",
    "run_all",
]

DEFAULT_SEED = 20260822


class CheckResult(_Value):
    """The outcome of one check: its name, whether it passed, its
    one-line summary or first violation, and its time in seconds."""

    __slots__ = ("name", "passed", "detail", "elapsed")

    def __init__(self, name: str, passed: bool, detail: str,
                 elapsed: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed", elapsed)

    def _key(self) -> tuple:
        return self.name, self.passed, self.detail, self.elapsed

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, passed={self.passed!r}, "
                f"detail={self.detail!r}, elapsed={self.elapsed!r})")


class SuiteFailure(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise SuiteFailure(message)


def _random_element(rng, config, cls, max_terms=4, max_denpow=0):
    # Each term draws denpow, then its digit, then the numerator of its
    # exponent num / p^denpow, keyed by the lattice index
    # num * p^(dencap - denpow); a later term at the same index replaces
    # the digit of an earlier one.
    p, digits = config.p, {}
    for _ in range(rng.randrange(max_terms + 1)):
        denpow = rng.randrange(max_denpow + 1)
        digit = rng.randrange(1, p)
        num = rng.randrange(config.prec * p ** denpow)
        digits[num * p ** (config.dencap - denpow)] = digit
    return cls._make(config, digits, config.full)


# =====================================================================
# Ring axioms
# =====================================================================

def check_ring_axioms(seed: int) -> str:
    rng = random.Random(seed)
    triples = 0
    for p in (2, 3, 5):
        config = FieldConfig(p, 8, 2)
        for cls in (UntiltElement, TiltElement):
            for _ in range(500):
                a = _random_element(rng, config, cls, max_denpow=2)
                b = _random_element(rng, config, cls, max_denpow=2)
                c = _random_element(rng, config, cls, max_denpow=2)
                # each sum and product is formed once and read by every
                # axiom that needs it: 13 ring operations a triple
                sum_ab, sum_bc = a + b, b + c
                if sum_ab + c != a + sum_bc:
                    raise SuiteFailure(
                        f"addition associativity broke at p={p}")
                prod_ab, prod_bc = a * b, b * c
                if prod_ab * c != a * prod_bc:
                    raise SuiteFailure(
                        f"multiplication associativity broke at p={p}")
                if a * sum_bc != prod_ab + a * c:
                    raise SuiteFailure(f"distributivity broke at p={p}")
                if sum_ab != b + a:
                    raise SuiteFailure(
                        f"addition commutativity broke at p={p}")
                if prod_ab != b * a:
                    raise SuiteFailure(
                        f"multiplication commutativity broke at p={p}")
                triples += 1
    return f"{triples} random triples, both ring kinds, p in {{2, 3, 5}}"


# =====================================================================
# The sharp map
# =====================================================================

def check_sharp_map(seed: int) -> str:
    rng = random.Random(seed)
    config = FieldConfig(3, 9, 8)
    t = TiltElement.uniformizer(config)
    w = UntiltElement.uniformizer(config)
    _require(sharp(t, 8) == w.with_precision(8),
             "sharp of the tilt uniformizer is not p modulo p^8")

    for _ in range(500):
        x = _random_element(rng, config, TiltElement, 3, 1)
        y = _random_element(rng, config, TiltElement, 3, 1)
        lhs = sharp(x * y, 3)
        rhs = (sharp(x, 3) * sharp(y, 3)).with_precision(3)
        if lhs != rhs:
            raise SuiteFailure(f"sharp is not multiplicative on {x!r}, {y!r}")

    kept = 0
    while kept < 500:
        x = _random_element(rng, config, TiltElement, 3, 1)
        if x.is_zero() or x._low() >= 3 * config.scale:
            continue
        if sharp(x, 3)._low() != x._low():
            raise SuiteFailure(f"sharp changed the valuation of {x!r}")
        kept += 1

    added = (sharp(t, 3) + sharp(t, 3)).with_precision(3)
    mixed = sharp(t + t, 3)
    _require(mixed != added, "expected a non-additivity witness at t + t")
    return (f"uniformizer depth 8 exact; 500 products, 500 valuations; "
            f"witness sharp(t+t) = {mixed.to_text()} but "
            f"sharp(t)+sharp(t) = {added.to_text()}")


# =====================================================================
# Witt vectors and theta
# =====================================================================

def check_witt_theta(seed: int) -> str:
    pairs = 0
    for p, prec in ((2, 8), (3, 9)):
        config = FieldConfig(p, prec, 6)
        rng = random.Random(seed)
        for _ in range(100):
            a = WittVector(config, [
                _random_element(rng, config, TiltElement, 2) for _ in range(3)])
            b = WittVector(config, [
                _random_element(rng, config, TiltElement, 2) for _ in range(3)])
            ta, tb = theta(a), theta(b)
            lhs = theta(witt_add(a, b)).with_precision(3)
            rhs = (ta + tb).with_precision(3)
            _require(lhs == rhs, f"theta broke addition at p={p}")
            lhs = theta(witt_mul(a, b)).with_precision(3)
            rhs = (ta * tb).with_precision(3)
            _require(lhs == rhs, f"theta broke multiplication at p={p}")
            pairs += 1
        lift = WittVector.teichmuller(TiltElement.uniformizer(config), 3)
        _require(theta(lift) == UntiltElement.uniformizer(config)
                 .with_precision(3),
                 f"theta of the Teichmuller lift of t is not p at p={p}")
    return f"{pairs} pairs, length 3, p in {{2, 3}}, compared modulo p^3"


# =====================================================================
# Newton polygons and coefficient transfer
# =====================================================================

def check_newton_transfer(seed: int) -> str:
    rng = random.Random(seed)
    small = FieldConfig(3, 4, 4)
    for _ in range(100):
        degree = rng.randrange(1, 5)
        coeffs = [_random_element(rng, small, TiltElement, 2)
                  for _ in range(degree)]
        coeffs.append(TiltElement.one(small))
        P = Polynomial(coeffs)
        if (newton_polygon(fw_transfer(P, 0)).slopes()
                != newton_polygon(P).slopes()):
            raise SuiteFailure(f"transfer moved the polygon of {P!r}")

    deep = FieldConfig(3, 8, 10)
    t = TiltElement.uniformizer(deep)
    zt = TiltElement.zero(deep)
    P = Polynomial([zt - t, zt, TiltElement.one(deep)])
    w = UntiltElement.uniformizer(deep)
    zu = UntiltElement.zero(deep)
    expected = Polynomial([zu - w, zu, UntiltElement.one(deep)])
    _require(fw_transfer(P, 0) == expected,
             "X^2 - t did not transfer to X^2 - p")

    P = Polynomial([zt - (t + t * t), zt, TiltElement.one(deep)])
    levels = [transfer_agreement(P, n) for n in range(4)]
    _require(all(a <= b for a, b in zip(levels, levels[1:])),
             f"stage agreement {levels} is not nondecreasing")
    return (f"100 polygons preserved; X^2-t exact; stage agreement "
            f"{[str(v) for v in levels]}")


# =====================================================================
# Mixed-characteristic roots
# =====================================================================

def check_mixed_roots(seed: int) -> str:
    outcomes = []
    for p, degree, rhs in ((2, 2, None), (3, 3, None), (3, 2, 4)):
        config = FieldConfig(p, 6, 3)
        zu = UntiltElement.zero(config)
        if rhs is None:
            a0 = zu - UntiltElement.uniformizer(config)
        else:
            a0 = zu - UntiltElement.from_int(config, rhs)
        P = Polynomial([a0] + [zu] * (degree - 1)
                       + [UntiltElement.one(config)])
        root = mixed_root_refine(P)
        residual = P(root)
        _require(residual.is_zero() or residual._low() >= 6 * config.scale,
                 f"residual of degree-{degree} root at p={p} is shallow")
        if rhs is not None:
            # the two square roots of 1 + p reduce to 2 and -2
            digit = root.digit_at(Fraction(0))
            _require(digit in (1, 2),
                     f"root of X^2 - (1+p) has residue {digit}")
            oracle = hensel_root(P, UntiltElement.from_int(config, digit))
            _require(oracle == root,
                     "digitwise refinement disagrees with Hensel lifting")
        outcomes.append(f"p={p} deg {degree}: {root.to_text()}")
    return "; ".join(outcomes)


# =====================================================================
# The approximation contract
# =====================================================================

def _contract_sample(config, nvars):
    w = UntiltElement.uniformizer(config)
    values = [UntiltElement.zero(config), UntiltElement.one(config),
              UntiltElement.monomial(config, 1, Fraction(1, config.p)),
              w, UntiltElement.one(config) + w]
    combos = islice(product(values, repeat=nvars), 49)
    return ([AdicPoint.classical(*combo) for combo in combos]
            + [AdicPoint.gauss(config, nvars)])


def check_approximation(seed: int) -> str:
    config = FieldConfig(3, 4, 5)
    w = UntiltElement.uniformizer(config)

    def var(j, n):
        return HomogeneousElement.variable(config, "untilt", n, j)

    shapes = [
        var(0, 2) + var(1, 2).scalar_mul(w),
        var(0, 3) + var(1, 3).scalar_mul(w) + var(2, 3).scalar_mul(w * w),
        var(0, 3) + var(1, 3) + var(2, 3),
    ]
    rows = 0
    for f in shapes:
        sample = _contract_sample(config, f.nvars)
        for c, eps in ((1, Fraction(1, 3)), (2, Fraction(1, 3))):
            g = approximate(f, c, eps)
            report = verify_contract(f, g, c, eps, sample)
            _require(report.passed,
                     f"contract failed for {f!r} at c={c}: "
                     f"{report.failures()[:1]}")
            rows += len(report.rows)
    return f"6 element/depth combinations, {rows} point comparisons, all exact"


# =====================================================================
# The adic disc
# =====================================================================

_DISC_RADII = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2),
               Fraction(1, 3))


def _disc_element(rng, config):
    # integer exponents, drawn as in _random_element: digit, then exponent
    digits = {}
    for _ in range(rng.randrange(3)):
        digit = rng.randrange(1, config.p)
        digits[rng.randrange(config.prec) * config.scale] = digit
    return UntiltElement._make(config, digits, config.full)


def _disc_poly(rng, config):
    degree = rng.randrange(1, 3)
    coeffs = [_disc_element(rng, config) for _ in range(degree)]
    # keep the leading valuation shallow so products stay visible
    exponent = rng.randrange(2)
    coeffs.append(UntiltElement._make(
        config, {exponent * config.scale: rng.randrange(1, config.p)},
        config.full))
    return Polynomial(coeffs)


def _disc_point(rng, config):
    kind = rng.choice(("classical", "disc", "halo", "halo", "gauss"))
    center = _disc_element(rng, config)
    if kind == "classical":
        return AdicPoint.classical(center)
    if kind == "gauss":
        return AdicPoint.gauss(config)
    q = rng.choice(_DISC_RADII)
    if kind == "disc":
        return AdicPoint.disc(center, q)
    sign = rng.choice(("<", ">"))
    if sign == ">" and q == 0:
        sign = "<"
    return AdicPoint.halo(center, q, sign)


def _poly_mul(f, g, config):
    # coefficient n is sum a_i * b_(n-i): one accumulation and one
    # normalization, at the least precision among its products
    out = []
    for n in range(f.degree + g.degree + 1):
        pairs = [(a, g.coeffs[n - i]) for i, a in enumerate(f.coeffs)
                 if 0 <= n - i <= g.degree]
        k = min(_product_index(a, b) for a, b in pairs)
        out.append(UntiltElement._dot(config, pairs, k))
    return Polynomial.trimmed(out)


def _poly_add(f, g, config):
    out = [UntiltElement.zero(config)] * (max(f.degree, g.degree) + 1)
    for i, a in enumerate(f.coeffs):
        out[i] = out[i] + a
    for j, b in enumerate(g.coeffs):
        out[j] = out[j] + b
    return out


def _value_key(v):
    return v.sort_key() if isinstance(v, Rank2Value) else (v,)


def check_adic_disc(seed: int) -> str:
    config = FieldConfig(3, 4, 3)
    rng = random.Random(seed)
    done = 0
    attempts = 0
    seen_types = set()
    while done < 500:
        attempts += 1
        _require(attempts < 20000, "too many indeterminate draws")
        f = _disc_poly(rng, config)
        g = _disc_poly(rng, config)
        x = _disc_point(rng, config)
        try:
            vf = eval_at(f, x)
            vg = eval_at(g, x)
            vprod = eval_at(_poly_mul(f, g, config), x)
            product = vf * vg if isinstance(vf, Rank2Value) else vf + vg
            if vprod != product:
                raise SuiteFailure(f"eval not multiplicative at {x!r}")
            total = _poly_add(f, g, config)
            if not all(c.is_zero() for c in total):
                vs = eval_at(Polynomial.trimmed(total), x)
                if not _value_key(vs) >= min(_value_key(vf), _value_key(vg)):
                    raise SuiteFailure(f"ultrametric bound failed at {x!r}")
        except IndeterminateError:
            continue
        seen_types.add(x.classify())
        done += 1
    _require(seen_types == {1, 2, 3, 5},
             f"sample missed point types: {seen_types}")

    gauss = AdicPoint.gauss(config)
    w = UntiltElement.uniformizer(config)
    units = [UntiltElement.zero(config), UntiltElement.one(config),
             UntiltElement.from_int(config, 2)]
    centers = [u + s for s in (UntiltElement.zero(config), w, w * w)
               for u in units]
    centers.append(UntiltElement.one(config) + w + w * w)
    halos = [AdicPoint.halo(center, 0, "<") for center in centers[:10]]
    for h in halos:
        _require(h.classify() == 5, f"{h!r} is not an infinitesimal point")
        _require(specializes(gauss, h),
                 f"the Gauss point does not specialize to {h!r}")

    t = TiltElement.uniformizer(config)
    shapes = [
        Polynomial([TiltElement.zero(config), TiltElement.one(config)]),
        Polynomial([t, TiltElement.one(config)]),
        Polynomial([t ** 3, t]),
        Polynomial([t, TiltElement.zero(config), TiltElement.one(config)]),
    ]
    preimage = TiltElement.one(config) + t
    points = [
        AdicPoint.gauss(config),
        AdicPoint.classical(UntiltElement.zero(config)),
        AdicPoint.classical(UntiltElement.one(config)),
        AdicPoint.classical(w),
        AdicPoint.classical(w * w),
        AdicPoint.classical(sharp(preimage, config.prec), tilts=[preimage]),
    ]
    checked = 0
    for fb in shapes:
        for x in points:
            if checked == 20:
                break
            if fb.degree == 1 and fb.coeffs[0].is_zero() \
                    and x.kind == "classical" and x.center.is_zero():
                # T vanishes there; the comparison has no exponent to read
                continue
            report = tilt_point_check(fb, x)
            _require(report["match"],
                     f"tilt and untilt exponents differ for {fb!r} at {x!r}")
            checked += 1
    _require(checked == 20, f"expected 20 point checks, ran {checked}")
    return (f"500 evaluation triples ({attempts} draws), 10 Gauss "
            f"specializations, 20 matched tilt readings")


# =====================================================================
# Toric sections and transfer
# =====================================================================

def check_toric(seed: int) -> str:
    for n in range(1, 4):
        fan = projective_fan(n)
        anchor = tuple([-1] * n)
        divisor = TWeilDivisor(fan, {ray: (1 if ray == anchor else 0)
                                     for ray in fan.rays})
        for d in range(6):
            count = len(sections(fan, divisor.scaled(d)))
            _require(count == comb(n + d, n),
                     f"sections of degree {d} on dimension {n}: {count}")

    plane = projective_fan(2)
    hyperplane = TWeilDivisor(plane, {(-1, -1): 1, (0, 1): 0, (1, 0): 0})
    third = sections(plane, hyperplane.scaled(Fraction(1, 3)),
                     dencap=1, p=3)
    _require(len(third) == 3, f"fractional sections: {third}")
    _require(is_smooth(plane) and is_complete(plane),
             "the projective plane fan must be smooth and complete")
    folded = Fan(2, [Cone(2, [(1, 0), (1, 2)])])
    _require(not is_smooth(folded), "the index-2 cone is not smooth")

    primitives = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
                  if (a, b) != (0, 0) and gcd(abs(a), abs(b)) == 1]
    cones = [()] + [(v,) for v in primitives]
    cones += list(combinations(primitives, 2))
    for gens in cones:
        cone = Cone(2, list(gens), pointed=False)
        _require(dual_cone(dual_cone(cone)) == cone,
                 f"dual involution failed on {gens}")

    config = FieldConfig(3, 4, 5)
    f = sum((HomogeneousElement.variable(config, "untilt", 3, j)
             for j in range(1, 3)),
            HomogeneousElement.variable(config, "untilt", 3, 0))
    result = hypersurface_transfer(plane, f, 1, Fraction(1, 3))
    _require(result.report.passed,
             f"transfer contract failed: {result.report.failures()[:1]}")
    return (f"section counts to degree 5 in dimensions 1-3; "
            f"{len(cones)} dual involutions; transfer contract holds")


# =====================================================================
# Runner
# =====================================================================

_CHECKS = (
    ("ring-axioms", check_ring_axioms),
    ("sharp-map", check_sharp_map),
    ("witt-theta", check_witt_theta),
    ("newton-transfer", check_newton_transfer),
    ("mixed-roots", check_mixed_roots),
    ("approximation", check_approximation),
    ("adic-disc", check_adic_disc),
    ("toric", check_toric),
)


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_check(name: str, seed: int = DEFAULT_SEED) -> CheckResult:
    table = dict(_CHECKS)
    if name not in table:
        raise KernelError(f"unknown check {name!r}; "
                          f"expected one of {', '.join(check_names())}")
    start = time.perf_counter()
    try:
        detail = table[name](seed)
        passed = True
    except (AssertionError, KernelError) as exc:
        detail = str(exc)
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(seed: int = DEFAULT_SEED, names=None) -> list[CheckResult]:
    if names is None:
        names = check_names()
    return [run_check(name, seed) for name in names]
