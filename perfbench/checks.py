"""Correctness checks for benchmark results.

Each check raises ``WrongResult`` when a result is wrong and returns
nothing otherwise.  Element comparisons are made modulo the smaller of
the two precision exponents, so a result is judged only on the digits
it claims to know.  The oracles here are written from the definitions,
not from the package's code paths.
"""

from __future__ import annotations

from fractions import Fraction

from common import WrongResult


def _require(cond, message):
    if not cond:
        raise WrongResult(message)


def _exp(e) -> Fraction:
    return e.as_fraction() if hasattr(e, "as_fraction") else Fraction(e)


def digit_map(x) -> dict:
    return {e.as_fraction(): c for e, c in x.digits.items()}


def agree(x, y, what: str, upto=None):
    """x == y modulo the smaller of their precision exponents (and of
    ``upto`` when given)."""
    _require(type(x) is type(y) and x.config == y.config,
             f"{what}: {x!r} and {y!r} are not comparable")
    k = min(x.precexp.as_fraction(), y.precexp.as_fraction())
    if upto is not None:
        k = min(k, Fraction(upto))
    dx = {e: c for e, c in digit_map(x).items() if e < k}
    dy = {e: c for e, c in digit_map(y).items() if e < k}
    _require(dx == dy, f"{what}: {x!r} != {y!r} modulo exponent {k}")


def oracle_digits(kind: str, p: int, acc: dict, bound: Fraction) -> dict:
    """Canonical digits of sum c * X^e below ``bound``, from scratch.

    On the untilt side a carry moves a unit from e to e + 1, so each
    class of exponents modulo 1 is one p-adic integer: its digits are
    those of V_r = sum_q c_{q + r} p^q, truncated (negative V_r wraps).
    On the tilt side every coefficient is reduced mod p in place.
    """
    out = {}
    if kind == "tilt":
        for e, c in acc.items():
            if e < bound and c % p:
                out[e] = c % p
        return out
    classes: dict[Fraction, int] = {}
    for e, c in acc.items():
        q = e.numerator // e.denominator
        r = e - q
        classes[r] = classes.get(r, 0) + c * p ** q
    for r, value in classes.items():
        places = 0
        while r + places < bound:
            places += 1
        value %= p ** places
        q = 0
        while value:
            value, d = divmod(value, p)
            if d:
                out[r + q] = d
            q += 1
    return out


def check_normalized(x, acc: dict, what: str = "construction"):
    bound = x.precexp.as_fraction()
    expected = oracle_digits(x.kind, x.config.p, acc, bound)
    _require(digit_map(x) == expected,
             f"{what}: digits {digit_map(x)} != expected {expected}")
    _require(all(0 < c < x.config.p for c in x.digits.values()),
             f"{what}: digit out of range in {x!r}")


def check_valuation(x, v):
    digits = digit_map(x)
    if not digits:
        _require(getattr(v, "as_fraction", None) is None,
                 f"valuation of {x!r} should be infinite, got {v!r}")
        return
    _require(_exp(v) == min(digits),
             f"valuation of {x!r} is {v!r}, expected {min(digits)}")


# The five identities of the ring-axiom check, as pairs of results.
AXIOM_PAIRS = {("(a+b)+c", "a+(b+c)"): "addition associativity",
               ("(ab)c", "a(bc)"): "multiplication associativity",
               ("a(b+c)", "ab+ac"): "distributivity",
               ("a+b", "b+a"): "addition commutativity",
               ("ab", "ba"): "multiplication commutativity"}


def check_ring_axioms(a, b, c, r, same):
    """r holds the sums and products computed from the triple, ``same``
    what ``==`` said of each pair in AXIOM_PAIRS."""
    for (x, y), what in AXIOM_PAIRS.items():
        agree(r[x], r[y], what)
        structural = (digit_map(r[x]) == digit_map(r[y])
                      and r[x].precexp == r[y].precexp)
        _require(same[(x, y)] is structural,
                 f"{what}: == read {same[(x, y)]} on {r[x]!r}, {r[y]!r}")


def check_inverse(u, inv, product, same):
    one = type(u).one(u.config)
    agree(product, one, "invert_unit(u) * u == 1")
    _require(same is True, "invert_unit(u) * u == 1 read False")
    _require(inv.precexp.as_fraction() > 0, "inverse carries no precision")


def check_quotient(a, q):
    agree(q, a, "divide_exact(a * b, b) == a")


def check_json_round_trip(x, doc, y, same):
    _require(y == x and y.precexp == x.precexp and same is True,
             f"JSON round trip changed {x!r} into {y!r}")
    _require(doc["kind"] == x.kind and len(doc["terms"]) == len(x.digits),
             f"to_json of {x!r} has the wrong shape")


def check_frobenius(x, f, r):
    p = x.config.p
    expected = {e * p: c for e, c in digit_map(x).items()
                if e * p < f.precexp.as_fraction()}
    _require(digit_map(f) == expected, f"frobenius of {x!r} gave {f!r}")
    agree(r, x, "pth_root(frobenius(x)) == x")


def check_reduce_lift(x, r, lifted, again):
    expected = {e: c for e, c in digit_map(x).items() if e < 1}
    k = r.precexp.as_fraction()
    _require({e: c for e, c in digit_map(r).items() if e < k}
             == {e: c for e, c in expected.items() if e < k},
             f"reduce_mod_uniformizer of {x!r} gave {r!r}")
    _require(lifted.kind == "untilt", "lift must land on the untilt side")
    agree(again, r, "reduce(lift(y)) == y")


# =====================================================================
# lift
# =====================================================================

def check_sharp_uniformizer(value, k):
    _require(value.precexp.as_fraction() == k,
             f"sharp(t, {k}) has precision {value.precexp}")
    _require(digit_map(value) == {Fraction(1): 1},
             f"sharp(t, {k}) = {value!r}, expected p + O(p^{k})")


def sharp_certified(known, p: int, n: int, target) -> Fraction:
    """The precision up to which sharp's result does not depend on the
    representative of an input known modulo t^known, by the rule in
    ``sharp``'s docstring: iterate a -> min(p a, a + 1) n times from
    a = known / p^n.  sharp's returned precision exponent can exceed it.
    """
    a = Fraction(known) / p ** n
    for _ in range(n):
        a = min(p * a, a + 1)
    return min(a, Fraction(target))


def theta_certified(w) -> Fraction:
    """The same bound for theta: component i is rooted i times, lifted
    with sharp at depth length - 1 and multiplied by p^i."""
    p, n = w.config.p, w.length
    return min(i + sharp_certified(c.precexp.as_fraction() / p ** i, p,
                                   n - 1, n)
               for i, c in enumerate(w.components))


def check_sharp_mul(sx, sy, sxy, upto):
    agree(sxy, sx * sy, "sharp(x * y) == sharp(x) * sharp(y)", upto)


def check_sharp_const(value, c, p):
    """The Teichmuller lift is congruent to c and fixed by x -> x^p."""
    mod = p ** value.config.prec
    n = sum(d * p ** int(e) for e, d in digit_map(value).items())
    _require(n % p == c % p, f"Teichmuller lift of {c} is {value!r}")
    _require(pow(n, p, mod) == n % mod,
             f"Teichmuller lift of {c} is not fixed by x -> x^p")


def check_theta(ta, tb, tsum, tprod, length, upto):
    for x in (ta, tb, tsum, tprod):
        _require(x.precexp.as_fraction() >= length or not digit_map(x),
                 f"theta lost precision: {x!r}")
    agree(tsum, ta + tb, "theta(a + b) == theta(a) + theta(b)", upto)
    agree(tprod, ta * tb, "theta(a * b) == theta(a) * theta(b)", upto)


def check_teichmuller(theta_value, sharp_value, upto):
    agree(theta_value, sharp_value, "theta([x]) == sharp(x)", upto)


def _valuation_or_none(c):
    v = c.valuation()
    return None if not hasattr(v, "as_fraction") else v.as_fraction()


def oracle_slopes(coeffs) -> list:
    """Newton slopes as (root valuation, multiplicity), by brute force:
    a segment joins the extreme points of a line through two of the
    points (i, v(a_i)) that no point lies strictly below."""
    points = [(i, _valuation_or_none(c)) for i, c in enumerate(coeffs)]
    points = [(i, v) for i, v in points if v is not None]
    out = set()
    for a in points:
        for b in points:
            if b[0] <= a[0]:
                continue
            slope = Fraction(b[1] - a[1], b[0] - a[0])
            line = [(pt[1] - a[1]) - slope * (pt[0] - a[0]) for pt in points]
            if min(line) < 0:
                continue
            on = [pt[0] for pt, gap in zip(points, line) if gap == 0]
            out.add((-slope, max(on) - min(on)))
    return sorted(out)


def check_newton(poly, polygon):
    expected = oracle_slopes(poly.coeffs)
    got = sorted((Fraction(s), m) for s, m in polygon.segments)
    _require(got == expected,
             f"newton_polygon of {poly!r}: {got} != hull {expected}")


def check_transfer(polygon, transferred_polygon):
    _require(polygon.slopes() == transferred_polygon.slopes(),
             "fw_transfer moved the Newton slopes")


def check_agreement(levels):
    _require(all(a <= b for a, b in zip(levels, levels[1:])),
             f"stage agreement {levels} is not nondecreasing")


def check_found(root):
    _require(root is not None, "no root found of a polynomial that has one")


def check_root(poly, root, target):
    """P(root) vanishes modulo uniformizer^target."""
    residual = poly(root)
    v = _valuation_or_none(residual)
    _require(v is None or v >= target,
             f"residual {residual!r} of root {root!r} is below {target}")


def check_hensel(mixed, hensel):
    agree(hensel, mixed, "hensel_root agrees with mixed_root_refine")


# =====================================================================
# battery and cli
# =====================================================================

def check_suite_result(result):
    _require(result.passed, f"check {result.name} failed: {result.detail}")


def check_command(spec, outcome, first_stdout):
    """Exit code, error type and stdout of one CLI run.

    ``spec`` holds the expected exit code and either the stdout bytes the
    same library call prints in-process or the error type; stdout must
    also repeat the first run's bytes exactly.
    """
    code, stdout, stderr = outcome
    _require(code == spec["exit"],
             f"{spec['label']}: exit {code}, expected {spec['exit']}; "
             f"stderr {stderr[-300:]!r}")
    if spec["exit"] == 1:
        import json
        _require(stdout == b"", f"{spec['label']}: stdout on a domain error")
        error = json.loads(stderr.decode())
        _require(error.get("error") == spec["error"],
                 f"{spec['label']}: error {error!r}, expected "
                 f"{spec['error']}")
    elif spec.get("stdout") is not None:
        _require(stdout == spec["stdout"],
                 f"{spec['label']}: stdout {stdout[:200]!r} differs from the "
                 f"in-process result {spec['stdout'][:200]!r}")
    else:
        _require(stdout, f"{spec['label']}: empty stdout")
    _require(first_stdout is None or stdout == first_stdout,
             f"{spec['label']}: stdout changed between runs")
