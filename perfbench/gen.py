"""Seeded input generators for the ``digits`` and ``lift`` workloads.

Generators return plain data only: exponents as (numerator, denominator
power) pairs, integer coefficients, configuration triples.  The same
seed gives the same data; the workloads turn it into package objects
during set-up.
"""

from __future__ import annotations

import itertools
import random

# (p, N, m): prime, working precision, denominator cap
DIGITS_CONFIGS = ((2, 16, 2), (3, 8, 2), (5, 6, 1), (3, 6, 4))
KINDS = ("untilt", "tilt")

# =====================================================================
# The operation mix
# =====================================================================

# Calls that the package's only in-package caller, the acceptance suite
# (every check at its default seed 20260822), makes into each benchmarked
# operation from outside the operation's layer, as printed by
# ``python3 perfbench/callprofile.py``.  The numbers of items of each
# shape in a pass of ``digits`` and ``lift`` follow these counts.
SUITE_PROFILE = {
    "untilt.new": 33888, "tilt.new": 31731, "untilt.add": 29119,
    "tilt.add": 17641, "untilt.mul": 45930, "tilt.mul": 53361,
    "eq": 15914, "valuation": 7894, "to_json": 748,
    "element_from_json": 0, "invert_unit": 0, "divide_exact": 11,
    "reduce_mod_uniformizer": 47, "lift_mod_uniformizer": 0,
    "frobenius": 4000, "pth_root": 3638,
    "sharp": 2251, "sharp_const": 0, "witt_add": 200, "witt_mul": 200,
    "theta": 1202, "newton_polygon": 200, "fw_transfer": 101,
    "transfer_agreement": 4, "charp_root": 0, "hensel_root": 1,
    "mixed_root_refine": 3,
}

# Each shape of item: the profiled operations it exists to measure and
# how many calls of them one item makes.  An item's other calls (the
# ``mul`` before ``divide_exact``, the ``theta`` of a Witt pair) come
# with it.
DIGITS_SHAPES = {
    "new": (("untilt.new", "tilt.new"), 1),
    "axioms": (("untilt.add", "tilt.add", "untilt.mul", "tilt.mul", "eq"),
               18),
    "invert": (("invert_unit",), 1),
    "divide": (("divide_exact",), 1),
    "valuation": (("valuation",), 1),
    "json": (("to_json", "element_from_json"), 2),
    "frobenius": (("frobenius", "pth_root"), 2),
    "reduce": (("reduce_mod_uniformizer", "lift_mod_uniformizer"), 3),
}
LIFT_SHAPES = {
    "sharp_mul": (("sharp",), 3),
    "witt": (("witt_add", "witt_mul"), 2),
    "transfer": (("fw_transfer",), 1),
    "agreement": (("transfer_agreement",), 2),
    "charp": (("charp_root",), 1),
    "mixed": (("mixed_root_refine",), 1),
    "teichmuller": ((), 1),
}

# Items per profiled call, and the fewest items of a shape per
# configuration (and ring kind), so that operations the suite calls
# rarely or never (invert_unit, the JSON round trip, the root finders)
# are still measured.  On digits the invert and divide floor items take
# about 40% of a pass.
DIGITS_SCALE, DIGITS_FLOOR = 1 / 40, 8
LIFT_SCALE, LIFT_FLOOR = 0.24, 3


def shape_counts(shapes: dict, scale: float, floor: int,
                 places: dict) -> dict:
    """Items of each shape per place (configuration, or configuration
    and ring kind) in one pass: the profiled calls of the shape's
    operations, spread over the ``places[shape]`` places it runs in,
    divided by the calls one item makes, times ``scale``; at least
    ``floor``."""
    out = {}
    for shape, (ops, per_item) in shapes.items():
        calls = sum(SUITE_PROFILE[op] for op in ops)
        out[shape] = max(floor, round(scale * calls / per_item
                                      / places[shape]))
    return out


# Frobenius runs on tilt elements only, reduce/lift on untilt ones.
DIGITS_KIND_SHAPES = {"tilt": ("new", "axioms", "invert", "divide",
                               "valuation", "json", "frobenius"),
                      "untilt": ("new", "axioms", "invert", "divide",
                                 "valuation", "json", "reduce")}
DIGITS_ITEMS = shape_counts(
    DIGITS_SHAPES, DIGITS_SCALE, DIGITS_FLOOR,
    {shape: len(DIGITS_CONFIGS) * sum(shape in s for s in
                                      DIGITS_KIND_SHAPES.values())
     for shape in DIGITS_SHAPES})

# sharp on sparse inputs: numpy int64 path at deep lattices, and the
# Python big-int path at (2, 32, 6).
SHARP_CONFIGS = ((3, 9, 8), (2, 12, 8), (3, 8, 10), (2, 32, 6))
# Deepest layer p^depth that most generated sharp inputs need, by p, so
# one call stays within milliseconds.  One item for each k in
# DEEP_SHARP_KS reaches DEEP_SHARP_DEPTH instead: the whole 3^8 lattice
# at (3, 9, 8), at most about 0.2 s a call, and 3^9 at (3, 8, 10), about
# 1 s a call, because one call on the whole 3^10 lattice takes 5-11 s
# (2-core Xeon VM at 2.0 GHz, numpy 2.4).
SHARP_MAX_DEPTH = {2: 8, 3: 6}
DEEP_SHARP_DEPTH = {(3, 9, 8): 8, (3, 8, 10): 9}
DEEP_SHARP_KS = {(3, 9, 8): (2, 3), (3, 8, 10): (2,)}

# Witt (p, length) pairs.  Length 4 at p = 5 is left out: building its
# universal multiplication table exhausted an 8 GB machine.  The suite
# uses length 3 only; length 4 gets LIFT_FLOOR - 1 items a shape,
# because its products cost about 0.4 s each.
WITT_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
               (5, 3))
WITT_EXCLUDED = {(5, 4): "building the sympy Witt table exhausted 8 GB of "
                         "memory; no typed error is raised"}
WITT_CONFIG = {2: (2, 8, 6), 3: (3, 9, 6), 5: (5, 6, 6)}

# Untilt polynomials whose roots mixed_root_refine finds: ramified
# X^d - p, and unramified X^d - u with u a d-th power unit, p not | d.
MIXED_CONFIGS = ((2, 6, 3), (3, 6, 3), (5, 5, 2))
CHARP_CONFIGS = ((2, 8, 4), (3, 6, 4))

LIFT_ITEMS = shape_counts(
    LIFT_SHAPES, LIFT_SCALE, LIFT_FLOOR,
    {"sharp_mul": len(SHARP_CONFIGS),
     "witt": sum(n < 4 for _, n in WITT_SHAPES),
     "teichmuller": len(WITT_SHAPES), "transfer": 1, "agreement": 1,
     "charp": len(CHARP_CONFIGS), "mixed": len(MIXED_CONFIGS)})


def _exponent(rng, p, prec, dencap, below=None):
    """A lattice point j / p^d, d <= dencap, in [0, below or prec)."""
    d = rng.randrange(dencap + 1)
    top = (below if below is not None else prec) * p ** d
    num = rng.randrange(top)
    return (num, d)


def _digit_map(rng, p, prec, dencap, count, low=1, high=None, below=None):
    high = high if high is not None else p - 1
    out = {}
    while len(out) < count:
        e = _exponent(rng, p, prec, dencap, below)
        key = _normalized(e, p)
        if key not in out:
            out[key] = rng.randint(low, high)
    return sorted(out.items())


def _normalized(e, p):
    num, d = e
    while d and num % p == 0:
        num //= p
        d -= 1
    return (num, d)


# Units and divisors stay on the (1/p^2) lattice: long division visits
# every lattice point below the precision, so one call at (3, 6, 4) with
# a p^-4 digit would cost as much as a thousand other operations.
DIVISOR_DENCAP = 2


def _divisor_map(rng, p, prec, dencap, count, depth, below):
    """A unit (``below`` = 0) or a divisor with its lowest exponent below
    1; every exponent has denominator at most p^depth and, when there is
    more than one digit, one has exactly p^depth, so the lattice a long
    division fills is set by ``depth`` alone."""
    lead = (0, 0) if below == 0 else _normalized(
        _exponent(rng, p, prec, depth, below=1), p)
    out = {lead: rng.randint(1, p - 1)}
    count = min(count, prec * p ** depth - 1)   # points in (0, prec)
    while len(out) < count:
        d = depth if len(out) == 1 else rng.randint(0, depth)
        e = _normalized((rng.randrange(prec * p ** d), d), p)
        if e[0] and (len(out) > 1 or e[1] == d):
            out.setdefault(e, rng.randint(1, p - 1))
    return sorted(out.items())


def digits_inputs(seed: int) -> list[dict]:
    """One pass of the ``digits`` workload, as a list of items.

    Operand sizes cycle through 1-8 digits, so every seed gives a pass
    with the same size profile; exponents and digits are random.
    """
    rng = random.Random(seed)
    sizes = itertools.cycle(range(1, 9))
    depths = itertools.cycle(range(DIVISOR_DENCAP + 1))
    items = []
    for p, prec, dencap in DIGITS_CONFIGS:
        cfg = (p, prec, dencap)
        for kind in KINDS:
            def elem():
                return _digit_map(rng, p, prec, dencap, next(sizes))
            for _ in range(DIGITS_ITEMS["new"]):
                # coefficients outside 0..p-1, so normalize must carry
                raw = _digit_map(rng, p, prec, dencap, next(sizes),
                                 low=-p ** 3, high=p ** 3)
                items.append({"shape": "new", "config": cfg, "kind": kind,
                              "raw": [(e, c) for e, c in raw if c]})
            for _ in range(DIGITS_ITEMS["axioms"]):
                items.append({"shape": "axioms", "config": cfg,
                              "kind": kind, "a": elem(), "b": elem(),
                              "c": elem()})
            for _ in range(DIGITS_ITEMS["invert"]):
                items.append({"shape": "invert", "config": cfg, "kind": kind,
                              "u": _divisor_map(rng, p, prec, dencap,
                                                next(sizes),
                                                min(next(depths), dencap),
                                                below=0)})
            for _ in range(DIGITS_ITEMS["divide"]):
                items.append({"shape": "divide", "config": cfg, "kind": kind,
                              "a": elem(),
                              "b": _divisor_map(rng, p, prec, dencap,
                                                next(sizes),
                                                min(next(depths), dencap),
                                                below=1)})
            for _ in range(DIGITS_ITEMS["valuation"]):
                items.append({"shape": "valuation", "config": cfg,
                              "kind": kind, "x": elem()})
            for _ in range(DIGITS_ITEMS["json"]):
                items.append({"shape": "json", "config": cfg, "kind": kind,
                              "x": elem()})
            other = "frobenius" if kind == "tilt" else "reduce"
            for _ in range(DIGITS_ITEMS[other]):
                items.append({"shape": other, "config": cfg, "kind": kind,
                              "x": elem()})
    rng.shuffle(items)
    return items


# =====================================================================
# lift
# =====================================================================

def _sharp_limit(p, dencap):
    return min(dencap, SHARP_MAX_DEPTH[p])


def _sharp_input(rng, p, prec, k, count, limit):
    """A sparse digit map whose (k-1)-fold root stays inside the layer
    depth ``limit``.  Its first digit sits exactly at that depth and
    below t^(p^(k-1)), so it survives the root and every input of a
    given k and limit costs the same layer size."""
    n = k - 1
    room = limit - n
    top = min(prec, p ** n) * p ** room
    num = rng.randrange(top)
    while room and num % p == 0:
        num = rng.randrange(top)
    out = {(num, room): rng.randint(1, p - 1)}
    while len(out) < count:
        d = rng.randint(0, room)
        out.setdefault(_normalized((rng.randrange(prec * p ** d), d), p),
                       rng.randint(1, p - 1))
    return sorted(out.items())


def _tilt_poly(rng, p, prec, degree, j):
    """Coefficients of a monic tilt polynomial with sparse lower terms;
    which coefficients vanish and how many digits the others have is
    fixed by the item index j."""
    coeffs = []
    for i in range(degree):
        if (i + j) % 4 == 3:
            coeffs.append([])
        else:
            coeffs.append(_digit_map(rng, p, prec, 0, 1 + (i + j) % 2))
    coeffs.append([((0, 0), 1)])
    return coeffs


def lift_inputs(seed: int) -> list[dict]:
    """One pass of the ``lift`` workload, as a list of items.

    Shapes, sizes, targets and degrees are fixed; exponents, digits and
    constants come from the seed, so every seed costs about the same.
    """
    rng = random.Random(seed)
    items = []
    for p, prec, dencap in SHARP_CONFIGS:
        cfg = (p, prec, dencap)
        limit = _sharp_limit(p, dencap)
        top = min(prec, limit + 1)
        for k in range(2, top + 1):
            items.append({"shape": "sharp_t", "config": cfg, "k": k})
        for j in range(LIFT_ITEMS["sharp_mul"]):
            k = 2 + j % (top - 1)
            items.append({"shape": "sharp_mul", "config": cfg, "k": k,
                          "x": _sharp_input(rng, p, prec, k, 1 + j % 3,
                                            limit),
                          "y": _sharp_input(rng, p, prec, k,
                                            1 + (j + 1) % 3, limit)})
        for k in DEEP_SHARP_KS.get(cfg, ()):
            # x on the deep lattice, y a constant digit, so that x * y
            # keeps every exponent of x and costs as much as x
            items.append({"shape": "sharp_mul", "config": cfg, "k": k,
                          "x": _sharp_input(rng, p, prec, k, 2,
                                            DEEP_SHARP_DEPTH[cfg]),
                          "y": [((0, 0), rng.randint(1, p - 1))]})
        for c in range(p):
            items.append({"shape": "sharp_const", "config": cfg, "c": c})
    for p, length in WITT_SHAPES:
        cfg = WITT_CONFIG[p]
        count = LIFT_ITEMS["witt"] if length < 4 else LIFT_FLOOR - 1
        for j in range(count):
            a = [_digit_map(rng, p, cfg[1], 0, (i + j) % 3)
                 for i in range(length)]
            b = [_digit_map(rng, p, cfg[1], 0, (i + j + 1) % 3)
                 for i in range(length)]
            items.append({"shape": "witt", "config": cfg, "length": length,
                          "a": a, "b": b})
        for _ in range(LIFT_ITEMS["teichmuller"]):
            items.append({"shape": "teichmuller", "config": cfg,
                          "length": length,
                          "x": _digit_map(rng, p, cfg[1], 0, 2)})
    for j in range(LIFT_ITEMS["transfer"]):
        items.append({"shape": "transfer", "config": (3, 4, 4),
                      "coeffs": _tilt_poly(rng, 3, 4, 1 + j % 4, j)})
    for j in range(LIFT_ITEMS["agreement"]):
        items.append({"shape": "agreement", "config": (3, 8, 10),
                      "coeffs": _tilt_poly(rng, 3, 3, 2, j),
                      "stages": (0, 1)})
    for p, prec, dencap in CHARP_CONFIGS:
        for j in range(LIFT_ITEMS["charp"]):
            # (X - r)(X - s) with r, s tilt elements: a root exists
            r = _digit_map(rng, p, prec, 0, 1 + j % 2)
            s = _digit_map(rng, p, prec, 0, 1 + (j + 1) % 2)
            items.append({"shape": "charp", "config": (p, prec, dencap),
                          "r": r, "s": s})
    for p, prec, dencap in MIXED_CONFIGS:
        items.append({"shape": "mixed", "config": (p, prec, dencap),
                      "degree": p, "constant": "p"})
        degrees = [d for d in (2, 3, 4) if d % p]
        for j in range(LIFT_ITEMS["mixed"]):
            degree = degrees[j % len(degrees)]
            base = rng.randrange(1, p ** prec)
            while base % p == 0:
                base = rng.randrange(1, p ** prec)
            items.append({"shape": "mixed", "config": (p, prec, dencap),
                          "degree": degree,
                          "constant": pow(base, degree, p ** prec)})
    rng.shuffle(items)
    return items
