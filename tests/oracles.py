"""Independent reference implementations used to freeze expected values.

Each oracle redoes a computation in a deliberately different
representation from the package (dense digit arrays indexed by the
(1/p^dencap) lattice instead of sparse exponent maps, gift wrapping
instead of a monotone chain, brute-force enumeration instead of algebra,
Fraction Gauss-Jordan instead of fraction-free integer elimination), so
that a bug in either side shows up as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, comb, floor, gcd

from perfectoid.arith import (
    FieldConfig,
    KernelError,
    TiltElement,
    UntiltElement,
)


# ---------------------------------------------------------------------
# Dense digit arrays.
#
# Index j stands for the exponent j / p^dencap; an element known modulo
# p^prec occupies indices 0 .. prec * p^dencap - 1.  On the untilt side
# p * x^(j) = x^(j + p^dencap), which is the carry rule.
# ---------------------------------------------------------------------

def dense_length(config: FieldConfig) -> int:
    return config.prec * config.p ** config.dencap


def dense_precision(x) -> int:
    """The index of x's precision exponent: x is known below it."""
    idx = x.precexp.as_fraction() * x.config.p ** x.config.dencap
    assert idx.denominator == 1
    return int(idx)


def dense_from_element(x) -> list[int]:
    """x's digits on the full-length array; indices at or above its
    precision hold 0."""
    config = x.config
    scale = config.p ** config.dencap
    out = [0] * dense_length(config)
    for e, c in x.digits.items():
        idx = e.as_fraction() * scale
        assert idx.denominator == 1
        out[int(idx)] = c
    return out


def dense_to_element(vec, config: FieldConfig, kind: str,
                     known: int | None = None):
    """The element with digits vec, known below index ``known`` (full
    precision by default)."""
    scale = config.p ** config.dencap
    if known is None:
        known = dense_length(config)
    digits = {Fraction(j, scale): c for j, c in enumerate(vec) if c}
    cls = UntiltElement if kind == "untilt" else TiltElement
    return cls(config, digits, Fraction(known, scale))


def dense_truncate(vec, known: int) -> list[int]:
    return [c if j < known else 0 for j, c in enumerate(vec)]


def dense_valuation(vec, known: int) -> int:
    """The first nonzero index below ``known``, else ``known``: the
    certified lower bound on the valuation of an element known there."""
    return next((j for j, c in enumerate(vec[:known]) if c), known)


def dense_normalize(vec, config: FieldConfig, kind: str) -> list[int]:
    """Canonical digits of sum vec[j] X^j, any integers vec[j]."""
    if kind == "untilt":
        return dense_normalize_untilt(vec, config)
    return [c % config.p for c in vec][:dense_length(config)]


def dense_normalize_untilt(vec, config: FieldConfig) -> list[int]:
    p = config.p
    step = p ** config.dencap
    limit = dense_length(config)
    work = list(vec) + [0] * (limit + step)
    for j in range(len(work)):
        q, r = divmod(work[j], p)
        work[j] = r
        if q:
            if j + step < len(work):
                work[j + step] += q
            # else: the carry sits at exponent >= prec and is dropped
    return work[:limit]


def dense_add(u, v, config: FieldConfig, kind: str) -> list[int]:
    n = max(len(u), len(v))
    w = [(u[j] if j < len(u) else 0) + (v[j] if j < len(v) else 0)
         for j in range(n)]
    return dense_normalize(w, config, kind)


def dense_neg(u, config: FieldConfig, kind: str) -> list[int]:
    return dense_normalize([-c for c in u], config, kind)


def dense_mul(u, v, config: FieldConfig, kind: str) -> list[int]:
    w = [0] * (len(u) + len(v))
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b:
                w[i + j] += a * b
    return dense_normalize(w, config, kind)


def dense_pow(u, n: int, config: FieldConfig, kind: str) -> list[int]:
    out = [0] * dense_length(config)
    out[0] = 1
    for _ in range(n):
        out = dense_mul(out, u, config, kind)
    return out


def theta_dense(w) -> UntiltElement:
    """theta of a Witt vector w of full-precision components, modulo p^n:
    sum_i p^i (lift of x_i^(1/p^(i+n-1)))^(p^(n-1)), n = w.length.

    The lift keeps the root's digits below 1 (its residue modulo t); the
    power is a chain of dense products.  Every root must stay on the
    (1/p^dencap) lattice.
    """
    config, n = w.config, w.length
    p, scale = config.p, config.p ** config.dencap
    total = [0] * dense_length(config)
    for i, x in enumerate(w.components):
        depth = p ** (i + n - 1)
        lift = [0] * dense_length(config)
        for j, c in enumerate(dense_from_element(x)):
            if c:
                if j % depth:
                    raise ValueError("root leaves the dense lattice")
                if j // depth < scale:
                    lift[j // depth] = c
        term = dense_pow(lift, p ** (n - 1), config, "untilt")
        total = dense_add(total, [0] * (i * scale) + term, config, "untilt")
    return dense_to_element(total, config, "untilt").with_precision(n)


def dense_frobenius_tilt(u, config: FieldConfig) -> list[int]:
    out = [0] * dense_length(config)
    for j, c in enumerate(u):
        if c and j * config.p < len(out):
            out[j * config.p] = c
    return out


def layer_mul_schoolbook(a, b, c: int, mod: int) -> list[int]:
    """a * b in (Z/mod)[u]/(u^L - c), L = len(a): every product of two
    coefficients added into its slot, u^(L+k) folded to c * u^k."""
    length = len(a)
    out = [0] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] += x * y
            else:
                out[i + j - length] += c * x * y
    return [v % mod for v in out]


def power_layer_dense(points: dict, m: int, p: int, n: int,
                      top: int) -> list[int]:
    """The p^m coefficients of (sum_r C_r * u^r)^(p^n) modulo p^top on
    the dense layer (Z/mod)[u]/(u^(p^m) - p), points the nonzero C_r.

    The dense-only layer power: every round is p - 1 schoolbook products
    on the whole layer, round i of n modulo p^max(top - (n - i), 1), the
    input reduced modulo p^max(top - n, 1) first.
    """
    size = p ** m
    mod = p ** max(top - n, 1)
    vec = [0] * size
    for r, c in points.items():
        vec[r] = c % mod
    for left in range(n - 1, -1, -1):
        mod = p ** max(top - left, 1)
        power = vec
        for _ in range(p - 1):
            power = layer_mul_schoolbook(power, vec, p, mod)
        vec = power
    return vec


def all_dense_vectors(config: FieldConfig, limit_idx: int):
    """Every digit vector supported on indices < limit_idx (brute force)."""
    p = config.p
    total = p ** limit_idx
    for code in range(total):
        vec = [0] * dense_length(config)
        c = code
        for j in range(limit_idx):
            vec[j] = c % p
            c //= p
        yield vec


# ---------------------------------------------------------------------
# Text and JSON writers through the public exponent views.
#
# The package writes both forms from lattice indices, reducing
# j / p^dencap in integers; these go through ``digits``, ``precexp`` and
# ``Monomial.exps``, whose exponents are Fractions, sort the terms by
# value and format the Fractions.
# ---------------------------------------------------------------------

def _reference_power(symbol: str, f: Fraction) -> str:
    if f == 0:
        return ""
    if f == 1:
        return symbol
    if f.denominator == 1:
        return f"{symbol}^{f.numerator}"
    return f"{symbol}^({f})"


def _reference_digits(x) -> list:
    return sorted(x.digits.items(), key=lambda t: t[0].as_fraction())


def reference_text(x) -> str:
    """The canonical text form of a digit element."""
    parts = []
    for e, c in _reference_digits(x):
        power = _reference_power(x.symbol, e.as_fraction())
        parts.append(f"{c}*{power}" if power else str(c))
    tail = _reference_power(x.symbol, x.precexp.as_fraction())
    parts.append(f"O({tail or 1})")
    return " + ".join(parts)


def _reference_exp_json(e, p: int) -> dict:
    # num / p^denpow: the numerator, and the power of p in the denominator
    den, denpow = e.denominator, 0
    while den > 1:
        den //= p
        denpow += 1
    return {"num": e.numerator, "denpow": denpow}


def reference_json(x) -> dict:
    """The canonical JSON form of a digit element."""
    p = x.config.p
    terms = [{**_reference_exp_json(e, p), "digit": c}
             for e, c in _reference_digits(x)]
    return {
        "kind": x.kind,
        "p": p,
        "prec": x.config.prec,
        "dencap": x.config.dencap,
        "precexp": _reference_exp_json(x.precexp, p),
        "terms": terms,
    }


def reference_monomial_repr(m) -> str:
    parts = [_reference_power(f"T{i}", e.as_fraction())
             for i, e in enumerate(m.exps)]
    return "*".join(part for part in parts if part) or "1"


def reference_monomial_json(m) -> list:
    return [_reference_exp_json(e, m.config.p) for e in m.exps]


# ---------------------------------------------------------------------
# Witt vectors through the universal component polynomials.
#
# The package computes Witt sums and products in the strict p-ring;
# here the universal polynomials S_k come from the ghost-component
# identities over the integers and are evaluated term by term on tilt
# elements.
# ---------------------------------------------------------------------

def _poly_mul(a: dict, b: dict) -> dict:
    """Product of integer polynomials stored as {exponent tuple: coeff}."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple([i + j for i, j in zip(ma, mb)])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _poly_pow(a: dict, e: int) -> dict:
    """a^e for e >= 1, by square-and-multiply."""
    acc = None
    while True:
        if e & 1:
            acc = a if acc is None else _poly_mul(acc, a)
        e >>= 1
        if not e:
            return acc
        a = _poly_mul(a, a)


def _poly_add_scaled(acc: dict, a: dict, scale: int) -> None:
    """acc += scale * a, in place."""
    for m, c in a.items():
        acc[m] = acc.get(m, 0) + scale * c


@lru_cache(maxsize=None)
def _witt_structure_integer(p: int, op: str, length: int):
    """Universal Witt component polynomials S_0..S_{length-1} over Z.

    Solved from the ghost-component identities w_k(S) = w_k(X) op w_k(Y)
    and stored as {exponent tuple: integer coeff} over the generators
    x0..x_{n-1}, y0..y_{n-1}; each component is returned as a tuple of
    (exponent tuple, coeff) pairs in descending exponent order.
    """
    if op not in ("add", "mul"):
        raise KernelError(f"unknown Witt operation {op!r}")
    nvars = 2 * length

    def ghost(offset, k):
        # w_k = sum_j p^j * v_j^(p^(k-j)) over the variables v_j at offset
        out = {}
        for j in range(k + 1):
            monom = [0] * nvars
            monom[offset + j] = p ** (k - j)
            out[tuple(monom)] = p ** j
        return out

    # powers[j] holds S_j^(p^(k-j)) for the current k
    powers: list[dict] = []
    tables = []
    for k in range(length):
        if op == "add":
            acc = ghost(0, k)
            _poly_add_scaled(acc, ghost(length, k), 1)
        else:
            acc = _poly_mul(ghost(0, k), ghost(length, k))
        powers = [_poly_pow(s, p) for s in powers]
        for j, s in enumerate(powers):
            _poly_add_scaled(acc, s, -p ** j)
        scale = p ** k
        component = {}
        for monom, coeff in acc.items():
            q, r = divmod(coeff, scale)
            if r:
                raise KernelError(
                    "Witt recursion produced a nonintegral component")
            if q:
                component[monom] = q
        powers.append(component)
        tables.append(tuple(sorted(component.items(), reverse=True)))
    return tuple(tables)


def witt_by_tables(a, b, op: str) -> list:
    """Components of a op b from the tables, reduced modulo p and
    evaluated with tilt-element arithmetic (Frobenius for p-th powers)."""
    config = a.config
    p = config.p
    values = list(a.components) + list(b.components)

    def power(x, e):
        out = TiltElement.one(config)
        while e:
            e, d = divmod(e, p)
            if d:
                out = out * x ** d
            if e:
                x = x.frobenius()
        return out

    out = []
    for terms in _witt_structure_integer(p, op, a.length):
        comp = TiltElement.zero(config)
        for monom, coeff in terms:
            if coeff % p == 0:
                continue
            term = TiltElement.from_int(config, coeff % p)
            for idx, e in enumerate(monom):
                if e:
                    term = term * power(values[idx], e)
            comp = comp + term
        out.append(comp)
    return out


# ---------------------------------------------------------------------
# Taylor shift by binomial re-expansion: the element-level form the
# package's Ruffini-Horner shift must reproduce byte for byte, precision
# indices included.
# ---------------------------------------------------------------------

def shifted_binomial(coeffs, delta) -> list:
    """The coefficients of X -> P(X + delta), P given by its ascending
    coefficients, as the sums over j >= i of a_j * C(j, i) * delta^(j-i),
    every product and sum an element operation that tracks its own
    precision."""
    d = len(coeffs) - 1
    powers = [type(coeffs[0]).one(coeffs[0].config)]
    for _ in range(d):
        powers.append(powers[-1] * delta)
    out = []
    for i in range(d + 1):
        acc = None
        for j in range(i, d + 1):
            term = coeffs[j] * comb(j, i) * powers[j - i]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


# ---------------------------------------------------------------------
# Lower convex hull by gift wrapping.
# ---------------------------------------------------------------------

def lower_hull_brute(points):
    """Vertices of the lower convex hull, left to right.

    points: iterable of (x, y) with exact (int or Fraction) coordinates
    and distinct x.  Starting from the leftmost point, repeatedly walk to
    the point minimizing the slope (farthest on ties).
    """
    pts = sorted((Fraction(x), Fraction(y)) for x, y in points)
    if not pts:
        return []
    hull = [pts[0]]
    while True:
        cx, cy = hull[-1]
        candidates = [(x, y) for x, y in pts if x > cx]
        if not candidates:
            return hull
        best = None
        best_slope = None
        for x, y in candidates:
            slope = (y - cy) / (x - cx)
            if best is None or slope < best_slope or (
                    slope == best_slope and x > best[0]):
                best = (x, y)
                best_slope = slope
        hull.append(best)


# ---------------------------------------------------------------------
# Rational Gauss-Jordan elimination: the reference for the toric
# module's fraction-free integer elimination.  Cone generators are
# primitive and sorted with redundant ones dropped greedily, which is
# toric.Cone's canonical form on pointed cones, so those compare as
# tuples.  A cone holding a line has more than one irredundant set;
# there the greedy choice may differ from toric's, and tests compare
# the two as cones.
# ---------------------------------------------------------------------

def rref(rows, width: int):
    """Reduced row echelon form over Fraction, with its pivot columns."""
    M = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(width):
        k = len(pivots)
        piv = next((r for r in range(k, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[k], M[piv] = M[piv], M[k]
        inv = M[k][col]
        M[k] = [x / inv for x in M[k]]
        for r in range(len(M)):
            if r != k and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[k])]
        pivots.append(col)
    return M, pivots


def matrix_rank(rows) -> int:
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def gauss_solve(rows, rhs):
    """The solution of a square system, None when singular."""
    n = len(rows)
    M, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], n + 1)
    if pivots != list(range(n)):
        return None
    return [M[i][n] for i in range(n)]


def _primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    return tuple(c // g for c in vec) if g else None


def _clear_denominators(vec):
    den = 1
    for c in vec:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(int(c * den) for c in vec)


def nullspace_vectors(rows, width: int):
    """Primitive integer vectors, one per free column of the RREF."""
    M, pivots = rref(rows, width)
    out = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -M[r][free]
        out.append(_primitive(_clear_denominators(vec)))
    return out


def solve_conic(columns, target) -> bool:
    """Normal equations over Fraction, then an exact consistency check."""
    k = len(target)
    ata = [[sum(Fraction(u[r]) * v[r] for r in range(k)) for v in columns]
           for u in columns]
    atb = [sum(Fraction(u[r]) * target[r] for r in range(k))
           for u in columns]
    lam = gauss_solve(ata, atb)
    if lam is None:
        return False
    if any(sum(x * col[r] for x, col in zip(lam, columns)) != target[r]
           for r in range(k)):
        return False
    return all(x >= 0 for x in lam)


def _in_cone(vec, gens, rank: int) -> bool:
    if all(c == 0 for c in vec):
        return True
    return any(solve_conic(sub, vec) for size in range(1, rank + 1)
               for sub in combinations(gens, size))


def cone_generators(gens, rank: int) -> tuple:
    """Primitive, sorted, irredundant form of a generator list."""
    out = sorted({v for v in map(_primitive, gens) if v is not None})
    changed = True
    while changed:
        changed = False
        for v in list(out):
            rest = [w for w in out if w != v]
            if rest and _in_cone(v, rest, rank):
                out.remove(v)
                changed = True
    return tuple(out)


def dual_generators(gens, rank: int) -> tuple:
    """Normalized generators of the dual of the cone spanned by gens.

    When the dual is pointed (gens span the space) these are its extreme
    rays, exactly as toric.dual_cone gives them.  Otherwise the greedy
    pruning keeps some irredundant set of the same cone, which need not
    be toric's canonical one.

    Up to rank 3 the candidates are the generators, the nullspace and
    their pairwise perpendiculars (both signs), filtered by the
    half-space conditions; above it the generators must form a basis
    and the dual basis is read off the inverse matrix.  Raises
    ValueError above rank 3 when they do not: the package answers
    those cones as well, and the tests check its answer by duality.
    """
    if rank > 3:
        if len(gens) != rank:
            raise ValueError("not simplicial and full-dimensional")
        cols = []
        for j in range(rank):
            col = gauss_solve(gens, [int(i == j) for i in range(rank)])
            if col is None:
                raise ValueError("dependent generators")
            cols.append(_clear_denominators(col))
        return cone_generators(cols, rank)
    if not gens:
        return cone_generators(
            [tuple(s * int(i == j) for j in range(rank))
             for i in range(rank) for s in (1, -1)], rank)
    pool = list(gens) + nullspace_vectors(gens, rank)
    cands = [w for v in pool for w in (v, tuple(-c for c in v))]
    if rank == 2:
        cands += [w for v in gens for w in ((-v[1], v[0]), (v[1], -v[0]))]
    elif rank == 3:
        for u, v in combinations(pool, 2):
            w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
            cands += [w, tuple(-c for c in w)]
    valid = []
    for c in cands:
        cp = _primitive(c)
        if cp is None or cp in valid:
            continue
        if all(sum(a * b for a, b in zip(cp, v)) >= 0 for v in gens):
            valid.append(cp)
    return cone_generators(valid, rank)


def section_points(rays, coefficients, scale: int):
    """Points u of (1/scale)Z^rank with <u, v_i> >= -a_i, for a bounded
    polytope: vertices from square ray subsets bound a box whose grid
    points are filtered over Fraction."""
    rank = len(rays[0])
    vertices = []
    for idx in combinations(range(len(rays)), rank):
        u = gauss_solve([rays[i] for i in idx],
                        [-coefficients[i] for i in idx])
        if u is not None and all(
                sum(x * y for x, y in zip(u, v)) >= -a
                for v, a in zip(rays, coefficients)):
            vertices.append(u)
    if not vertices:
        return []
    lows = [ceil(min(v[j] for v in vertices) * scale) for j in range(rank)]
    highs = [floor(max(v[j] for v in vertices) * scale)
             for j in range(rank)]
    out = []
    for grid in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        u = tuple(Fraction(z, scale) for z in grid)
        if all(sum(x * y for x, y in zip(u, v)) >= -a
               for v, a in zip(rays, coefficients)):
            out.append(u)
    return sorted(out)
