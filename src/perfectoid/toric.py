"""Fans, torus-invariant divisors, section lattices, and transfer.

Cones and fans are exact integer-lattice objects; all of the polyhedral
work (dualization, face enumeration, membership, section enumeration)
runs on Python integers through one fraction-free (Bareiss) elimination,
over generators of small rank, which is the regime the varieties here
live in: projective spaces and products of them.  Fractions appear only
at the boundary, in divisor coefficients and section points.  On top
of the combinatorics sit the section spaces of torus-invariant divisors
(including fractional ones on the p-divided character lattice), the
coordinatewise p-power map of the Frobenius tower, and the transfer of
a hypersurface section to the characteristic-p side with its p-power
integralization.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd, lcm, log2, prod

from .arith import (
    BudgetError,
    ConfigError,
    FieldConfig,
    KernelError,
    UntiltElement,
    check_prime,
    denominator_power,
)


class ConeError(KernelError):
    """Polyhedral-data violation: bad cone, fan, or section polytope."""


# =====================================================================
# Exact linear algebra helpers
# =====================================================================

def _as_vector(v, rank: int) -> tuple[int, ...]:
    try:
        tup = tuple(int(c) for c in v)
    except (TypeError, ValueError) as exc:
        raise ConeError(f"not an integer vector: {v!r}") from exc
    if len(tup) != rank:
        raise ConeError(f"vector {tup} has length {len(tup)}, expected "
                        f"{rank}")
    return tup


def _primitive(v: tuple[int, ...]) -> tuple[int, ...] | None:
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g == 0:
        return None
    return tuple(c // g for c in v)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Bareiss's step M[r][c] <- (d M[r][c] - M[r][col] M[k][c]) / prev
    divides exactly, since every entry it produces is a minor of the
    input, so the matrix stays integral throughout.  A row swap negates
    one of the two rows, which keeps every minor's sign.  Returns the
    final matrix and its pivot columns: all pivot entries then equal the
    last pivot d, the leading rows are d times the reduced row echelon
    form, and the rest are zero.  For a nonsingular square A, d = det A;
    for the block matrix [A | B], the right block is adj(A) B.
    """
    M = [list(row) for row in rows]
    width = len(M[0]) if M else 0
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        k = len(pivots)
        piv = next((r for r in range(k, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        if piv != k:
            M[k], M[piv] = M[piv], [-c for c in M[k]]
        d, prow = M[k][col], M[k]
        for r, row in enumerate(M):
            if r != k:
                f = row[col]
                M[r] = [(d * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(col)
        prev = d
    return M, pivots


def _matrix_rank(rows) -> int:
    return len(_eliminate(rows)[1])


def _det(rows) -> int:
    """Exact determinant of a square integer matrix."""
    M, pivots = _eliminate(rows)
    return M[-1][-1] if len(pivots) == len(M) else 0


def _solve_conic(columns, target) -> bool:
    """Whether target is a nonnegative combination of the columns.

    One elimination of [A | target], A having the given columns.  The
    columns are independent and target lies in their span exactly when
    the pivots are the first s columns; dependent column sets report
    False and are covered by another subset of the caller's enumeration.
    The leading rows are then d = M[0][0] times the reduced row echelon
    form, so the unique coefficients are row[s] / d, nonnegative exactly
    when row[s] * d >= 0.
    """
    s = len(columns)
    M, pivots = _eliminate(zip(*columns, target))
    if pivots != list(range(s)):
        return False
    d = M[0][0]
    return all(row[s] * d >= 0 for row in M)


def _in_cone(vec, gens) -> bool:
    """Exact membership of vec in the cone spanned by gens.

    A member is a nonnegative combination of independent generators
    (Caratheodory), and those extend within gens to a basis of their
    span, so the subsets of gens of the span's dimension suffice.
    """
    size = _matrix_rank(gens)
    return any(_solve_conic(sub, vec) for sub in combinations(gens, size))


def _is_pointed(gens, rank: int) -> bool:
    """Whether the cone of the nonzero gens holds no line, no nontrivial
    nonnegative combination summing to zero: the origin is not in their
    convex hull, nor (0, 1) in the cone of the lifts (v, 1)."""
    return not _in_cone((0,) * rank + (1,), [v + (1,) for v in gens])


def _irredundant(gens) -> list:
    """Sorted distinct gens less each one in the cone of the others left
    at its turn.  One pass suffices: a kept generator stays outside the
    cone of the fewer generators left after it."""
    out = sorted(set(gens))
    for v in list(out):
        if _in_cone(v, [w for w in out if w != v]):
            out.remove(v)
    return out


def _nullspace_vectors(vectors, rank: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : <v, x> = 0 for all v}.

    One per free column f of the elimination: x_f = d and
    x_pcol = -M[r][f] on the pivot columns, which is d times the
    rational basis vector with x_f = 1; it is negated when d < 0, so
    that both point the same way.
    """
    M, pivots = _eliminate(vectors)
    d = M[0][pivots[0]] if pivots else 1
    out = []
    for free in range(rank):
        if free in pivots:
            continue
        vec = [0] * rank
        vec[free] = d
        for row, pcol in zip(M, pivots):
            vec[pcol] = -row[free]
        out.append(_primitive(tuple(c if d > 0 else -c for c in vec)))
    return out


def _nonneg_solutions(vectors, rank: int) -> list[tuple[int, ...]]:
    """Generators of {u : <u, v> >= 0 for all v}, in any rank.

    The solutions form a cone whose lineality space L is the nullspace
    of the vectors, and modulo L a pointed cone inside their span S.
    Each extreme ray of that pointed cone is the line of S cut out by
    dim S - 1 independent active vectors (Schrijver 1986, section 8),
    that is the line orthogonal to those vectors and a basis of L:
    rank - 1 independent vectors in all.  So both signs of the basis of
    L and of the line orthogonal to every independent (rank - 1)-subset
    of the vectors and that basis hold a generating set; filtering by
    the half-spaces and pruning leave an irredundant one.
    """
    lineality = _nullspace_vectors(vectors, rank)
    lines = list(lineality)
    for sub in combinations(list(vectors) + lineality, rank - 1):
        # an independent subset leaves one free column, hence one line
        kernel = _nullspace_vectors(sub, rank)
        if len(kernel) == 1:
            lines += kernel
    valid = {u for line in lines for u in (line, tuple(-c for c in line))
             if all(_dot(u, v) >= 0 for v in vectors)}
    return _irredundant(valid)


# =====================================================================
# Cones
# =====================================================================

class Cone:
    """A rational polyhedral cone given by generators in Z^rank.

    Generators are normalized to primitive, irredundant, sorted form,
    so equal cones compare equal structurally.  Construction rejects
    cones containing a line unless pointed=False is passed (dual cones
    of lower-dimensional cones are genuinely not pointed).
    """

    __slots__ = ("rank", "generators", "pointed")

    def __init__(self, rank: int, generators, *, pointed: bool = True):
        if not isinstance(rank, int) or rank < 1:
            raise ConeError(f"rank must be a positive integer, got {rank!r}")
        raw = []
        for v in generators:
            vec = _primitive(_as_vector(v, rank))
            if vec is not None:
                raw.append(vec)
        gens = tuple(_irredundant(raw))
        is_pointed = _is_pointed(gens, rank)
        if pointed and not is_pointed:
            raise ConeError(
                f"generators {gens} span a cone containing a line "
                f"through the origin")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "pointed", is_pointed)

    @classmethod
    def _trusted(cls, rank: int, generators: tuple, pointed: bool) -> "Cone":
        """Wraps generators that are already primitive, irredundant and
        sorted, with their pointedness known; nothing is re-derived."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "pointed", pointed)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("cones are immutable")

    @property
    def dim(self) -> int:
        return _matrix_rank(self.generators)

    def contains(self, vec) -> bool:
        return _in_cone(tuple(vec), self.generators)

    def faces(self) -> list["Cone"]:
        """All faces, the cone itself and the minimal face included.

        Simplicial cones (any rank) have exactly the generator subsets
        as faces.  Otherwise a face is the zero locus of a supporting
        functional, and summing subsets of the dual generators reaches
        the relative interior of every dual face, hence every face
        downstairs; that route runs through half-space intersection, in
        any rank.  A subset of normalized generators is normalized, so
        faces are not normalized again.
        """
        if not self.generators:
            return [self]
        if self.pointed and self.dim == len(self.generators):
            return [Cone._trusted(self.rank, sub, True)
                    for r in range(len(self.generators) + 1)
                    for sub in combinations(self.generators, r)]
        duals = _nonneg_solutions(self.generators, self.rank)
        seen: dict[tuple, Cone] = {}
        for r in range(len(duals) + 1):
            for sub in combinations(duals, r):
                u = tuple(sum(col) for col in zip(*sub)) if sub \
                    else (0,) * self.rank
                fgens = tuple(v for v in self.generators
                              if _dot(u, v) == 0)
                if fgens not in seen:
                    seen[fgens] = Cone._trusted(
                        self.rank, fgens,
                        self.pointed or _is_pointed(fgens, self.rank))
        return list(seen.values())

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.rank, self.generators) == (other.rank,
                                                other.generators)

    def __hash__(self):
        return hash((self.rank, self.generators))

    def to_json(self) -> list:
        return [list(v) for v in self.generators]

    def __repr__(self):
        return f"<cone {list(self.generators)} in Z^{self.rank}>"


def dual_cone(cone: Cone) -> Cone:
    """The cone of functionals nonnegative on the input.

    Computed by half-space intersection in any rank, which already
    returns primitive, irredundant, sorted generators; the dual is
    pointed exactly when the input is full-dimensional.
    """
    if not isinstance(cone, Cone):
        raise ConeError(f"not a cone: {cone!r}")
    gens = _nonneg_solutions(cone.generators, cone.rank)
    return Cone._trusted(cone.rank, tuple(gens), cone.dim == cone.rank)


# =====================================================================
# Fans
# =====================================================================

class Fan:
    """A finite face-closed collection of pointed cones.

    Construction closes the input under faces (so listing only maximal
    cones is fine) and checks that every pairwise intersection of
    maximal cones is a common face, reporting the offending pair
    otherwise.
    """

    __slots__ = ("rank", "cones", "maximal_cones")

    def __init__(self, rank: int, cones):
        built = []
        for c in cones:
            if isinstance(c, Cone):
                if c.rank != rank:
                    raise ConeError(f"cone rank {c.rank} does not match "
                                    f"fan rank {rank}")
                if not c.pointed:
                    raise ConeError(f"cone {list(c.generators)} contains "
                                    f"a line through the origin")
                built.append(c)
            else:
                built.append(Cone(rank, c))
        if not built:
            raise ConeError("a fan needs at least one cone")
        # every cone of the closure is a face of an input cone, and so
        # lies inside it: only input cones can be maximal
        faces = {c: c.faces() for c in built}
        closed = {f for fs in faces.values() for f in fs}
        allc = sorted(closed, key=lambda c: (len(c.generators),
                                             c.generators))
        maximal = [c for c in allc if c in faces
                   and not any(o != c and _subcone(c, o) for o in faces)]
        face_pool = {f for m in maximal for f in faces[m]}
        for c in allc:
            if c not in face_pool:
                host = next(o for o in maximal if _subcone(c, o))
                raise ConeError(
                    f"cone {list(c.generators)} lies inside "
                    f"{list(host.generators)} without being a face of it")
        duals = {m: _nonneg_solutions(m.generators, rank) for m in maximal}
        for a, b in combinations(maximal, 2):
            defect = _intersection_defect(faces[a], faces[b], duals[a],
                                          duals[b], rank)
            if defect is not None:
                raise ConeError(
                    f"cones {list(a.generators)} and {list(b.generators)} "
                    f"{defect}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cones", tuple(allc))
        object.__setattr__(self, "maximal_cones", tuple(maximal))

    def __setattr__(self, name, value):
        raise AttributeError("fans are immutable")

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.generators[0] for c in self.cones
                     if len(c.generators) == 1 and c.dim == 1)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return (self.rank, self.cones) == (other.rank, other.cones)

    def __hash__(self):
        return hash((self.rank, self.cones))

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "cones": [c.to_json() for c in self.maximal_cones]}

    @classmethod
    def from_json(cls, data: dict | str) -> "Fan":
        if isinstance(data, str):
            data = json.loads(data)
        try:
            return cls(int(data["rank"]), data["cones"])
        except (KeyError, TypeError) as exc:
            raise ConeError(f"malformed fan JSON: {exc}") from exc

    def __repr__(self):
        return (f"<fan in Z^{self.rank}, {len(self.maximal_cones)} maximal "
                f"cones>")


def _subcone(a: Cone, b: Cone) -> bool:
    return all(_in_cone(v, b.generators) for v in a.generators)


def _intersection_defect(a_faces: list[Cone], b_faces: list[Cone],
                         a_duals: list, b_duals: list,
                         rank: int) -> str | None:
    """None when the intersection of two cones is a common face, else a
    witness.

    a_faces and b_faces are the faces of the cones, a_duals and b_duals
    the generators of their duals.  The intersection is computed
    outright by double dualization, in any rank, and must be the one
    maximal common face.
    """
    b_faces = set(b_faces)
    common = [f for f in a_faces if f in b_faces]
    maxes = [f for f in common
             if not any(g != f and _subcone(f, g) for g in common)]
    if len(maxes) != 1:
        return (f"share several maximal faces "
                f"{[list(f.generators) for f in maxes]}")
    gens = _nonneg_solutions(sorted(set(a_duals) | set(b_duals)), rank)
    # normalized by _nonneg_solutions; a meet of pointed cones is pointed
    inter = Cone._trusted(rank, tuple(gens), True)
    if inter != maxes[0]:
        return (f"meet in {list(inter.generators)}, which is not a "
                f"common face")
    return None


def validate_fan(cones, rank: int | None = None) -> Fan:
    """Builds a Fan from maximal cones, inferring rank when possible."""
    cones = list(cones)
    if rank is None:
        for c in cones:
            if isinstance(c, Cone):
                rank = c.rank
                break
            if c:
                rank = len(list(c[0]))
                break
    if rank is None:
        raise ConeError("cannot infer the fan rank; pass it explicitly")
    return Fan(rank, cones)


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone's generators extend to a lattice basis."""
    for cone in fan.maximal_cones:
        if not cone.generators:
            continue
        k = len(cone.generators)
        if k != cone.dim:
            return False
        # k independent generators extend to a lattice basis exactly
        # when the gcd of their k x k minors (the product of the Smith
        # invariant factors) is 1
        g = 0
        for cols in combinations(range(fan.rank), k):
            g = gcd(g, _det([[v[c] for c in cols]
                             for v in cone.generators]))
            if g == 1:
                break
        if g != 1:
            return False
    return True


def is_complete(fan: Fan) -> bool:
    """Whether the support covers all of R^rank, in any rank.

    A fan of full-dimensional cones covers space exactly when it has no
    boundary, i.e. every codimension-1 face lies in precisely two
    maximal cones.
    """
    maximal = fan.maximal_cones
    if not maximal or any(c.dim != fan.rank for c in maximal):
        return False
    facets: Counter = Counter()
    for c in maximal:
        for f in c.faces():
            if f.dim == fan.rank - 1:
                facets[f] += 1
    return bool(facets) and all(n == 2 for n in facets.values())


# =====================================================================
# Divisors and sections
# =====================================================================

class TWeilDivisor:
    """A rational coefficient per ray of the fan.

    Integer coefficients give honest torus-invariant divisors; p-power
    denominators give their fractional counterparts on the p-divided
    character lattice (denominators are validated where a p is in
    play, at section enumeration).
    """

    __slots__ = ("fan", "coefficients")

    def __init__(self, fan: Fan, coefficients):
        if not isinstance(fan, Fan):
            raise ConeError(f"not a fan: {fan!r}")
        rays = fan.rays
        if isinstance(coefficients, dict):
            keyed = {tuple(k): Fraction(v) for k, v in coefficients.items()}
            missing = [r for r in rays if r not in keyed]
            extra = [k for k in keyed if k not in rays]
            if missing or extra:
                raise ConeError(
                    f"coefficients must be indexed exactly by the rays; "
                    f"missing {missing}, extraneous {extra}")
            coeffs = tuple(keyed[r] for r in rays)
        else:
            coeffs = tuple(Fraction(c) for c in coefficients)
            if len(coeffs) != len(rays):
                raise ConeError(
                    f"{len(coeffs)} coefficients for {len(rays)} rays")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("divisors are immutable")

    def scaled(self, factor) -> "TWeilDivisor":
        factor = Fraction(factor)
        return TWeilDivisor(self.fan,
                            [a * factor for a in self.coefficients])

    def to_json(self) -> dict:
        return {"rays": [list(r) for r in self.fan.rays],
                "coefficients": [str(a) for a in self.coefficients]}

    @classmethod
    def from_json(cls, fan: Fan, data: dict | str) -> "TWeilDivisor":
        if isinstance(data, str):
            data = json.loads(data)
        try:
            coeffs = [Fraction(a) for a in data["coefficients"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConeError(f"malformed divisor JSON: {exc}") from exc
        if "rays" in data:
            given = tuple(tuple(int(c) for c in r) for r in data["rays"])
            if given != fan.rays:
                raise ConeError(
                    f"divisor rays {list(given)} do not match the fan's "
                    f"rays {list(fan.rays)}")
        return cls(fan, coeffs)

    def __repr__(self):
        parts = [f"{a}*D{list(r)}" for a, r in
                 zip(self.coefficients, self.fan.rays) if a != 0]
        return "<divisor " + (" + ".join(parts) or "0") + ">"


# Largest box of grid points sections() enumerates (about 0.3 s); a
# bigger box is refused before enumeration.
_SECTION_BUDGET = 2 ** 16


def sections(fan: Fan, divisor: TWeilDivisor, dencap: int = 0,
             p: int | None = None) -> list[tuple[Fraction, ...]]:
    """Lattice points of the divisor's section polytope.

    The global sections of O(D) are spanned by the characters u with
    <u, v_i> >= -a_i for every ray v_i; dencap m refines the character
    lattice to (1/p^m)-points for the fractional theory.  Enumeration
    is exact and runs in integers: with q the common denominator of the
    a_i, each candidate vertex from a ray subset is x / (d q) for the
    integer solution x and determinant d of one elimination; the
    vertices bound a box on the p^m-scaled grid, whose points z pass
    when <z, v_i> >= -floor(a_i p^m).  Only the box's unscaled extents
    and the returned points become Fractions; a box too large by far is
    refused from those extents, before p^m is computed.

    Raises:
        ConeError: unbounded polytope, coefficients off the p-power
            denominator lattice, or a dencap that is not a nonnegative
            integer.
        ConfigError, BudgetError: p is refused as FieldConfig refuses it.
        BudgetError: the box holds more than _SECTION_BUDGET points.
            The largest box that the tests, ``perfectoid suite``, the
            bundled fixtures and the benchmark build has 216 points
            (degree 5 on projective 3-space).
    """
    if not isinstance(divisor, TWeilDivisor) or divisor.fan != fan:
        raise ConeError("divisor does not live on this fan")
    if not isinstance(dencap, int):
        raise ConeError(f"dencap must be an integer, got {dencap!r}")
    if dencap < 0:
        raise ConeError(f"dencap must be nonnegative, got {dencap}")
    if (dencap > 0 or any(a.denominator != 1
                          for a in divisor.coefficients)) and p is None:
        raise ConeError("fractional data needs the prime p")
    if p is not None:
        check_prime(p)
        for a in divisor.coefficients:
            if denominator_power(a.denominator, p) is None:
                raise ConeError(
                    f"coefficient {a} has a denominator not a power of "
                    f"{p}")
    rays = fan.rays
    if not rays:
        raise ConeError("the fan has no rays; the polytope is unbounded")
    # The polytope is bounded exactly when its recession cone
    # {u : <u, v_i> >= 0} is zero, that is when it has no generator.
    recession = _nonneg_solutions(rays, fan.rank)
    if recession:
        raise ConeError(
            f"unbounded polytope: direction {recession[0]} satisfies "
            f"every ray inequality")
    q = lcm(*(a.denominator for a in divisor.coefficients))
    qa = [a.numerator * (q // a.denominator) for a in divisor.coefficients]
    lows = highs = None
    for idx in combinations(range(len(rays)), fan.rank):
        M, pivots = _eliminate([list(rays[i]) + [-qa[i]] for i in idx])
        if pivots != list(range(fan.rank)):
            continue
        d = M[0][0]
        x = [row[-1] if d > 0 else -row[-1] for row in M]
        d = abs(d)
        if all(_dot(x, v) >= -b * d for v, b in zip(rays, qa)):
            ends = [Fraction(c, d * q) for c in x]
            lows = ends if lows is None else list(map(min, lows, ends))
            highs = ends if highs is None else list(map(max, highs, ends))
    if lows is None:
        return []
    bits = _box_bits(lows, highs, p, dencap)
    if bits is None:
        scale = (p ** dencap) if dencap else 1
        lows = [-(-e.numerator * scale // e.denominator) for e in lows]
        highs = [e.numerator * scale // e.denominator for e in highs]
        points = prod(max(hi - lo + 1, 0) for lo, hi in zip(lows, highs))
        if points <= _SECTION_BUDGET:
            floors = [b * scale // q for b in qa]
            return [tuple(Fraction(z, scale) for z in grid)
                    for grid in product(*(range(lo, hi + 1)
                                          for lo, hi in zip(lows, highs)))
                    if all(_dot(grid, v) >= -f for v, f in zip(rays, floors))]
        # str() refuses integers of more than 4300 digits
        count = (str(points) if points < 10 ** 18
                 else f"at least 2^{points.bit_length() - 1}")
    else:
        count = f"at least 2^{bits}"
    raise BudgetError(
        f"the section box has {count} lattice points, over the "
        f"budget of {_SECTION_BUDGET}")


def _box_bits(lows, highs, p, dencap) -> int | None:
    """floor(log2) of the point count of the box [lows, highs] scaled by
    p^dencap; None when a side holds under 2^64 points, or when the sum
    is within rounding of an integer and the sides do not decide it.  A
    side of width w holds w p^dencap + 1 points or fewer and 1 fewer at
    least, so past 2^64 its log2 is within 2^-63 of the term summed
    below."""
    if not dencap or any(hi <= lo for lo, hi in zip(lows, highs)):
        return None
    widths = [hi - lo for lo, hi in zip(lows, highs)]
    sides = [dencap * log2(p) + log2(w.numerator) - log2(w.denominator)
             for w in widths]
    total = sum(sides)
    bits = floor(total)
    margin = 1e-9 + total * 1e-13
    if min(sides) < 64:
        return None
    if margin < total - bits < 1 - margin:
        return bits
    if p == 2 and not any(w.numerator & (w.numerator - 1)
                          or w.denominator & (w.denominator - 1)
                          for w in widths):
        # w 2^m is an integer, so a side holds w 2^m + 1 points when its
        # corners are on the grid and w 2^m otherwise: the count is
        # 2^(sum of log2 w + n m) or above, and under twice that
        return sum(w.numerator.bit_length() - w.denominator.bit_length()
                   for w in widths) + len(widths) * dencap
    return None


# =====================================================================
# Frobenius tower
# =====================================================================

def frobenius_pullback(x, p: int | None = None):
    """Pullback along multiplication by p on the character lattice.

    Section lattice points map to p*u.  Homogeneous coordinate
    elements map termwise: exponent vectors are multiplied by p and
    each coefficient is raised to the p-th power, which on the
    characteristic-p side is exactly the Frobenius.
    """
    from .tatealg import HomogeneousElement
    if isinstance(x, HomogeneousElement):
        config = x.config
        terms = {
            m.scaled(config.p):
            c ** config.p
            for m, c in x.terms.items()
        }
        return HomogeneousElement(config, x.kind, x.nvars,
                                  x.degree * config.p, terms)
    if p is None:
        raise ConeError("lattice-point pullback needs the prime p")
    return tuple(Fraction(c) * p for c in x)


# =====================================================================
# Hypersurface transfer
# =====================================================================

def projective_fan(n: int) -> Fan:
    """The standard fan of n-dimensional projective space."""
    if not isinstance(n, int) or n < 1:
        raise ConeError(f"dimension must be a positive integer, got {n!r}")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return Fan(n, [list(sub) for sub in combinations(rays, n)])


def _projective_dimension(fan: Fan) -> int | None:
    n = fan.rank
    if fan == projective_fan(n):
        return n
    return None


class TransferResult:
    """Outcome of a hypersurface transfer.

    approximant: the section over the characteristic-p side.
    twist: how many Frobenius twists clear the degree's denominator.
    integralized: approximant twisted that many times (an integer-degree
        regular section).
    report: the pointwise contract verdicts backing the approximant.
    """

    __slots__ = ("approximant", "twist", "integralized", "report")

    def __init__(self, approximant: HomogeneousElement, twist: int,
                 integralized: HomogeneousElement, report: ContractReport):
        object.__setattr__(self, "approximant", approximant)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "integralized", integralized)
        object.__setattr__(self, "report", report)

    def __setattr__(self, name, value):
        raise AttributeError("transfer results are immutable")

    def to_json(self) -> dict:
        return {"g": self.approximant.to_json(),
                "twist": self.twist,
                "h": self.integralized.to_json(),
                "report": self.report.to_json()}


def _transfer_sample(config: FieldConfig, nvars: int, cap: int = 20):
    """Unit-ball coordinate tuples with some coordinate a unit, plus
    the sup-norm point."""
    from .tatealg import ClassicalPoint, GaussPoint
    values = [
        UntiltElement.zero(config),
        UntiltElement.one(config),
        UntiltElement.uniformizer(config),
        UntiltElement.monomial(config, 1, Fraction(1, config.p)),
    ]
    unit = values[1]
    points = [GaussPoint()]
    for combo in product(values, repeat=nvars):
        if len(points) > cap:
            break
        if not any(c is unit for c in combo):
            continue
        points.append(ClassicalPoint(combo))
    return points


def hypersurface_transfer(fan: Fan, f: HomogeneousElement, c,
                          eps) -> TransferResult:
    """Moves a hypersurface section to the characteristic-p side.

    Works in the homogeneous coordinate model of projective space: the
    section f is approximated by a sharp image g of the same degree,
    the contract is verified on a fixed sample of unit-normalized
    coordinate points, and g is Frobenius-twisted until its degree is
    an integer, giving a regular section h = g^(p^twist).

    Raises:
        ConeError: fan is not a projective-space fan matching f's
            variable count, or f is not on the untilt side.
        ApproximationError / precision errors: propagated from the
            approximation loop.
    """
    from .tatealg import HomogeneousElement, approximate, verify_contract
    if not isinstance(f, HomogeneousElement) or f.kind != "untilt":
        raise ConeError("transfer starts from a section over the "
                        "characteristic-0 side")
    n = _projective_dimension(fan)
    if n is None:
        raise ConeError("hypersurface transfer runs on the standard "
                        "projective-space fan")
    if f.nvars != n + 1:
        raise ConeError(
            f"{f.nvars} homogeneous coordinates do not match P^{n}")
    g = approximate(f, c, eps)
    p = f.config.p
    twist = 0
    degree = f.degree
    while (degree * p ** twist).denominator != 1:
        twist += 1
    h = g
    for _ in range(twist):
        h = frobenius_pullback(h)
    sample = _transfer_sample(f.config, f.nvars)
    report = verify_contract(f, g, c, eps, sample)
    return TransferResult(g, twist, h, report)


def complete_intersection_degree(degrees) -> Fraction:
    """Degree of a transverse intersection of hypersurfaces against the
    ample class: the product of the individual degrees.  Each factor
    cuts the dimension by one, so intersecting two transferred
    hypersurfaces is plain bookkeeping on (degree, codimension)."""
    out = Fraction(1)
    for d in degrees:
        out *= Fraction(d)
    return out
