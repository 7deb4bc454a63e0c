"""Fans, torus-invariant divisors, section lattices, and transfer.

Cones and fans are exact integer-lattice objects; the polyhedral work
runs on Python integers through one fraction-free (Bareiss) elimination,
over generators of small rank, which is the regime the varieties here
live in: projective spaces and products of them.  A cone is built once
into one canonical generator form, by the rank test of the double
description method, together with the same form of its dual: membership
is then a sign test against the dual generators, dualizing swaps the
two, and faces are read off sums of dual generators.  Fractions appear
only at the boundary, in divisor coefficients and section points.  On top
of the combinatorics sit the section spaces of torus-invariant divisors
(including fractional ones on the p-divided character lattice), the
coordinatewise p-power map of the Frobenius tower, and the transfer of
a hypersurface section to the characteristic-p side with its p-power
integralization.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd, lcm, log2, prod

from .arith import (
    BudgetError,
    FieldConfig,
    KernelError,
    UntiltElement,
    _Frozen,
    _fraction,
    _integer,
    _is_int,
    _json_reader,
    _Value,
    check_prime,
    denominator_power,
)

__all__ = [
    "ConeError", "Cone", "dual_cone", "Fan", "is_smooth", "is_complete",
    "TWeilDivisor", "sections", "frobenius_pullback", "projective_fan",
    "TransferResult", "hypersurface_transfer",
]


class ConeError(KernelError):
    """Polyhedral-data violation: bad cone, fan, or section polytope."""


# =====================================================================
# Exact linear algebra helpers
# =====================================================================

def _int_tuple(v) -> tuple[int, ...]:
    """The entries of v, which must be integers: a float or a string is
    refused rather than converted, so nothing is truncated."""
    try:
        tup = tuple(v)
    except TypeError as exc:
        raise ConeError(f"not an integer vector: {v!r}") from exc
    if not all(map(_is_int, tup)):
        raise ConeError(f"not an integer vector: {v!r}")
    return tup


def _as_vector(v, rank: int) -> tuple[int, ...]:
    tup = _int_tuple(v)
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


def _nonneg_solutions(vectors, rank: int) -> tuple[tuple[int, ...], ...]:
    """Canonical generators of {u : <u, v> >= 0 for all v}, in any rank.

    The solutions form a cone whose lineality space L is the nullspace
    of the vectors, and modulo L a pointed cone inside their span S, the
    orthogonal complement of L.  Its generators, sorted, are:

    - both signs of the primitive basis of L that elimination reads off
      the vectors; it depends only on S, through the reduced row echelon
      form;
    - the primitive vector of S on each extreme ray of the pointed cone.
      By the rank test of the double description method (Motzkin et al.
      1953; Fukuda and Prodon 1996) such a ray is the line of S cut out
      by dim S - 1 independent vectors, that is the line orthogonal to
      them and to the basis of L.  Each (dim S - 1)-subset of the
      vectors that leaves one such line contributes it, with the sign
      that pairs >= 0 with every vector, if either does.

    No candidate is redundant, so nothing is pruned, and the result
    depends only on the solution cone: equal cones get equal generators.
    """
    lineality = _nullspace_vectors(vectors, rank)
    out = {w for u in lineality for w in (u, tuple(-c for c in u))}
    size = rank - len(lineality) - 1  # dim S - 1, or -1 when S = 0
    for sub in combinations(vectors, size) if size >= 0 else ():
        kernel = _nullspace_vectors(list(sub) + lineality, rank)
        if len(kernel) == 1:
            u = kernel[0]
            for w in (u, tuple(-c for c in u)):
                if w not in out and all(_dot(w, v) >= 0 for v in vectors):
                    out.add(w)
    return tuple(sorted(out))


# =====================================================================
# Cones
# =====================================================================

class Cone(_Value):
    """A rational polyhedral cone given by generators in Z^rank.

    Generators are in one canonical form, so equal cones compare equal
    structurally: both signs of a primitive basis of the lineality space
    (the largest subspace in the cone), and the primitive vector on each
    extreme ray of the cone modulo that space, taken orthogonal to it;
    sorted.  The constructor reaches it as the dual of the dual, except
    when the primitive generators are linearly independent: that cone is
    pointed and simplicial, every generator spans an extreme ray and is
    primitive, so the sorted generators are already canonical.  The
    first dualization tells the cases apart, as its lineality pairs
    number rank - dim span.  A cone keeps the same form of its dual, so
    membership is a sign test and dualizing swaps the two.  Construction
    rejects cones containing a line unless pointed=False is passed (dual
    cones of lower-dimensional cones are genuinely not pointed).
    """

    __slots__ = ("rank", "generators", "_duals")

    def __init__(self, rank: int, generators, *, pointed: bool = True):
        _integer(rank, "rank", 1, ConeError)
        raw = {_primitive(_as_vector(v, rank)) for v in generators} - {None}
        duals = _nonneg_solutions(raw, rank)
        members = set(duals)
        pairs = sum(tuple(-c for c in u) in members for u in duals) // 2
        gens = (tuple(sorted(raw)) if pairs == rank - len(raw)
                else _nonneg_solutions(duals, rank))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_duals", duals)
        if pointed and not self.pointed:
            raise ConeError(
                f"generators {self.generators} span a cone containing a "
                f"line through the origin")

    @classmethod
    def _trusted(cls, rank: int, generators: tuple) -> "Cone":
        """Wraps generators already in canonical form; nothing is
        re-derived, and the dual generators wait until they are read."""
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_duals", None)
        return self

    def _key(self) -> tuple:
        return self.rank, self.generators

    @property
    def duals(self) -> tuple[tuple[int, ...], ...]:
        """Canonical generators of the dual cone, computed once."""
        if self._duals is None:
            object.__setattr__(self, "_duals",
                               _nonneg_solutions(self.generators, self.rank))
        return self._duals

    @property
    def pointed(self) -> bool:
        """Whether the cone holds no line: in canonical form a line shows
        as a generator whose negative is a generator too."""
        gens = set(self.generators)
        return not any(tuple(-c for c in v) in gens for v in gens)

    @property
    def dim(self) -> int:
        return _matrix_rank(self.generators)

    def contains(self, vec) -> bool:
        vec = _as_vector(vec, self.rank)
        return all(_dot(u, vec) >= 0 for u in self.duals)

    def faces(self) -> list["Cone"]:
        """All faces, the cone itself and the minimal face included.

        Simplicial cones (any rank) have exactly the generator subsets
        as faces.  Otherwise a face is the zero locus of a supporting
        functional, and summing subsets of the dual generators reaches
        the relative interior of every dual face, hence every face
        downstairs.  A face holds the cone's lineality space, so it is
        pointed exactly when the cone is, and its canonical generators
        are those of the cone's that it contains.
        """
        if not self.generators:
            return [self]
        if self.pointed and self.dim == len(self.generators):
            return [Cone._trusted(self.rank, sub)
                    for r in range(len(self.generators) + 1)
                    for sub in combinations(self.generators, r)]
        seen: dict[tuple, Cone] = {}
        for r in range(len(self.duals) + 1):
            for sub in combinations(self.duals, r):
                u = tuple(sum(col) for col in zip(*sub)) if sub \
                    else (0,) * self.rank
                fgens = tuple(v for v in self.generators
                              if _dot(u, v) == 0)
                if fgens not in seen:
                    seen[fgens] = Cone._trusted(self.rank, fgens)
        return list(seen.values())

    def to_json(self) -> list:
        return [list(v) for v in self.generators]

    def __repr__(self):
        return f"<cone {list(self.generators)} in Z^{self.rank}>"


def dual_cone(cone: Cone) -> Cone:
    """The cone of functionals nonnegative on the input.

    A cone keeps its dual's canonical generators, so this swaps the
    two tuples and eliminates nothing.
    """
    if not isinstance(cone, Cone):
        raise ConeError(f"not a cone: {cone!r}")
    dual = Cone._trusted(cone.rank, cone.duals)
    object.__setattr__(dual, "_duals", cone.generators)
    return dual


# =====================================================================
# Fans
# =====================================================================

class Fan(_Value):
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
        # the fan condition: two maximal cones meet in a face of each.
        # The meet is the dual of their duals, computed in any rank; it
        # and the faces are in canonical form, so generators compare
        face_gens = {m: {f.generators for f in faces[m]} for m in maximal}
        for a, b in combinations(maximal, 2):
            meet = _nonneg_solutions(set(a.duals) | set(b.duals), rank)
            if meet not in face_gens[a] or meet not in face_gens[b]:
                raise ConeError(
                    f"cones {list(a.generators)} and {list(b.generators)} "
                    f"meet in {list(meet)}, which is not a common face")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cones", tuple(allc))
        object.__setattr__(self, "maximal_cones", tuple(maximal))

    def _key(self) -> tuple:
        return self.rank, self.cones

    @property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.generators[0] for c in self.cones
                     if len(c.generators) == 1 and c.dim == 1)

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "cones": [c.to_json() for c in self.maximal_cones]}

    @classmethod
    @_json_reader("fan", ConeError)
    def from_json(cls, data: dict | str) -> "Fan":
        # the rank is checked, not converted, where the cones are built
        return cls(data["rank"], data["cones"])

    def __repr__(self):
        return (f"<fan in Z^{self.rank}, {len(self.maximal_cones)} maximal "
                f"cones>")


def _subcone(a: Cone, b: Cone) -> bool:
    return all(b.contains(v) for v in a.generators)


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

class TWeilDivisor(_Value):
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
            keyed = {_int_tuple(k): v for k, v in coefficients.items()}
            missing = [r for r in rays if r not in keyed]
            extra = [k for k in keyed if k not in rays]
            if missing or extra:
                raise ConeError(
                    f"coefficients must be indexed exactly by the rays; "
                    f"missing {missing}, extraneous {extra}")
            values = [keyed[r] for r in rays]
        else:
            try:
                if isinstance(coefficients, (str, bytes)):
                    raise TypeError     # iterable, but by character
                values = list(coefficients)
            except TypeError:
                raise ConeError(f"not a coefficient list: {coefficients!r}")
            if len(values) != len(rays):
                raise ConeError(
                    f"{len(values)} coefficients for {len(rays)} rays")
        coeffs = tuple(_fraction(a, "malformed divisor coefficient",
                                 ConeError) for a in values)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "coefficients", coeffs)

    def _key(self) -> tuple:
        return self.fan, self.coefficients

    def scaled(self, factor) -> "TWeilDivisor":
        factor = _fraction(factor, "scale factor", ConeError)
        return TWeilDivisor(self.fan,
                            [a * factor for a in self.coefficients])

    def to_json(self) -> dict:
        return {"rays": [list(r) for r in self.fan.rays],
                "coefficients": [str(a) for a in self.coefficients]}

    @classmethod
    @_json_reader("divisor", ConeError)
    def from_json(cls, fan: Fan, data: dict | str) -> "TWeilDivisor":
        coeffs = data["coefficients"]
        if not isinstance(coeffs, list):
            raise TypeError(f"coefficients {coeffs!r} are not a list")
        coeffs = [_fraction(a, "coefficient", TypeError) for a in coeffs]
        given = (tuple(map(_int_tuple, data["rays"]))
                 if "rays" in data else fan.rays)
        if given != fan.rays:
            raise ConeError(f"divisor rays {list(given)} do not match the "
                            f"fan's rays {list(fan.rays)}")
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
    if _integer(dencap, "dencap", None, ConeError) < 0:
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

def frobenius_pullback(x):
    """Pullback along multiplication by p on the character lattice, on
    a homogeneous coordinate element: exponent vectors are multiplied by
    p and each coefficient is raised to the p-th power, which on the
    characteristic-p side is exactly the Frobenius.
    """
    from .tatealg import HomogeneousElement
    if not isinstance(x, HomogeneousElement):
        raise ConeError(f"frobenius_pullback expects a homogeneous "
                        f"element, got {type(x).__name__}")
    config = x.config
    terms = {m.scaled(config.p): c ** config.p for m, c in x.terms.items()}
    return HomogeneousElement(config, x.kind, x.nvars,
                              x.degree * config.p, terms)


# =====================================================================
# Hypersurface transfer
# =====================================================================

def projective_fan(n: int) -> Fan:
    """The standard fan of n-dimensional projective space."""
    _integer(n, "dimension", 1, ConeError)
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return Fan(n, [list(sub) for sub in combinations(rays, n)])


def _projective_dimension(fan: Fan) -> int | None:
    n = fan.rank
    if fan == projective_fan(n):
        return n
    return None


class TransferResult(_Frozen):
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

    def to_json(self) -> dict:
        return {"g": self.approximant.to_json(),
                "twist": self.twist,
                "h": self.integralized.to_json(),
                "report": self.report.to_json()}


def _transfer_sample(config: FieldConfig, nvars: int):
    """Unit-ball coordinate tuples with some coordinate a unit, at most
    20 of them, plus the sup-norm point."""
    from .adicdisc import AdicPoint
    values = [
        UntiltElement.zero(config),
        UntiltElement.one(config),
        UntiltElement.uniformizer(config),
        UntiltElement.monomial(config, 1, Fraction(1, config.p)),
    ]
    unit = values[1]
    points = [AdicPoint.gauss(config, nvars)]
    for combo in product(values, repeat=nvars):
        if len(points) > 20:
            break
        if not any(c is unit for c in combo):
            continue
        points.append(AdicPoint.classical(*combo))
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
