"""Cones, fans, divisor sections, Frobenius, hypersurface transfer."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, floor, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from perfectoid import toric
from perfectoid.arith import (
    _PRIME_BOUND,
    BudgetError,
    ConfigError,
    FieldConfig,
    TiltElement,
    UntiltElement,
)
from perfectoid.tatealg import HomogeneousElement, Monomial
from perfectoid.toric import (
    _SECTION_BUDGET,
    _box_bits,
    Cone,
    ConeError,
    Fan,
    TWeilDivisor,
    TransferResult,
    _matrix_rank,
    _nullspace_vectors,
    dual_cone,
    frobenius_pullback,
    hypersurface_transfer,
    is_complete,
    is_smooth,
    projective_fan,
    sections,
)

C = FieldConfig(3, 4, 5)


def uvar(j: int, n: int = 3) -> HomogeneousElement:
    return HomogeneousElement.variable(C, "untilt", n, j)


def tvar(j: int, n: int = 3) -> HomogeneousElement:
    return HomogeneousElement.variable(C, "tilt", n, j)


P2 = projective_fan(2)


# ---------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------

def test_cone_normalization():
    c = Cone(2, [(2, 0), (1, 0), (1, 1), (0, 3)])
    assert c.generators == ((0, 1), (1, 0))
    assert Cone(2, [(0, 0)]).generators == ()


def test_cone_rejects_lines():
    with pytest.raises(ConeError):
        Cone(2, [(1, 0), (-1, 0)])
    half = Cone(2, [(1, 0), (-1, 0), (0, 1)], pointed=False)
    assert not half.pointed
    with pytest.raises(ConeError, match="line through the origin"):
        Fan(2, [half])


def test_cone_membership():
    c = Cone(2, [(1, 0), (1, 2)])
    assert c.contains((2, 2))
    assert c.contains((1, 1))
    assert not c.contains((0, 1))
    assert not c.contains((-1, 0))
    # a vector of another length or with other entries is refused, not
    # cut to fit
    for vec in [(1,), (1, 1, 0), (1.5, 1), ("1", 1)]:
        with pytest.raises(ConeError):
            c.contains(vec)


def test_cone_faces():
    quadrant = Cone(2, [(1, 0), (0, 1)])
    faces = quadrant.faces()
    gens = sorted(f.generators for f in faces)
    assert gens == [(), ((0, 1),), ((0, 1), (1, 0)), ((1, 0),)]


def test_dual_of_orthant_is_orthant():
    c = Cone(2, [(1, 0), (0, 1)])
    assert dual_cone(c).generators == ((0, 1), (1, 0))


def test_dual_of_ray_is_half_plane():
    d = dual_cone(Cone(2, [(1, 0)]))
    assert d.generators == ((0, -1), (0, 1), (1, 0))
    assert not d.pointed


def test_dual_of_slanted_cone():
    d = dual_cone(Cone(2, [(1, 0), (1, 2)]))
    assert d.generators == ((0, 1), (2, -1))


def test_dual_is_involutive_on_small_cones():
    vecs = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1),
            (1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2)]
    checked = 0
    for a, b in combinations(vecs, 2):
        try:
            cone = Cone(2, [a, b])
        except ConeError:
            continue
        assert dual_cone(dual_cone(cone)) == cone
        checked += 1
    assert checked > 40


def test_dual_in_rank_four_of_cones_that_are_not_simplicial():
    eye = Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert dual_cone(eye) == Cone(4, eye.generators, pointed=False)
    # the cone over an octahedron has the cone over a cube as its dual
    octahedron = Cone(4, [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1),
                          (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)])
    cube = dual_cone(octahedron)
    assert cube.generators == tuple(v + (1,)
                                    for v in product((-1, 1), repeat=3))
    assert cube.pointed and dual_cone(cube) == octahedron
    # below full dimension the dual holds the lines orthogonal to the cone
    flat = dual_cone(Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]))
    assert flat.generators == ((0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 0),
                               (0, 1, 0, 0), (1, 0, 0, 0))
    assert not flat.pointed


def test_dual_cone_is_the_cone_its_generators_build():
    """Up to rank 3 dual_cone wraps the half-space intersection without
    normalizing it again; on every cone of at most two generators from
    {-2..2}^rank, rank 2 and 3, the zero cone included, the result is
    the cone the constructor builds from the same generators."""
    cones = {}
    for rank in (2, 3):
        vectors = list(product(range(-2, 3), repeat=rank))
        for size in range(3):
            for gens in combinations(vectors, size):
                cone = Cone(rank, gens, pointed=False)
                cones[rank, cone.generators] = cone
    assert len(cones) == 4989
    for (rank, _), cone in cones.items():
        dual = dual_cone(cone)
        want = Cone(rank, dual.generators, pointed=False)
        assert (dual.generators, dual.pointed) == (want.generators,
                                                   want.pointed), cone


@pytest.mark.parametrize("rank,lists", [
    # the half-space x >= 0 of Z^3
    (3, [[(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
         [(1, 0, 0), (0, 1, 1), (0, -1, 0), (0, 0, -1)],
         [(1, 5, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]),
    # the whole plane
    (2, [[(1, 0), (-1, 0), (0, 1), (0, -1)],
         [(3, 3), (3, -3), (-1, -3), (0, 3)]]),
])
def test_cones_with_a_line_have_one_canonical_form(rank, lists):
    # equal cones get equal generators whatever list builds them: both
    # signs of the lineality basis and the extreme rays orthogonal to it
    cones = [Cone(rank, gens, pointed=False) for gens in lists]
    assert len({c.generators for c in cones}) == 1
    assert len({hash(c) for c in cones}) == 1
    assert cones[0].generators == tuple(sorted(lists[0]))
    for cone in cones:
        assert not cone.pointed
        assert dual_cone(dual_cone(cone)) == cone


def _fast_path_corpus() -> list:
    """Generator lists of ranks 1-4 covering each branch of the
    constructor: empty, independent, dependent with at most rank
    vectors, with an opposite pair, and random lists of 0-6 vectors."""
    rng = random.Random(23)
    corpus = []
    for rank in range(1, 5):
        def vec():
            return tuple(rng.randint(-3, 3) for _ in range(rank))
        corpus.append((rank, []))
        corpus.append((rank, [(0,) * rank]))
        for _ in range(40):
            gens = [vec() for _ in range(rng.randint(1, rank))]
            corpus.append((rank, gens))
            corpus.append((rank, gens + [tuple(-c for c in gens[0])]))
            k = rng.randint(2, 3)
            corpus.append((rank, gens + [tuple(k * c for c in gens[0])]))
            if len(gens) >= 2 and len(gens) < rank:
                mix = tuple(a + b for a, b in zip(gens[0], gens[1]))
                corpus.append((rank, gens + [mix]))
            corpus.append((rank, [vec() for _ in range(rng.randint(0, 6))]))
    return corpus


def test_independent_generators_skip_the_second_dualization():
    """The constructor keeps sorted independent generators; on every
    list it gives the dual of the dual of the primitive vectors, and the
    stored dual is their first dualization."""
    kinds = set()
    for rank, gens in _fast_path_corpus():
        raw = {toric._primitive(tuple(v)) for v in gens} - {None}
        duals = toric._nonneg_solutions(raw, rank)
        cone = Cone(rank, gens, pointed=False)
        assert cone.generators == toric._nonneg_solutions(duals, rank), \
            (rank, gens)
        assert cone.duals == duals, (rank, gens)
        span = _matrix_rank(list(raw)) if raw else 0
        kinds.add("empty" if not raw else
                  "independent" if span == len(raw) else
                  "dependent" if len(raw) <= rank else "many")
        if not cone.pointed:
            kinds.add("line")
    assert kinds == {"empty", "independent", "dependent", "many", "line"}


# ---------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------

def test_projective_plane_fan():
    assert len(P2.maximal_cones) == 3
    assert len(P2.cones) == 7  # + 3 rays + origin
    assert P2.rays == ((-1, -1), (0, 1), (1, 0))
    assert is_smooth(P2)
    assert is_complete(P2)


def test_projective_line_and_quadric_fans():
    p1 = Fan(1, [[(1,)], [(-1,)]])
    assert is_smooth(p1) and is_complete(p1)
    p1xp1 = Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                    [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    assert is_smooth(p1xp1) and is_complete(p1xp1)
    assert len(p1xp1.rays) == 4


def test_fan_rejects_overlaps():
    with pytest.raises(ConeError):
        Fan(2, [[(1, 0), (0, 1)], [(1, 2), (-1, 2)]])
    with pytest.raises(ConeError):
        Fan(2, [[(1, 0), (0, 1)], [(1, 2), (2, 1)]])


def test_index_two_cone_is_singular():
    f = Fan(2, [[(1, 0), (1, 2)]])
    assert not is_smooth(f)
    assert not is_complete(f)


@pytest.mark.parametrize("rank,cone,smooth", [
    (3, [(1, 1, 0), (1, -1, 0)], False),               # index 2
    (3, [(1, 0, 0), (1, 1, 0)], True),
    (3, [(1, 0, 0), (1, 2, 1)], True),
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 3, 0)], False),  # index 3
])
def test_smoothness_of_cones_below_full_dimension(rank, cone, smooth):
    # fewer generators than the rank: no square determinant applies,
    # the gcd of the maximal minors decides
    assert is_smooth(Fan(rank, [cone])) is smooth


def test_single_quadrant_is_incomplete():
    assert not is_complete(Fan(2, [[(1, 0), (0, 1)]]))


def test_completeness_in_rank_four():
    p4 = projective_fan(4)
    assert is_complete(p4)
    assert not is_complete(Fan(4, p4.maximal_cones[1:]))


def test_projective_three_space():
    p3 = projective_fan(3)
    assert len(p3.maximal_cones) == 4
    assert len(p3.cones) == 15
    assert is_smooth(p3) and is_complete(p3)


# the face fan of the prism over a tetrahedron: two simplicial cones over
# the ends and four over the side prisms, six generators each
TETRAHEDRON = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
PRISM_CONES = ([[v + (s,) for v in TETRAHEDRON] for s in (1, -1)]
               + [[v + (s,) for v in side for s in (1, -1)]
                  for side in combinations(TETRAHEDRON, 3)])


def test_rank_four_fan_of_cones_that_are_not_simplicial():
    # two pyramids over a square, glued along it
    square = [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]
    pyramids = Fan(4, [square + [(0, 0, 0, 1)], square + [(0, 0, 0, -1)]])
    assert [len(c.generators) for c in pyramids.maximal_cones] == [5, 5]
    assert Cone(4, square) in pyramids.cones
    assert len(pyramids.cones) == 1 + 6 + 13 + 8 + 2
    assert not is_complete(pyramids) and not is_smooth(pyramids)
    prism = Fan(4, PRISM_CONES)
    assert sorted(len(c.generators) for c in prism.maximal_cones) == \
        [4, 4, 6, 6, 6, 6]
    assert is_complete(prism)
    assert not is_complete(Fan(4, PRISM_CONES[1:]))
    # the face fan of the 4-cube: a cone over each of its 8 facets, each
    # facet a 3-cube of 8 vertices
    corners = list(product((-1, 1), repeat=4))
    facets = [[v for v in corners if v[i] == s]
              for i in range(4) for s in (-1, 1)]
    cube = Fan(4, facets)
    assert [len(c.generators) for c in cube.maximal_cones] == [8] * 8
    # the origin, 16 vertices, 32 edges, 24 squares and 8 facets
    assert len(cube.cones) == 1 + 16 + 32 + 24 + 8 == 81
    assert is_complete(cube) and not is_smooth(cube)
    assert not is_complete(Fan(4, facets[1:]))


def test_rank_four_overlaps_are_refused():
    orthant = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    # simplicial: the cones meet in a cone inside a face of the orthant
    with pytest.raises(ConeError, match="which is not a common face"):
        Fan(4, [orthant, [(1, 2, 0, 0), (2, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, -1)]])
    # not simplicial: the cone over an octahedron around e_4 overlaps
    # the orthant, and their only common face is the origin
    octahedron = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1),
                  (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
    with pytest.raises(ConeError, match="which is not a common face"):
        Fan(4, [orthant, octahedron])


def test_a_pair_with_two_maximal_common_faces_is_refused_by_its_meet():
    # the cones share the rays (1,0,1) and (-1,0,1), opposite corners of
    # the square, and meet in a cone that is a face of neither
    square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    with pytest.raises(ConeError, match=(
            r"meet in \[\(-1, 0, 1\), \(0, 1, 1\), \(1, 0, 1\)\], "
            r"which is not a common face$")):
        Fan(3, [square, [(1, 0, 1), (-1, 0, 1), (0, 1, -1)]])


def test_fan_of_maximal_cones_round_trips():
    fan = Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                  [(-1, -1), (1, 0)]])
    assert fan == P2
    assert Fan.from_json(fan.to_json()) == fan


@pytest.mark.parametrize("rank", ["x", "2", 2.5, 2.0, float("inf"), True,
                                  None])
def test_fan_json_refuses_a_rank_that_is_not_an_integer(rank):
    # converting would truncate 2.5 to 2, and fail untyped on "x" or inf
    with pytest.raises(ConeError, match="rank must be a positive integer"):
        Fan.from_json({"rank": rank, "cones": P2.to_json()["cones"]})


@pytest.mark.parametrize("vector", [(1.5, 0), (1.0, 0), ("1", 0), (True, 0),
                                    5, None])
def test_cone_refuses_entries_that_are_not_integers(vector):
    with pytest.raises(ConeError, match="^not an integer vector"):
        Cone(2, [vector, (0, 1)])
    with pytest.raises(ConeError, match="^not an integer vector"):
        Fan.from_json({"rank": 2, "cones": [[vector, (0, 1)]]})


# ---------------------------------------------------------------------
# divisors and sections
# ---------------------------------------------------------------------

HYPERPLANE = TWeilDivisor(P2, {(-1, -1): 1, (0, 1): 0, (1, 0): 0})


def test_divisor_indexing():
    byseq = TWeilDivisor(P2, [1, 0, 0])
    assert byseq.coefficients == HYPERPLANE.coefficients
    with pytest.raises(ConeError):
        TWeilDivisor(P2, [1, 0])
    with pytest.raises(ConeError):
        TWeilDivisor(P2, {(0, 1): 1})
    assert TWeilDivisor.from_json(P2, HYPERPLANE.to_json()) == HYPERPLANE


@pytest.mark.parametrize("data,message", [
    ({"rays": 5, "coefficients": [1, 0, 0]},
     "^malformed divisor JSON"),
    ({"rays": [["a", 0], [0, 1], [1, 0]], "coefficients": [1, 0, 0]},
     r"^not an integer vector: \['a', 0\]$"),
    ({"rays": [[-1.5, -1], [0, 1], [1, 0]], "coefficients": [1, 0, 0]},
     "^not an integer vector"),
    ({"rays": [[-1, -1, 0], [0, 1], [1, 0]], "coefficients": [1, 0, 0]},
     "^divisor rays .* do not match the fan's rays"),
    ({"coefficients": ["1/0", 0, 0]}, "^malformed divisor JSON"),
    ({"coefficients": [float("inf"), 0, 0]}, "^malformed divisor JSON"),
    ({"coefficients": [float("nan"), 0, 0]}, "^malformed divisor JSON"),
    ({"rays": [[0, 1], [1, 0]]}, "^malformed divisor JSON"),
    ('{"coefficients": [1, 0', "^malformed divisor JSON"),
])
def test_divisor_json_refusals_are_typed(data, message):
    with pytest.raises(ConeError, match=message):
        TWeilDivisor.from_json(P2, data)


def test_fan_json_text_that_does_not_parse_is_refused():
    with pytest.raises(ConeError, match="^malformed fan JSON"):
        Fan.from_json('{"rank": 2,')


@pytest.mark.parametrize("bad", ["x", "1/0", float("inf"), None, [1]])
def test_divisor_coefficients_that_are_not_rational_are_refused(bad):
    with pytest.raises(ConeError, match="^malformed divisor coefficient"):
        TWeilDivisor(P2, {(1, 0): bad, (0, 1): 0, (-1, -1): 0})
    with pytest.raises(ConeError, match="^malformed divisor coefficient"):
        TWeilDivisor(P2, [bad, 0, 0])


@pytest.mark.parametrize("coefficients,message", [
    ({5: 1, (0, 1): 0, (-1, -1): 0}, r"^not an integer vector: 5$"),
    ({(1.0, 0): 1, (0, 1): 0, (-1, -1): 0},
     r"^not an integer vector: \(1\.0, 0\)$"),
    ({"10": 1, (0, 1): 0, (-1, -1): 0}, "^not an integer vector"),
    (5, r"^not a coefficient list: 5$"),
    (None, r"^not a coefficient list: None$"),
    ("100", r"^not a coefficient list: '100'$"),
    (b"100", r"^not a coefficient list: b'100'$"),
])
def test_divisor_keys_and_containers_are_checked_not_converted(
        coefficients, message):
    with pytest.raises(ConeError, match=message):
        TWeilDivisor(P2, coefficients)


def test_hyperplane_sections():
    pts = sections(P2, HYPERPLANE)
    assert pts == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
def test_plane_degree_counts(d):
    assert len(sections(P2, HYPERPLANE.scaled(d))) == (d + 1) * (d + 2) // 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_space_degree_counts(d):
    p3 = projective_fan(3)
    D = TWeilDivisor(p3, [d, 0, 0, 0])
    assert len(sections(p3, D)) == comb(3 + d, 3)


def test_fractional_sections():
    pts = sections(P2, HYPERPLANE.scaled(Fraction(1, 3)), dencap=1, p=3)
    assert pts == [(0, 0), (0, Fraction(1, 3)), (Fraction(1, 3), 0)]


def test_sections_monotone_in_divisor():
    base = len(sections(P2, HYPERPLANE.scaled(2)))
    for bump in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        bigger = TWeilDivisor(
            P2, [a + b for a, b in zip(HYPERPLANE.scaled(2).coefficients,
                                       bump)])
        assert len(sections(P2, bigger)) >= base


def test_sections_validation():
    quadrant = Fan(2, [[(1, 0), (0, 1)]])
    D = TWeilDivisor(quadrant, [0, 0])
    with pytest.raises(ConeError):
        sections(quadrant, D)
    with pytest.raises(ConeError):
        sections(P2, HYPERPLANE.scaled(Fraction(1, 3)))
    with pytest.raises(ConeError):
        sections(P2, HYPERPLANE.scaled(Fraction(1, 2)), dencap=1, p=3)
    with pytest.raises(ConeError):
        sections(P2, TWeilDivisor(projective_fan(3), [1, 0, 0, 0]))
    # p is refused as FieldConfig refuses it, before any loop over it
    for p in (0, -3, 1, 4):
        with pytest.raises(ConfigError, match=f"^p = {p} is not prime$"):
            sections(P2, HYPERPLANE, dencap=1, p=p)
    with pytest.raises(BudgetError, match="bound of the primality test"):
        sections(P2, HYPERPLANE, dencap=1, p=_PRIME_BOUND)
    # a float p or dencap is refused with a typed error, not a TypeError
    for p in (2.0, 3.0):
        with pytest.raises(ConfigError,
                           match=rf"^p must be an integer, got {p}$"):
            sections(P2, HYPERPLANE, dencap=1, p=p)
    for dencap in (1.5, 1.0):
        with pytest.raises(ConeError, match=rf"^dencap must be an integer, "
                                            rf"got {dencap}$"):
            sections(P2, HYPERPLANE, dencap=dencap, p=3)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_rank_four_sections_match_brute_force(d):
    # P^4: u_1 >= -d, u_2, u_3, u_4 >= 0 and u_1 + ... + u_4 <= 0, so
    # every point lies in [-d, d]^4
    p4 = projective_fan(4)
    D = TWeilDivisor(p4, [d, 0, 0, 0, 0])
    brute = [u for u in product(range(-d, d + 1), repeat=4)
             if all(sum(x * y for x, y in zip(u, v)) >= -a
                    for v, a in zip(p4.rays, D.coefficients))]
    assert sections(p4, D) == brute
    assert len(brute) == comb(4 + d, 4)


def test_rank_four_unbounded_polytope_is_refused():
    orthant = Fan(4, [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                       (0, 0, 0, 1)]])
    with pytest.raises(ConeError, match=r"unbounded polytope: direction "
                                        r"\(0, 0, 0, 1\) satisfies"):
        sections(orthant, TWeilDivisor(orthant, [1, 1, 1, 1]))


@pytest.mark.parametrize("coeffs", [[1] * 8, [2, 0, 1, 1, 0, 2, 1, 1],
                                    [0] * 8, [-1] + [1] * 7])
def test_rank_four_sections_on_cones_that_are_not_simplicial(coeffs):
    prism = Fan(4, PRISM_CONES)
    divisor = TWeilDivisor(prism, coeffs)
    assert sections(prism, divisor) == oracles.section_points(
        prism.rays, divisor.coefficients, 1)


def test_empty_polytope_has_no_sections():
    assert sections(P2, HYPERPLANE.scaled(-1)) == []


def test_oversized_section_box_is_refused_before_enumeration():
    # (3^12 + 1)^2 points would take hours; the count alone decides
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="282430599364 lattice points"):
        sections(P2, HYPERPLANE, dencap=12, p=3)
    assert time.perf_counter() - start < 0.1
    # a count too long for str() is reported by its bit length
    with pytest.raises(BudgetError, match=r"at least 2\^316992 lattice"):
        sections(P2, HYPERPLANE, dencap=100000, p=3)


def test_huge_section_box_is_refused_before_scaling():
    # the refusal reads the box off its unscaled extents: it does not
    # compute 3^(10^6) or a product of such numbers
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(BudgetError,
                           match=r"at least 2\^3169925 lattice points"):
            sections(P2, HYPERPLANE, dencap=10 ** 6, p=3)
        best = min(best, time.perf_counter() - start)
    assert best < 0.01


def test_power_of_two_section_box_is_refused_from_its_widths():
    # at p = 2 the hyperplane's box has sides 2^m + 1, so its log2 sits
    # on an integer; the widths decide the count without computing 2^m
    assert _box_bits([Fraction(0)] * 2, [Fraction(1)] * 2, 2,
                     10 ** 7) == 2 * 10 ** 7
    with pytest.raises(BudgetError, match=r"at least 2\^20000000 lattice"):
        sections(P2, HYPERPLANE, dencap=10 ** 7, p=2)
    # widths 2, 1/2 and 1 with corners on and off the grid
    lows = [Fraction(1, 3), Fraction(0), Fraction(-3, 4)]
    highs = [Fraction(7, 3), Fraction(1, 2), Fraction(1, 4)]
    for m in (65, 66, 100):
        s = 2 ** m
        count = prod(floor(hi * s) - ceil(lo * s) + 1
                     for lo, hi in zip(lows, highs))
        assert _box_bits(lows, highs, 2, m) == count.bit_length() - 1
    assert _box_bits(lows, highs, 2, 10 ** 7) == 3 * 10 ** 7


def test_section_box_at_the_budget_is_enumerated():
    # degree 255 on the plane: a box of exactly 256^2 points
    assert 256 ** 2 == _SECTION_BUDGET
    assert len(sections(P2, HYPERPLANE.scaled(255))) == 256 * 257 // 2
    with pytest.raises(BudgetError):
        sections(P2, HYPERPLANE.scaled(256))


# ---------------------------------------------------------------------
# Frobenius tower
# ---------------------------------------------------------------------

def test_frobenius_sends_sections_into_scaled_sections():
    # on the character lattice the pullback is u -> p*u
    frac = HYPERPLANE.scaled(Fraction(1, 3))
    small = sections(P2, frac, dencap=1, p=3)
    big = set(sections(P2, frac.scaled(3)))
    images = [tuple(3 * c for c in u) for u in small]
    assert len(set(images)) == len(small)
    assert set(images) <= big


def test_frobenius_on_linear_form_gives_p_power_equation():
    f = uvar(0) + uvar(1) + uvar(2)
    ff = frobenius_pullback(f)
    assert ff.degree == 3
    exps = sorted(tuple(e.as_fraction() for e in m.exps)
                  for m in ff.terms)
    assert exps == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
    ff2 = frobenius_pullback(ff)
    assert ff2.degree == 9
    assert all(max(e.as_fraction() for e in m.exps) == 9
               for m in ff2.terms)


def test_frobenius_is_p_power_on_tilt_elements():
    g = tvar(0) + tvar(1).scalar_mul(TiltElement.uniformizer(C))
    assert frobenius_pullback(g) == g ** 3


def test_frobenius_refuses_anything_but_a_homogeneous_element():
    with pytest.raises(ConeError, match="expects a homogeneous element"):
        frobenius_pullback((Fraction(1, 3), 0))


def test_frobenius_on_monomial():
    m = Monomial(C, [Fraction(1, 3), Fraction(2, 3), 0])
    h = HomogeneousElement(C, "untilt", 3, 1, {m: UntiltElement.one(C)})
    hp = frobenius_pullback(h)
    (mono, coeff), = hp.terms.items()
    assert tuple(e.as_fraction() for e in mono.exps) == (1, 2, 0)
    assert coeff == UntiltElement.one(C)


# ---------------------------------------------------------------------
# hypersurface transfer
# ---------------------------------------------------------------------

def test_transfer_of_fermat_linear_form():
    f = uvar(0) + uvar(1) + uvar(2)
    res = hypersurface_transfer(P2, f, 2, Fraction(1, 3))
    assert isinstance(res, TransferResult)
    assert res.report.passed
    assert res.twist == 0
    assert res.approximant == tvar(0) + tvar(1) + tvar(2)
    assert res.integralized == res.approximant


def test_transfer_recovers_exact_sharp_preimage():
    g0 = tvar(0, 2) + tvar(1, 2).scalar_mul(TiltElement.uniformizer(C))
    f = uvar(0, 2) + uvar(1, 2).scalar_mul(UntiltElement.uniformizer(C))
    res = hypersurface_transfer(projective_fan(1), f, 2, Fraction(1, 3))
    assert res.approximant == g0
    assert res.report.passed


def test_transfer_integralizes_fractional_degree():
    m = Monomial(C, [Fraction(1, 3), 0, 0])
    f = HomogeneousElement(C, "untilt", 3, Fraction(1, 3),
                           {m: UntiltElement.one(C)})
    res = hypersurface_transfer(P2, f, 1, Fraction(1, 3))
    assert res.twist == 1
    assert res.integralized.degree == 1
    assert res.integralized == res.approximant ** 3
    assert res.report.passed


def test_transfer_validation():
    f = uvar(0) + uvar(1) + uvar(2)
    p1xp1 = Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                    [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    with pytest.raises(ConeError):
        hypersurface_transfer(p1xp1, f, 2, Fraction(1, 3))
    with pytest.raises(ConeError):
        hypersurface_transfer(projective_fan(3), f, 2, Fraction(1, 3))
    g = tvar(0) + tvar(1)
    with pytest.raises(ConeError):
        hypersurface_transfer(P2, g, 2, Fraction(1, 3))


def test_transfer_report_serializes():
    f = uvar(0, 2) + uvar(1, 2)
    res = hypersurface_transfer(projective_fan(1), f, 1, Fraction(1, 3))
    data = res.to_json()
    assert set(data) == {"g", "twist", "h", "report"}
    assert data["report"]["passed"] is True


# ---------------------------------------------------------------------
# integer elimination against the rational reference
# ---------------------------------------------------------------------

@st.composite
def vector_lists(draw, rank: int, min_size: int = 0, max_size: int = 4):
    """Vectors with entries in [-4, 4], some of them zero or a
    combination of two earlier ones (so entries reach +-8)."""
    size = draw(st.integers(min_size, max_size))
    vecs = []
    for i in range(size):
        how = draw(st.sampled_from(["free", "free", "free", "zero",
                                    "combination"]))
        if how == "zero":
            vecs.append((0,) * rank)
        elif how == "combination" and vecs:
            u, v = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            a, b = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
            vecs.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            vecs.append(tuple(draw(st.integers(-4, 4))
                              for _ in range(rank)))
    return vecs


RANKS = st.integers(1, 4)


@settings(max_examples=300)
@given(data=st.data())
def test_matrix_rank_matches_the_rational_reference(data):
    rank = data.draw(RANKS)
    rows = data.draw(vector_lists(rank, 0, 5))
    assert _matrix_rank(rows) == oracles.matrix_rank(rows)


@settings(max_examples=300)
@given(data=st.data())
def test_nullspace_matches_the_rational_reference(data):
    rank = data.draw(RANKS)
    rows = data.draw(vector_lists(rank, 1, 4))
    assert _nullspace_vectors(rows, rank) == oracles.nullspace_vectors(
        rows, rank)


@settings(max_examples=200)
@given(data=st.data())
def test_dual_cone_matches_the_rational_reference(data):
    rank = data.draw(RANKS)
    if rank == 4:
        size = data.draw(st.sampled_from([3, 4, 4, 4, 5]))
        gens = data.draw(vector_lists(4, size, size))
    else:
        gens = data.draw(vector_lists(rank, 0, 5))
    cone = Cone(rank, gens, pointed=False)
    dual = dual_cone(cone)
    # canonical form: both signs of the reference lineality basis, and
    # every other generator orthogonal to that basis
    lines = oracles.nullspace_vectors(cone.generators, rank)
    pairs = {w for u in lines for w in (u, tuple(-c for c in u))}
    assert {u for u in dual.generators
            if tuple(-c for c in u) in dual.generators} == pairs
    assert all(sum(a * b for a, b in zip(u, w)) == 0
               for u in dual.generators if u not in pairs for w in lines)
    try:
        want = oracles.dual_generators(cone.generators, rank)
    except ValueError:
        # the reference has no answer: check the duality itself
        assert all(sum(a * b for a, b in zip(u, v)) >= 0
                   for u in dual.generators for v in cone.generators)
        double = dual_cone(dual).generators
        assert all(oracles._in_cone(v, double, rank)
                   for v in cone.generators)
        assert all(oracles._in_cone(v, cone.generators, rank)
                   for v in double)
        return
    if dual.pointed:
        assert dual.generators == want
    else:
        # the reference prunes greedily, so it may keep other generators
        # of the same cone
        assert all(oracles._in_cone(v, want, rank) for v in dual.generators)
        assert all(oracles._in_cone(v, dual.generators, rank) for v in want)


@settings(max_examples=150)
@given(data=st.data())
def test_cone_membership_matches_the_all_subsets_reference(data):
    rank = data.draw(st.integers(2, 4))
    gens = data.draw(vector_lists(rank, 0, 5))
    if data.draw(st.booleans()):
        weights = [data.draw(st.integers(0, 2)) for _ in gens]
        vec = tuple(sum(w * g[r] for w, g in zip(weights, gens))
                    for r in range(rank))
    else:
        vec = data.draw(vector_lists(rank, 1, 1))[0]
    assert Cone(rank, gens, pointed=False).contains(vec) is \
        oracles._in_cone(vec, gens, rank)


@settings(max_examples=60)
@given(data=st.data())
def test_faces_are_the_cones_their_generators_build(data):
    rank = data.draw(st.integers(2, 4))
    cone = Cone(rank, data.draw(vector_lists(rank, 0, 4 if rank < 4 else 3)),
                pointed=False)
    for face in cone.faces():
        want = Cone(rank, face.generators, pointed=False)
        assert (face.generators, face.pointed) == (want.generators,
                                                   want.pointed)


HEXAGON = [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1),
           (1, -1, 1)]


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(toric, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(toric, name, counted)
    return calls


def test_membership_solves_one_system_per_basis_subset(monkeypatch):
    # building solves one nullspace system for the lineality space and
    # one per (dim - 1)-subset of the vectors, once for the dual and once
    # for the dual of the dual; membership then solves none, it is a
    # sign test on the stored dual generators
    calls = _count_calls(monkeypatch, "_nullspace_vectors")
    cone = Cone(3, HEXAGON + [(0, 0, 1)])
    assert len(cone.duals) == 6
    assert len(calls) == 1 + comb(7, 2) + 1 + comb(6, 2)
    calls.clear()
    assert not cone.contains((0, 0, -1))
    assert cone.contains((0, 0, 1)) and cone.contains((1, 0, 1))
    wedge = Cone(3, [(1, 0, 0), (0, 1, 0), (0, -1, 0)], pointed=False)
    calls.clear()
    assert wedge.contains((0, -5, 0)) and not wedge.contains((-1, 0, 0))
    assert calls == []


def test_irredundant_tests_each_generator_once(monkeypatch):
    # the apex (0, 0, 1) is redundant and a multiple or a repeat of a
    # corner is the same ray: the canonical form keeps each corner once,
    # with nothing pruned afterwards
    hexagon = Cone(3, HEXAGON + [(0, 0, 1), (2, 0, 2), HEXAGON[0]])
    assert hexagon.generators == tuple(sorted(HEXAGON))
    wedge = Cone(3, [(1, 0, 0), (0, 1, 0), (0, -1, 0)], pointed=False)
    # dualizing a built cone swaps the stored generators, also for a
    # cone that holds a line: no elimination runs
    calls = _count_calls(monkeypatch, "_eliminate")
    for cone in (hexagon, wedge):
        dual = dual_cone(cone)
        assert dual_cone(dual) == cone
        assert dual.contains(dual.generators[0])
    assert calls == []


def test_independent_generators_dualize_once(monkeypatch):
    # independent generators are already canonical; a dependent list
    # takes the dual of the dual
    calls = _count_calls(monkeypatch, "_nonneg_solutions")
    Cone(3, [(1, 2, 0), (0, 1, 3)])
    assert len(calls) == 1
    calls.clear()
    Cone(3, [(1, 2, 0), (0, 1, 3), (1, 3, 3)], pointed=False)
    assert len(calls) == 2


def test_rank_four_simplicial_dual_is_the_dual_basis():
    gens = [(1, 2, 0, 0), (0, 1, 3, 0), (0, 0, 1, 1), (1, 0, 0, 2)]
    dual = dual_cone(Cone(4, gens))
    assert dual.generators == oracles.dual_generators(
        Cone(4, gens).generators, 4)
    for u in dual.generators:
        pairings = sorted(sum(a * b for a, b in zip(u, g)) for g in gens)
        assert pairings[:3] == [0, 0, 0] and pairings[3] > 0


SECTION_FANS = [
    projective_fan(1), P2, projective_fan(3),
    Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
            [(0, -1), (1, 0)]]),
    Fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 2)], [(-1, 2), (0, -1)],
            [(0, -1), (1, 0)]]),
]


@settings(max_examples=120)
@given(data=st.data())
def test_sections_match_the_rational_reference(data):
    fan = data.draw(st.sampled_from(SECTION_FANS))
    p = data.draw(st.sampled_from([2, 3]))
    dencap = data.draw(st.integers(0, 2 if fan.rank < 3 else 0))
    coeffs = [Fraction(data.draw(st.integers(-4, 4)),
                       p ** data.draw(st.integers(0, 2)))
              for _ in fan.rays]
    divisor = TWeilDivisor(fan, coeffs)
    assert sections(fan, divisor, dencap=dencap, p=p) == \
        oracles.section_points(fan.rays, divisor.coefficients, p ** dencap)
