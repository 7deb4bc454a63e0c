"""Points of the adic closed unit disc and polydisc, and their
valuations.

The disc over the characteristic-0 field carries more points than its
classical ones.  This module represents three kinds: classical points,
disc points (the sup norm over a closed sub-disc of radius p^-q, the
Gauss point being radius 1), and halo points (rank-2 valuations sitting
infinitesimally inside or outside a disc, tagged by a sign).  Dead-end
points arising from nested disc families with empty intersection need
infinitely many centers to witness and are not represented.  The one
point class, ``AdicPoint``, also holds the points of the polydisc that
``tatealg`` evaluates at: classical points of n coordinates, each with
an optional tilt coordinate, and the Gauss point.  A point answers for
its tilt (``AdicPoint.tilt``), so ``eval_at`` and ``tatealg.evaluate``
read both kinds there.

Values are handled in exponent form: a rank-1 value p^-e is the
exponent e, and a rank-2 value p^-q * gamma^k is a Rank2Value, where
gamma is infinitesimally smaller (sign "<") or larger (sign ">") than
p^-q.  Comparisons are then lexicographic with the tie direction fixed
by the sign.

Evaluation decides everything at working precision: a coefficient that
is zero at its precision only contributes the constraint "valuation at
least the precision exponent", and when that constraint could still
move a minimum or a tie the evaluation refuses with an indeterminacy
error instead of guessing.  One routine, ``_reading``, reads every
value so, on both sides of the tilt and for ``tatealg.valuation_at``.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (
    ConfigError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
    _exp_pair,
    _fraction,
    _integer,
    _is_int,
    _json_reader,
    _Value,
    denominator_power,
    element_from_json,
)
from .polyroots import Polynomial

__all__ = [
    "Rank2Value", "AdicPoint", "adic_point_from_json", "eval_at",
    "RationalSubset", "in_rational_subset", "specializes", "tilt_point_check",
]

_SIGNS = ("<", ">")


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


# =====================================================================
# Rank-2 values
# =====================================================================

class Rank2Value(_Value):
    """The value p^-q * gamma^k at a halo point of the given sign.

    gamma is a formal element squeezed between p^-q and all reals on
    one side of it, so values compare lexicographically: exponent q
    first, then k, with the direction of k fixed by the sign ("<" means
    gamma < p^-q, so larger k is smaller).
    """

    __slots__ = ("q", "k", "sign")

    def __init__(self, q, k: int, sign: str):
        if sign not in _SIGNS:
            raise ConfigError(f"sign must be '<' or '>', got {sign!r}")
        _integer(k, "gamma exponent", None, ConfigError)
        object.__setattr__(self, "q", _fraction(q))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sign", sign)

    def _key(self) -> tuple:
        return self.q, self.k, self.sign

    def sort_key(self):
        """Deeper value = larger key; ties on q break by the sign."""
        return (self.q, self.k if self.sign == "<" else -self.k)

    def value_le(self, other: "Rank2Value") -> bool:
        """|self| <= |other| in the rank-2 order."""
        if not isinstance(other, Rank2Value) or other.sign != self.sign:
            raise ConfigError("rank-2 values compare within one halo only")
        return self.sort_key() >= other.sort_key()

    def __mul__(self, other: "Rank2Value") -> "Rank2Value":
        if not isinstance(other, Rank2Value) or other.sign != self.sign:
            raise ConfigError("rank-2 values multiply within one halo only")
        return Rank2Value(self.q + other.q, self.k + other.k, self.sign)

    def to_json(self) -> dict:
        return {"exponent": _frac_json(self.q), "gamma_exp": self.k,
                "sign": self.sign}

    def __repr__(self):
        return f"<value p^-({self.q}) * gamma^{self.k} ({self.sign})>"


# =====================================================================
# Points
# =====================================================================

class AdicPoint(_Value):
    """A point of the closed unit polydisc in n >= 1 coordinates, in one
    of three shapes.

    classical: evaluation at coordinates in the closed unit ball, each
        with an optional tilt coordinate, a tilt element whose sharp it
        is (checked here): the point tilts there.
    disc: the sup norm over D(center, p^-radius_exp); radius_exp = 0 is
        the Gauss point.  Branching happens exactly when the radius is
        a field norm, i.e. radius_exp has a p-power denominator.
    halo: the rank-2 point squeezed against that disc from inside
        (sign "<", depending on the open disc) or outside (sign ">",
        depending on the closed disc).  An outside halo needs
        radius_exp > 0: at radius 1 it would assign |T| a value above
        every norm of the ball, which no point of the disc does.

    Disc and halo points have one coordinate, their center, except the
    Gauss point, the disc of radius 1 at the origin in any number.
    """

    __slots__ = ("kind", "coords", "tilts", "radius_exp", "sign")

    def __init__(self, kind: str, coords, radius_exp=None,
                 sign: str | None = None, tilts=None):
        if kind not in ("classical", "disc", "halo"):
            raise ConfigError(f"unknown point kind {kind!r}")
        coords = (coords,) if isinstance(coords, UntiltElement) else coords
        if not (isinstance(coords, (tuple, list)) and coords
                and isinstance(coords[0], UntiltElement) and all(
                    isinstance(x, UntiltElement)
                    and x.config == coords[0].config for x in coords[1:])):
            raise ConfigError("a point needs one or more coordinates, "
                              "characteristic-0 elements of one config")
        config = coords[0].config
        # digit exponents are nonnegative by construction, so any center
        # already lies in the closed unit disc
        if kind == "classical":
            if radius_exp is not None or sign is not None:
                raise ConfigError("classical points carry no radius or sign")
        else:
            radius_exp = _fraction(radius_exp, "radius exponent")
            if radius_exp < 0:
                raise KernelError(
                    f"radius exponent must be nonnegative, got {radius_exp}")
            if kind == "disc":
                if sign is not None:
                    raise ConfigError("disc points carry no sign")
            else:
                if sign not in _SIGNS:
                    raise ConfigError(
                        f"halo points need sign '<' or '>', got {sign!r}")
                if sign == ">" and radius_exp == 0:
                    raise KernelError(
                        "an outside halo at radius 1 would exceed the "
                        "norms of the unit ball")
            if len(coords) > 1 and (kind, radius_exp) != ("disc", 0):
                raise ConfigError("a disc or halo point has one "
                                  "coordinate, unless it is the Gauss point")
        tilts = (None,) * len(coords) if tilts is None else tilts
        if not isinstance(tilts, (tuple, list)) or len(tilts) != len(coords):
            raise ConfigError("a point needs a tilt or None per coordinate")
        for x, y in zip(coords, tilts):
            if y is not None:
                # only a classical coordinate has a tilt
                if kind != "classical" or not isinstance(y, TiltElement) \
                        or y.config != config:
                    raise ConfigError(f"bad tilt preimage {y!r}")
                from .tiltkit import _check_lift
                _check_lift(y, x)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "tilts", tuple(tilts))
        object.__setattr__(self, "radius_exp", radius_exp)
        object.__setattr__(self, "sign", sign)

    def _key(self) -> tuple:
        return self.kind, self.coords, self.tilts, self.radius_exp, self.sign

    # -- constructors ----------------------------------------------------

    @classmethod
    def classical(cls, *coords: UntiltElement, tilts=None) -> "AdicPoint":
        return cls("classical", coords, tilts=tilts)

    @classmethod
    def disc(cls, center: UntiltElement, radius_exp) -> "AdicPoint":
        return cls("disc", center, radius_exp)

    @classmethod
    def halo(cls, center: UntiltElement, radius_exp,
             sign: str) -> "AdicPoint":
        return cls("halo", center, radius_exp, sign)

    @classmethod
    def gauss(cls, config: FieldConfig, nvars: int = 1) -> "AdicPoint":
        zero = UntiltElement.zero(config)
        return cls("disc", (zero,) * _integer(nvars, "variable count", 1,
                                              ConfigError), 0)

    # -- classification --------------------------------------------------

    @property
    def config(self) -> FieldConfig:
        return self.coords[0].config

    @property
    def nvars(self) -> int:
        return len(self.coords)

    @property
    def center(self) -> UntiltElement:
        # the first coordinate: the center of a disc or halo point
        return self.coords[0]

    def classify(self) -> int:
        """The standard numbering: 1 classical, 2 branching disc,
        3 non-branching disc, 5 halo."""
        if self.kind == "classical":
            return 1
        if self.kind == "halo":
            return 5
        if denominator_power(self.radius_exp.denominator,
                             self.config.p) is not None:
            return 2
        return 3

    def is_gauss(self) -> bool:
        return self.kind == "disc" and self.radius_exp == 0

    # -- the tilt --------------------------------------------------------

    def tilt(self, i: int) -> TiltElement | None:
        """The tilt of coordinate i: the tilt coordinate it carries, or
        else the evident one of 0 and of a power p^a, t^a exact like
        them; None for any other coordinate."""
        if not (_is_int(i) and 0 <= i < self.nvars):
            raise ConfigError(f"coordinate index must be one of "
                              f"0..{self.nvars - 1}, got {i!r}")
        x, y = self.coords[i], self.tilts[i]
        if y is None and list((digits := x._digits).values()) in ([], [1]):
            return TiltElement._make(x.config, dict.fromkeys(digits, 1),
                                     x.config.full)
        return y

    def _power(self, i: int, j: int, kind: str):
        # coordinate i to the exponent at lattice index j > 0 on the kind
        # side.  Untilt p-power roots come from the tilt; a zero
        # coordinate and an integral exponent build none.
        x, config = self.coords[i], self.config
        num, denpow = _exp_pair(j, config)
        if kind == "untilt":
            if x.is_zero():
                return UntiltElement.zero(config, config.prec)
            if not denpow:
                return x ** num
        y = self.tilt(i)
        if y is None:
            raise IndeterminateError(
                f"no exact p-power root of the coordinate {x!r} is "
                f"available; supply a tilt preimage or keep exponents "
                f"integral" if kind == "untilt" else
                f"the coordinate {x!r} has no tilt; supply its tilt preimage")
        root = y.root(denpow)
        if kind == "tilt":
            return root ** num
        if self.tilts[i] is None:
            # a root of t^a lifts to its own digits, with no sharp rooting
            return UntiltElement._make(config, root._digits, root._k) ** num
        from .tiltkit import sharp
        return sharp(root, config.prec) ** num

    # -- identity --------------------------------------------------------

    def same_point(self, other: "AdicPoint") -> bool:
        """Semantic equality, decided at working precision.

        Two disc or outside-halo points agree when the centers are
        congruent modulo the radius; inside halos compare on the open
        disc, so the congruence is strict.  A congruence the precision
        cannot certify reads as False.
        """
        if not isinstance(other, AdicPoint):
            raise ConfigError(f"not a point: {other!r}")
        if self is other:
            return True
        if (self.kind, self.nvars, self.radius_exp, self.sign) != (
                other.kind, other.nvars, other.radius_exp, other.sign):
            return False
        diffs = [x - y for x, y in zip(self.coords, other.coords)]
        if self.kind == "classical":
            return all(d.is_zero() for d in diffs)
        bound = Fraction(min(d._low() for d in diffs), self.config.scale)
        if self.kind == "halo" and self.sign == "<":
            return bound > self.radius_exp
        return bound >= self.radius_exp

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The disc form (key "type") for one coordinate, the polydisc
        form (key "kind") for more."""
        if self.nvars > 1:
            if self.kind != "classical":
                return {"kind": "gauss"}
            out = {"kind": "classical",
                   "coords": [x.to_json() for x in self.coords]}
            if any(y is not None for y in self.tilts):
                out["tilt_coords"] = [None if y is None else y.to_json()
                                      for y in self.tilts]
            return out
        if self.is_gauss():
            return {"type": "gauss", "p": self.config.p,
                    "prec": self.config.prec, "dencap": self.config.dencap}
        out = {"type": self.kind, "center": self.center.to_json()}
        if self.tilts[0] is not None:
            out["tilt"] = self.tilts[0].to_json()
        if self.kind != "classical":
            out["radius_exp"] = _frac_json(self.radius_exp)
        if self.kind == "halo":
            out["sign"] = self.sign
        return out

    def __repr__(self):
        if self.is_gauss():
            return "<adic gauss>"
        c = ", ".join(x.to_text() for x in self.coords)
        if self.kind == "classical":
            return (f"<adic classical T={c}>" if self.nvars == 1
                    else f"<adic classical ({c})>")
        if self.kind == "disc":
            return f"<adic disc D({c}, p^-({self.radius_exp}))>"
        return (f"<adic halo D({c}, {self.sign}p^-({self.radius_exp}))>")


@_json_reader("adic point")
def adic_point_from_json(data: dict | str,
                         config: FieldConfig | None = None,
                         nvars: int = 1) -> AdicPoint:
    """Rebuilds a point from either JSON form, chosen by key: "type" is
    the disc form, "kind" the polydisc form.  A Gauss shorthand takes
    what it omits from the function it is evaluated with: its config,
    passed as config (the disc form may give it inline as p/prec/dencap,
    and both must agree), and in the polydisc form its arity, nvars."""
    def read(d):
        return None if d is None else element_from_json(d)

    if "type" not in data and "kind" in data:
        kind, tilts = data["kind"], data.get("tilt_coords")
        if kind == "classical":
            return AdicPoint.classical(
                *[element_from_json(d) for d in data["coords"]],
                tilts=None if tilts is None else [read(d) for d in tilts])
        if kind != "gauss":
            raise ConfigError(f"unknown point kind {kind!r}")
        if config is None:
            raise KernelError("the gauss shorthand needs an explicit config")
        return AdicPoint.gauss(config, nvars)
    kind = data.get("type")
    if kind == "gauss":
        if data.keys() & {"p", "prec", "dencap"}:
            inline = FieldConfig(data["p"], data["prec"], data["dencap"])
            if config is None:
                config = inline
            elif inline != config:
                raise ConfigError(f"the gauss point has {inline}, the "
                                  f"input has {config}")
        elif config is None:
            raise KernelError(
                "the gauss shorthand needs p/prec/dencap or an "
                "explicit config")
        return AdicPoint.gauss(config)
    if kind not in ("classical", "disc", "halo"):
        raise ConfigError(f"unknown point type {kind!r}")
    center = element_from_json(data["center"])
    if kind == "classical":
        return AdicPoint.classical(center, tilts=[read(data.get("tilt"))])
    radius = data["radius_exp"]
    q = Fraction(radius["num"], radius["den"])
    # Fraction refuses a float or a string itself, but takes a bool
    if not (_is_int(radius["num"]) and _is_int(radius["den"])):
        raise TypeError(f"radius exponent {radius!r} is not num / den")
    if kind == "disc":
        return AdicPoint.disc(center, q)
    return AdicPoint.halo(center, q, data["sign"])


# =====================================================================
# Evaluation
# =====================================================================

def _reading(levels: list, den: int) -> tuple:
    """(exact, lower, blocker): the least of the levels e/den, read at
    working precision.  levels[n] is (e, hidden): a visible coefficient
    gives its level e, one zero at precision (hidden) only the bound
    "at least e", e its precision; a value at a classical point is one
    such level.  exact is the least level, or None unless some level is
    visible and no bound falls below the least visible one (the first
    that does is blocker); lower, the least of all, is certified."""
    # a visible level sorts before a bound at the same level
    lower, hidden = min(levels)
    if not hidden:
        value = Fraction(lower, den)
        return value, value, None
    least = min((e for e, hid in levels if not hid), default=None)
    blocker = None if least is None else next(
        n for n, (e, hid) in enumerate(levels) if hid and e < least)
    return None, Fraction(lower, den), blocker


def eval_at(f: Polynomial, x: AdicPoint):
    """The valuation exponent of f at the point.

    classical points return the valuation of f(center); disc points the
    minimum of v(a_n) + n*q over the re-expansion around the center;
    halo points the same minimum together with the gamma exponent, the
    tie among minimizing n resolved toward the sign.  A polynomial over
    the tilt is read at the tilt of a classical or the Gauss point.

    Returns:
        Fraction for rank-1 points, Rank2Value for halos.

    Raises:
        IndeterminateError: the working precision leaves the minimum or
            the tie unsettled (including f(center) = 0 at precision).
        KernelError: a polynomial over the tilt at a disc or halo point,
            or at a classical point with no tilt.
    """
    if not isinstance(f, Polynomial):
        raise ConfigError(f"not a polynomial: {f!r}")
    if not isinstance(x, AdicPoint):
        raise ConfigError(f"not a point: {x!r}")
    if f.config != x.config:
        raise ConfigError("polynomial and point configs differ")
    if x.nvars != 1:
        raise ConfigError(f"a polynomial in one variable is not evaluated "
                          f"at a point of {x.nvars} coordinates")
    scale = f.config.scale
    center = x.center
    if f.kind == "tilt":
        if not (x.kind == "classical" or x.is_gauss()):
            raise KernelError(
                f"a polynomial over the tilt is evaluated at classical "
                f"points and the Gauss point, not at {x!r}")
        center = x.tilt(0)
        if center is None:
            raise KernelError(
                f"center {x.center!r} is not a recognized sharp image; "
                f"supply its tilt preimage")
    if x.kind == "classical":
        y = f(center)
        exact, lower, _ = _reading([(y._low(), y.is_zero())], scale)
        if exact is None:
            raise IndeterminateError(
                f"f(center) vanishes at working precision "
                f"(known modulo {y.symbol}^{lower}); its "
                f"valuation exponent is undetermined")
        return exact
    # v(a_n) + n*q over the coefficients a_n of f(T + center), on the
    # common denominator scale * den(q)
    q = x.radius_exp
    den = scale * q.denominator
    step = scale * q.numerator
    levels = [(a._low() * q.denominator + n * step, a.is_zero())
              for n, a in enumerate(f.shifted(center).coeffs)]
    exact, _, blocker = _reading(levels, den)
    if exact is None:
        if blocker is None:
            raise IndeterminateError(
                "every re-expanded coefficient vanishes at working "
                "precision; the sup-norm exponent is undetermined")
        raise IndeterminateError(
            f"coefficient {blocker} of the re-expansion is zero at a "
            f"precision too low to rule it out of the minimum")
    if x.kind == "disc":
        return exact
    m = exact.numerator * den // exact.denominator
    ties = [n for n, (e, hidden) in enumerate(levels)
            if not hidden and e == m]
    k = min(ties) if x.sign == "<" else max(ties)
    for n, (e, hidden) in enumerate(levels):
        if hidden and e == m and ((x.sign == "<" and n < k)
                                  or (x.sign == ">" and n > k)):
            raise IndeterminateError(
                f"coefficient {n} of the re-expansion is zero exactly at "
                f"the minimal level; the gamma exponent is undetermined")
    return Rank2Value(exact, k, x.sign)


def _abs_le(a, b) -> bool:
    # |value a| <= |value b| on matching ranks
    if isinstance(a, Rank2Value):
        return a.value_le(b)
    return a >= b


# =====================================================================
# Rational subsets
# =====================================================================

def _is_uniformizer_power(f: Polynomial) -> bool:
    if f.degree != 0:
        return False
    a = f.coeffs[0]
    return list(a._digits.values()) == [1] and a._low() % a.config.scale == 0


class RationalSubset(_Value):
    """The locus |f_i(x)| <= |g(x)| for all i.

    The numerators must generate the unit ideal at working precision;
    following the usual normalization this is enforced by carrying a
    power of the uniformizer among them, and the deepest one visible at
    working precision (p^(prec-1)) is appended when the caller did not
    provide any.  The extra condition only discards points where |g|
    drops below every visible value of the ground field.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators, denominator: Polynomial):
        numerators = tuple(numerators)
        if not numerators:
            raise ConfigError("a rational subset needs numerators")
        if not isinstance(denominator, Polynomial) \
                or denominator.kind != "untilt":
            raise ConfigError("the denominator must be a polynomial over "
                              "the characteristic-0 side")
        config = denominator.config
        for f in numerators:
            if not isinstance(f, Polynomial) or f.kind != "untilt" \
                    or f.config != config:
                raise ConfigError("numerators must match the denominator's "
                                  "ring")
        if not any(_is_uniformizer_power(f) for f in numerators):
            pinned = Polynomial([UntiltElement.monomial(
                config, 1, config.prec - 1)])
            numerators = numerators + (pinned,)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    def _key(self) -> tuple:
        return self.numerators, self.denominator

    @property
    def config(self) -> FieldConfig:
        return self.denominator.config

    def to_json(self) -> dict:
        return {"numerators": [f.to_json() for f in self.numerators],
                "denominator": self.denominator.to_json()}

    @classmethod
    @_json_reader("rational subset")
    def from_json(cls, data: dict | str) -> "RationalSubset":
        return cls([Polynomial.from_json(d) for d in data["numerators"]],
                   Polynomial.from_json(data["denominator"]))

    def __repr__(self):
        return (f"<rational subset, {len(self.numerators)} numerators / "
                f"deg {self.denominator.degree} denominator>")


def in_rational_subset(x: AdicPoint, U: RationalSubset) -> bool:
    """Membership of the point in the rational subset.

    Raises:
        IndeterminateError: an evaluation the precision cannot settle.
    """
    if not isinstance(U, RationalSubset):
        raise ConfigError(f"not a rational subset: {U!r}")
    eg = eval_at(U.denominator, x)
    return all(_abs_le(eval_at(f, x), eg) for f in U.numerators)


# =====================================================================
# Specialization
# =====================================================================

def specializes(x: AdicPoint, y: AdicPoint) -> bool:
    """Whether y lies in the closure of x.

    In the disc model the only strict specializations go from a
    branching disc point to the halos pressed against it: every inside
    halo whose center lies in the disc, and the outside halo of the
    disc itself.  All other points are closed.  Centers congruences are
    certified at working precision; an uncertified congruence reads as
    False.
    """
    if not isinstance(x, AdicPoint) or not isinstance(y, AdicPoint):
        raise ConfigError("specializes compares two adic points")
    if x.config != y.config:
        raise ConfigError("points live over different configs")
    if x.nvars != y.nvars:
        raise ConfigError("points live in different numbers of coordinates")
    if x.same_point(y):
        return True
    if x.classify() != 2 or y.kind != "halo":
        return False
    if y.radius_exp != x.radius_exp:
        return False
    diff = x.center - y.center
    return Fraction(diff._low(), diff.config.scale) >= x.radius_exp


# =====================================================================
# Point tilting
# =====================================================================

def tilt_point_check(fb: Polynomial, x: AdicPoint) -> dict:
    """Compares |f^sharp(x)| with |f(x-flat)| at a tilted point.

    The point correspondence sends x to the valuation f -> |f^sharp(x)|
    on the characteristic-p side, so the two exponents must agree.  The
    check computes both independently with ``eval_at``: the sharp image
    of fb at x, and fb itself at the tilt of x.

    Args:
        fb: polynomial over the tilt.
        x: classical point or the Gauss point.  A classical point tilts
            to its tilt coordinate, which 0 and the powers of p need not
            carry (``AdicPoint.tilt``).

    Returns:
        dict with "untilt_exponent", "tilt_exponent" (Fractions) and
        "match".

    Raises:
        IndeterminateError: a vanishing-at-precision evaluation.
    """
    if not isinstance(fb, Polynomial) or fb.kind != "tilt":
        raise ConfigError("tilt_point_check expects a polynomial over the "
                          "tilt")
    from .tiltkit import sharp
    prec = fb.config.prec
    untilt_exp = eval_at(Polynomial([sharp(c, prec) for c in fb.coeffs]), x)
    tilt_exp = eval_at(fb, x)
    return {"untilt_exponent": untilt_exp, "tilt_exponent": tilt_exp,
            "match": untilt_exp == tilt_exp}
