"""Points of the adic closed unit disc and their valuations.

The disc over the characteristic-0 field carries more points than its
classical ones.  This module represents three kinds: classical centers,
disc points (the sup norm over a closed sub-disc of radius p^-q, the
Gauss point being radius 1), and halo points (rank-2 valuations sitting
infinitesimally inside or outside a disc, tagged by a sign).  Dead-end
points arising from nested disc families with empty intersection need
infinitely many centers to witness and are not represented.

Values are handled in exponent form: a rank-1 value p^-e is the
exponent e, and a rank-2 value p^-q * gamma^k is a Rank2Value, where
gamma is infinitesimally smaller (sign "<") or larger (sign ">") than
p^-q.  Comparisons are then lexicographic with the tie direction fixed
by the sign.

Evaluation decides everything at working precision: a coefficient that
is zero at its precision only contributes the constraint "valuation at
least the precision exponent", and when that constraint could still
move a minimum or a tie the evaluation refuses with an indeterminacy
error instead of guessing.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arith import (
    ConfigError,
    FieldConfig,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
    denominator_power,
    element_from_json,
)
from .polyroots import Polynomial

_SIGNS = ("<", ">")


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _frac_from_json(data) -> Fraction:
    return Fraction(int(data["num"]), int(data["den"]))


# =====================================================================
# Rank-2 values
# =====================================================================

class Rank2Value:
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
        if not isinstance(k, int):
            raise ConfigError(f"gamma exponent must be an integer, got {k!r}")
        object.__setattr__(self, "q", Fraction(q))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("values are immutable")

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

    def __eq__(self, other):
        if not isinstance(other, Rank2Value):
            return NotImplemented
        return (self.q, self.k, self.sign) == (other.q, other.k, other.sign)

    def __hash__(self):
        return hash((self.q, self.k, self.sign))

    def to_json(self) -> dict:
        return {"exponent": _frac_json(self.q), "gamma_exp": self.k,
                "sign": self.sign}

    def __repr__(self):
        return f"<value p^-({self.q}) * gamma^{self.k} ({self.sign})>"


# =====================================================================
# Points
# =====================================================================

class AdicPoint:
    """A point of the closed unit disc, in one of three shapes.

    classical: evaluation at a center in the closed unit ball.
    disc: the sup norm over D(center, p^-radius_exp); radius_exp = 0 is
        the Gauss point.  Branching happens exactly when the radius is
        a field norm, i.e. radius_exp has a p-power denominator.
    halo: the rank-2 point squeezed against that disc from inside
        (sign "<", depending on the open disc) or outside (sign ">",
        depending on the closed disc).  An outside halo needs
        radius_exp > 0: at radius 1 it would assign |T| a value above
        every norm of the ball, which no point of the disc does.
    """

    __slots__ = ("kind", "center", "radius_exp", "sign")

    def __init__(self, kind: str, center: UntiltElement, radius_exp=None,
                 sign: str | None = None):
        if kind not in ("classical", "disc", "halo"):
            raise ConfigError(f"unknown point kind {kind!r}")
        if not isinstance(center, UntiltElement):
            raise ConfigError("the center must be an element of the "
                              "characteristic-0 side")
        # digit exponents are nonnegative by construction, so any center
        # already lies in the closed unit disc
        if kind == "classical":
            if radius_exp is not None or sign is not None:
                raise ConfigError("classical points carry no radius or sign")
        else:
            radius_exp = Fraction(radius_exp)
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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius_exp", radius_exp)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("points are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def classical(cls, center: UntiltElement) -> "AdicPoint":
        return cls("classical", center)

    @classmethod
    def disc(cls, center: UntiltElement, radius_exp) -> "AdicPoint":
        return cls("disc", center, radius_exp)

    @classmethod
    def halo(cls, center: UntiltElement, radius_exp,
             sign: str) -> "AdicPoint":
        return cls("halo", center, radius_exp, sign)

    @classmethod
    def gauss(cls, config: FieldConfig) -> "AdicPoint":
        return cls("disc", UntiltElement.zero(config), 0)

    # -- classification --------------------------------------------------

    @property
    def config(self) -> FieldConfig:
        return self.center.config

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
        if (self.kind, self.radius_exp, self.sign) != (
                other.kind, other.radius_exp, other.sign):
            return False
        diff = self.center - other.center
        bound = Fraction(diff._low(), diff.config.scale)
        if self.kind == "classical":
            return diff.is_zero()
        if self.kind == "halo" and self.sign == "<":
            return bound > self.radius_exp
        return bound >= self.radius_exp

    def __eq__(self, other):
        if not isinstance(other, AdicPoint):
            return NotImplemented
        return (self.kind == other.kind and self.center == other.center
                and self.radius_exp == other.radius_exp
                and self.sign == other.sign)

    def __hash__(self):
        return hash((self.kind, self.center, self.radius_exp, self.sign))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        if self.is_gauss():
            return {"type": "gauss", "p": self.config.p,
                    "prec": self.config.prec, "dencap": self.config.dencap}
        out = {"type": self.kind, "center": self.center.to_json()}
        if self.kind != "classical":
            out["radius_exp"] = _frac_json(self.radius_exp)
        if self.kind == "halo":
            out["sign"] = self.sign
        return out

    def __repr__(self):
        if self.is_gauss():
            return "<adic gauss>"
        c = self.center.to_text()
        if self.kind == "classical":
            return f"<adic classical T={c}>"
        if self.kind == "disc":
            return f"<adic disc D({c}, p^-({self.radius_exp}))>"
        return (f"<adic halo D({c}, {self.sign}p^-({self.radius_exp}))>")


def adic_point_from_json(data: dict | str,
                         config: FieldConfig | None = None) -> AdicPoint:
    """Rebuilds a point; the Gauss shorthand needs the config supplied
    either inline (p/prec/dencap keys) or as an argument."""
    if isinstance(data, str):
        data = json.loads(data)
    kind = data.get("type")
    if kind == "gauss":
        if config is None:
            if "p" not in data:
                raise KernelError(
                    "the gauss shorthand needs p/prec/dencap or an "
                    "explicit config")
            config = FieldConfig(int(data["p"]), int(data["prec"]),
                                 int(data["dencap"]))
        return AdicPoint.gauss(config)
    if kind not in ("classical", "disc", "halo"):
        raise ConfigError(f"unknown point type {kind!r}")
    center = element_from_json(data["center"])
    if kind == "classical":
        return AdicPoint.classical(center)
    q = _frac_from_json(data["radius_exp"])
    if kind == "disc":
        return AdicPoint.disc(center, q)
    return AdicPoint.halo(center, q, data["sign"])


# =====================================================================
# Evaluation
# =====================================================================

def eval_at(f: Polynomial, x: AdicPoint):
    """The valuation exponent of f at the point.

    classical points return the valuation of f(center); disc points the
    minimum of v(a_n) + n*q over the re-expansion around the center;
    halo points the same minimum together with the gamma exponent, the
    tie among minimizing n resolved toward the sign.

    Returns:
        Fraction for rank-1 points, Rank2Value for halos.

    Raises:
        IndeterminateError: the working precision leaves the minimum or
            the tie unsettled (including f(center) = 0 at precision).
    """
    if not isinstance(f, Polynomial) or f.kind != "untilt":
        raise ConfigError("eval_at expects a polynomial over the "
                          "characteristic-0 side")
    if not isinstance(x, AdicPoint):
        raise ConfigError(f"not a point: {x!r}")
    if f.config != x.config:
        raise ConfigError("polynomial and point configs differ")
    scale = f.config.scale
    if x.kind == "classical":
        y = f(x.center)
        if y.is_zero():
            raise IndeterminateError(
                f"f(center) vanishes at working precision "
                f"(known modulo p^{y.precexp}); its "
                f"valuation exponent is undetermined")
        return Fraction(y._low(), scale)
    # v(a_n) + n*q over the coefficients a_n of f(T + center), on the
    # common denominator scale * den(q): exact for a visible digit, a
    # lower bound (the precision) for a coefficient zero at precision
    q = x.radius_exp
    den = scale * q.denominator
    step = scale * q.numerator
    exact, lowers = [], []
    for n, a in enumerate(f.shifted(x.center).coeffs):
        level = (a._low() * q.denominator + n * step, n)
        (lowers if a.is_zero() else exact).append(level)
    if not exact:
        raise IndeterminateError(
            "every re-expanded coefficient vanishes at working precision; "
            "the sup-norm exponent is undetermined")
    m = min(e for e, _ in exact)
    blocking = [n for e, n in lowers if e < m]
    if blocking:
        raise IndeterminateError(
            f"coefficient {blocking[0]} of the re-expansion is zero at a "
            f"precision too low to rule it out of the minimum")
    if x.kind == "disc":
        return Fraction(m, den)
    ties = [n for e, n in exact if e == m]
    k = min(ties) if x.sign == "<" else max(ties)
    for e, n in lowers:
        if e == m and ((x.sign == "<" and n < k)
                       or (x.sign == ">" and n > k)):
            raise IndeterminateError(
                f"coefficient {n} of the re-expansion is zero exactly at "
                f"the minimal level; the gamma exponent is undetermined")
    return Rank2Value(Fraction(m, den), k, x.sign)


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


class RationalSubset:
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

    def __setattr__(self, name, value):
        raise AttributeError("rational subsets are immutable")

    @property
    def config(self) -> FieldConfig:
        return self.denominator.config

    def to_json(self) -> dict:
        return {"numerators": [f.to_json() for f in self.numerators],
                "denominator": self.denominator.to_json()}

    @classmethod
    def from_json(cls, data: dict | str) -> "RationalSubset":
        if isinstance(data, str):
            data = json.loads(data)
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
    if x.same_point(y):
        return True
    if x.classify() != 2 or y.kind != "halo":
        return False
    if y.radius_exp != x.radius_exp:
        return False
    diff = x.center - y.center
    return Fraction(diff._low(), diff.config.scale) >= x.radius_exp


def generizations(x: AdicPoint, candidates) -> list:
    """The candidates (plus x) that specialize to x, sorted generic
    first; by the model this is always a chain."""
    chain = [y for y in candidates if specializes(y, x)
             and not y.same_point(x)]
    chain.sort(key=lambda y: y.classify())
    return chain + [x]


# =====================================================================
# Point tilting
# =====================================================================

def _tilt_center(center: UntiltElement, center_tilt):
    config = center.config
    if center_tilt is not None:
        if not isinstance(center_tilt, TiltElement) \
                or center_tilt.config != config:
            raise ConfigError(f"bad tilt center {center_tilt!r}")
        from .tiltkit import sharp
        image = sharp(center_tilt, config.prec)._at(center._k)
        if image != center:
            raise KernelError(
                f"tilt center {center_tilt!r} does not lift to {center!r}")
        return center_tilt
    if center.is_zero():
        return TiltElement.zero(config, config.prec)
    if list(center._digits.values()) == [1]:
        return TiltElement._make(config, {center._low(): 1}, config.full)
    raise KernelError(
        f"center {center!r} is not a recognized sharp image; supply its "
        f"tilt preimage")


def tilt_point_check(fb: Polynomial, x: AdicPoint,
                     center_tilt: TiltElement | None = None) -> dict:
    """Compares |f^sharp(x)| with |f(x-flat)| at a tilted point.

    The point correspondence sends x to the valuation f -> |f^sharp(x)|
    on the characteristic-p side, so the two exponents must agree.  The
    check computes both independently: the sharp image of fb is
    evaluated at x, and fb itself at the tilted center (the Gauss point
    tilts to the Gauss point).

    Args:
        fb: polynomial over the tilt.
        x: classical point or the Gauss point, with a center in the
            image of the multiplicative lift.
        center_tilt: explicit preimage of the center; required when the
            center is not 0, 1 or a power of the uniformizer.

    Returns:
        dict with "untilt_exponent", "tilt_exponent" (Fractions) and
        "match".

    Raises:
        IndeterminateError: a vanishing-at-precision evaluation.
    """
    if not isinstance(fb, Polynomial) or fb.kind != "tilt":
        raise ConfigError("tilt_point_check expects a polynomial over the "
                          "tilt")
    if not isinstance(x, AdicPoint):
        raise ConfigError(f"not a point: {x!r}")
    if fb.config != x.config:
        raise ConfigError("polynomial and point configs differ")
    if not (x.kind == "classical" or x.is_gauss()):
        raise KernelError(
            "the check runs at classical points and the Gauss point")
    from .tiltkit import sharp
    config = fb.config
    fs = Polynomial([sharp(c, config.prec) for c in fb.coeffs])
    untilt_exp = eval_at(fs, x)
    if x.is_gauss():
        low = min(c._low() for c in fb.coeffs if not c.is_zero())
        if any(c._k < low for c in fb.coeffs if c.is_zero()):
            raise IndeterminateError(
                "a tilt coefficient vanishes at a precision below the "
                "minimum; the Gauss exponent is undetermined")
    else:
        y = fb(_tilt_center(x.center, center_tilt))
        if y.is_zero():
            raise IndeterminateError(
                f"f(tilted center) vanishes at working precision "
                f"(known modulo t^{y.precexp})")
        low = y._low()
    tilt_exp = Fraction(low, config.scale)
    return {"untilt_exponent": untilt_exp, "tilt_exponent": tilt_exp,
            "match": untilt_exp == tilt_exp}
