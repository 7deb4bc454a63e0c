"""Newton polygons and root finding over the truncated fields.

Polynomials carry coefficients from a single ring (tilt or untilt side)
and expose the valuation-theoretic toolbox: the Newton polygon with its
root-valuation segments, Hensel lifting of simple residue roots, a
digit-by-digit search for roots in the characteristic-p ring, the
coefficientwise transfer of a tilt polynomial to the untilt side, and
the refinement loop that assembles a mixed-characteristic root from a
sequence of characteristic-p digit solves.

Conventions:
  * polygon segments store the root valuation (the negated hull slope)
    and are listed in increasing order, so the deepest branch is last;
  * roots at X = 0 are split off before the hull is computed and show
    up as ``vanishing_order`` instead of a segment;
  * a coefficient that is zero at its current precision participates
    only as the constraint "valuation >= precexp"; when that constraint
    could still move the hull the polygon is refused as indeterminate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    ConfigError,
    IndeterminateError,
    KernelError,
    TiltElement,
    UntiltElement,
    _kind_class,
    _mul_rows,
    divide_exact,
    element_from_json,
    reduce_mod_uniformizer,
)


class RootError(KernelError):
    """A root search failed: no convergence, budget, or a bad stage."""


class Polynomial:
    """A polynomial with coefficients in one of the two rings.

    Coefficients are stored ascending (index = degree).  The leading
    coefficient must be nonzero at its current precision; lower
    coefficients may be anything, including zero at precision.
    """

    __slots__ = ("config", "kind", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise KernelError("a polynomial needs at least one coefficient")
        first = coeffs[0]
        if not isinstance(first, (TiltElement, UntiltElement)):
            raise ConfigError(
                f"coefficients must be ring elements, got "
                f"{type(first).__name__}")
        for c in coeffs[1:]:
            if type(c) is not type(first):
                raise ConfigError("coefficients mix tilt and untilt elements")
            if c.config is not first.config and c.config != first.config:
                raise ConfigError("coefficients mix field configurations")
        if coeffs[-1].is_zero():
            raise KernelError(
                "leading coefficient is zero at current precision; "
                "trim the polynomial before constructing it")
        object.__setattr__(self, "config", first.config)
        object.__setattr__(self, "kind", first.kind)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def trimmed(cls, coeffs) -> "Polynomial":
        """Build a polynomial, dropping trailing zero-at-precision coeffs."""
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = c._addmul(acc, x)
        return acc

    def derivative_at(self, x):
        """Evaluate the formal derivative at x without constructing it.

        The derivative itself may have a zero-at-precision leading
        coefficient (characteristic p kills degree multiples of p), so
        it does not always satisfy the Polynomial invariant.
        """
        acc = None
        for i in range(len(self.coeffs) - 1, 0, -1):
            term = self.coeffs[i] * i
            acc = term if acc is None else term._addmul(acc, x)
        if acc is None:
            raise KernelError("constant polynomial has no derivative roots")
        return acc

    def shifted(self, delta) -> "Polynomial":
        """The polynomial X -> P(X + delta): coefficient i is the Taylor
        coefficient b_i = sum over j >= i of C(j, i) a_j delta^(j-i).

        Values: Ruffini-Horner, a_j += a_(j+1) * delta for j from d - 1
        down to i, for i = 0 .. d - 1, on the representatives of the a_j
        and of delta, read modulo X^K with K the largest output
        precision.  This promotes the representatives to exact; each b_i
        is then cut to its own precision, which makes it sound.

        Precision: b_i is known to the index the binomial sum certifies,
        computed on indices alone.  With (k, v) an element's precision
        and valuation index (v = k when no digit is visible), the
        product rule is k = min(k1 + v2, k2 + v1, full), v = v1 + v2 cut
        at k.  It gives the chain (k_m, v_m) of delta^m from (full, 0);
        C(j, i) is (full, L), with L = scale * v_p(C(j, i)) capped at
        full on the untilt side, and full or 0 on the tilt side as p
        divides C(j, i) or not; b_i's precision is the least over j of
        the precision of (a_j * C(j, i)) * delta^(j-i).
        """
        coeffs = self.coeffs
        first = coeffs[0]
        delta = first._coerce(delta)
        first._check_compatible(delta)
        config = self.config
        p, full, d = config.p, config.full, self.degree
        kd, vd = delta._k, delta._low()
        chain = [(full, 0)]
        for _ in range(d):
            k, v = chain[-1]
            k = min(k + vd, kd + v, full)
            chain.append((k, min(v + vd, k)))
        held = [(a._k, a._low()) for a in coeffs]
        ks = []
        for i in range(d + 1):
            k_i = full
            for j in range(i, d + 1):
                ka, va = held[j]
                c, low = math.comb(j, i), 0
                if first._carries:
                    while c % p == 0:
                        c //= p
                        low += config.scale
                    low = min(low, full)
                elif c % p == 0:
                    low = full
                k1 = min(ka + low, full)
                v1 = min(va + low, k1)
                km, vm = chain[j - i]
                k_i = min(k_i, k1 + vm, km + v1)
            ks.append(k_i)
        top = max(ks)
        make = first._make
        step = delta._digits
        vals = list(coeffs)
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                vals[j] = make(config, _mul_rows(
                    dict(vals[j]._digits), vals[j + 1]._digits, step, top),
                    top)
        return Polynomial([b._at(k) for b, k in zip(vals, ks)])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.kind == other.kind and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.kind, self.coeffs))

    def __repr__(self):
        inner = ", ".join(c.to_text() for c in self.coeffs)
        return f"<poly/{self.kind} [{inner}]>"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        if not isinstance(data, list) or not data:
            raise KernelError("polynomial JSON must be a non-empty array")
        return cls([element_from_json(entry) for entry in data])


class NewtonPolygon:
    """Root valuations of a polynomial, with multiplicities.

    segments: tuple of (root valuation, multiplicity), strictly
    increasing in the valuation.  vanishing_order counts the roots at
    X = 0 (zero constant coefficients at current precision).
    """

    __slots__ = ("segments", "vanishing_order")

    def __init__(self, segments, vanishing_order: int = 0):
        segments = tuple((Fraction(s), int(m)) for s, m in segments)
        for (s1, m1), (s2, _) in zip(segments, segments[1:]):
            if s2 <= s1:
                raise KernelError("polygon slopes must strictly increase")
        for _, m in segments:
            if m < 1:
                raise KernelError("segment multiplicities must be positive")
        if vanishing_order < 0:
            raise KernelError("vanishing order cannot be negative")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "vanishing_order", int(vanishing_order))

    def __setattr__(self, name, value):
        raise AttributeError("polygons are immutable")

    def slopes(self) -> tuple:
        return tuple(s for s, _ in self.segments)

    def __eq__(self, other):
        if not isinstance(other, NewtonPolygon):
            return NotImplemented
        return (self.segments == other.segments
                and self.vanishing_order == other.vanishing_order)

    def __hash__(self):
        return hash((self.segments, self.vanishing_order))

    def __repr__(self):
        parts = [f"({s}, x{m})" for s, m in self.segments]
        if self.vanishing_order:
            parts.append(f"zero^{self.vanishing_order}")
        return "<polygon " + " ".join(parts) + ">"

    def to_json(self) -> list:
        out = [{"slope": str(s), "mult": m} for s, m in self.segments]
        if self.vanishing_order:
            out.append({"slope": "inf", "mult": self.vanishing_order})
        return out


def _lower_hull(points):
    # points: [(i, v)] ascending in i, distinct i
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _below_hull(hull, x, y) -> bool:
    # whether (x, y) lies strictly below the hull, x in its support
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1)
    raise KernelError(f"x = {x} outside hull support")


def _hull(P: Polynomial):
    """(segments, vanishing order) of the polygon on lattice indices:
    each segment is (rise, run) with root valuation index rise / run,
    deepest segment last."""
    full = P.config.full
    vanish = 0
    while P.coeffs[vanish].is_zero():
        vanish += 1
    for i in range(vanish):
        if P.coeffs[i]._k < full:
            raise IndeterminateError(
                f"coefficient {i} is zero only at precision "
                f"{P.coeffs[i].precexp}; the vanishing order at X = 0 "
                f"is not determined")
    points = []
    zeros = []
    for i in range(vanish, len(P.coeffs)):
        c = P.coeffs[i]
        if c.is_zero():
            zeros.append((i, c._k))
        else:
            points.append((i, c._low()))
    hull = _lower_hull(points)
    for i, bound in zeros:
        if _below_hull(hull, i, bound):
            raise IndeterminateError(
                f"coefficient {i} is zero at precision "
                f"{P.coeffs[i].precexp}, below the hull; its valuation can "
                f"still change the polygon")
    segments = [(y1 - y2, x2 - x1)
                for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    segments.reverse()
    return segments, vanish


def newton_polygon(P: Polynomial) -> NewtonPolygon:
    """The lower hull of (degree, coefficient valuation), as root data.

    Args:
        P: polynomial whose coefficient valuations are determinate.

    Returns:
        NewtonPolygon with segments (root valuation, multiplicity)
        ascending, plus the order of vanishing at X = 0.

    Raises:
        IndeterminateError: some coefficient is zero at a precision low
            enough that its true valuation could alter the hull, or a
            leading run of coefficients vanishes only at partial
            precision.
    """
    segments, vanish = _hull(P)
    scale = P.config.scale
    return NewtonPolygon([(Fraction(rise, run * scale), run)
                          for rise, run in segments], vanish)


# =====================================================================
# Hensel lifting
# =====================================================================

def hensel_root(P: Polynomial, x0):
    """Refine a simple approximate root by Newton iteration.

    Args:
        P: polynomial over either ring.
        x0: element with v(P(x0)) > 2 v(P'(x0)) at current precision.

    Returns:
        A root x agreeing with x0 modulo the uniformizer power
        v(P(x0)) - v(P'(x0)), refined until the residual vanishes at
        working precision.

    Raises:
        RootError: the precondition fails, or the iteration stops
            improving before the residual is zero at precision.
    """
    if type(x0) is not _kind_class(P.kind):
        raise ConfigError(f"seed kind does not match the {P.kind} polynomial")
    residual = P(x0)
    if residual.is_zero():
        return x0
    deriv = P.derivative_at(x0)
    if deriv.is_zero():
        raise RootError(
            "derivative vanishes at the seed; the root is not simple "
            "at current precision")
    if residual._low() <= 2 * deriv._low():
        raise RootError(
            f"Hensel precondition fails: v(P(x0)) = {residual.valuation()} "
            f"is not greater than 2 v(P'(x0)) = "
            f"{Fraction(2 * deriv._low(), P.config.scale)}")
    x = x0
    for _ in range(P.config.prec + 2):
        step = divide_exact(residual, P.derivative_at(x))
        x = x - step
        low = residual._low()
        residual = P(x)
        if residual.is_zero():
            return x
        if residual._low() <= low:
            raise RootError(f"Newton iteration stalled at residual "
                            f"valuation {residual.valuation()}")
    raise RootError(
        f"no convergence within {P.config.prec + 2} Newton steps "
        f"(residual valuation {residual.valuation()})")


# =====================================================================
# Characteristic-p digit search
# =====================================================================


def _segment_digit_candidates(P: Polynomial, exp: int):
    # Digits c for which the terms on the deepest segment cancel:
    # roots over F_p of sum lead(a_j) c^j over the j attaining
    # min(v(a_j) + j*exp), exp a lattice index.
    p = P.config.p
    lows = {j: c._low() for j, c in enumerate(P.coeffs) if not c.is_zero()}
    best = min(low + j * exp for j, low in lows.items())
    contributions = {j: P.coeffs[j]._digits[low]
                     for j, low in lows.items() if low + j * exp == best}
    out = []
    for cand in range(1, p):
        total = sum(d * pow(cand, j, p) for j, d in contributions.items())
        if total % p == 0:
            out.append(cand)
    return out


def charp_root(P: Polynomial, budget: int = 4000):
    """Search for a root of a characteristic-p polynomial, digitwise.

    Walks the Newton polygon deepest slope first: each slope gives the
    exponent of the next digit and the segment's residue equation gives
    the digit candidates; the polynomial is re-centered and the search
    continues until the constant term vanishes at precision.  Branches
    whose exponent leaves the dencap lattice are abandoned, with
    backtracking across both digit candidates and segments, so a root
    of maximal valuation is preferred but shallower roots are still
    found when the deep branches die off-lattice.

    Args:
        P: polynomial over the tilt with a determinate leading
            coefficient; degree >= 1.
        budget: maximum number of re-centerings across all branches.

    Returns:
        A root at the coefficients' common precision, or None when the
        exhaustive lattice search finds no root (for example when the
        needed exponent has a denominator that is not a p-power).

    Raises:
        RootError: the budget is exhausted before the search space is.
        IndeterminateError: a stage polygon is not determined.
    """
    if P.kind != "tilt":
        raise ConfigError("charp_root expects a polynomial over the tilt")
    if P.degree < 1:
        raise KernelError("cannot search a constant polynomial for roots")
    config = P.config
    target = min(c._k for c in P.coeffs)
    if P.coeffs[0].is_zero():
        return TiltElement.zero(config, P.coeffs[0].precexp)
    nodes = [budget]

    def search(Pc, floor_exp):
        c0 = Pc.coeffs[0]
        if c0.is_zero() or c0._low() >= target:
            return []
        # Deepest segment first; on failure fall back to the shallower
        # ones.  Slopes at or below the previous digit's exponent cannot
        # extend a digit expansion and are skipped, and so are slopes off
        # the lattice: those branches are dead.
        for rise, run in reversed(_hull(Pc)[0]):
            exp, off = divmod(rise, run)
            if off or exp <= floor_exp:
                continue
            for cand in _segment_digit_candidates(Pc, exp):
                if nodes[0] <= 0:
                    raise RootError(
                        f"digit search budget ({budget} re-centerings) "
                        f"exhausted; a root may exist beyond it")
                nodes[0] -= 1
                digit = TiltElement._make(config, {exp: cand}, config.full)
                rest = search(Pc.shifted(digit), exp)
                if rest is not None:
                    return [(exp, cand)] + rest
        return None

    found = search(P, -1)
    if found is None:
        return None
    return TiltElement._make(config, dict(found), target)


# =====================================================================
# Tilt-to-untilt polynomial transfer
# =====================================================================

def fw_transfer(P: Polynomial, n: int) -> Polynomial:
    """Move a tilt polynomial across the correspondence at stage n.

    Each coefficient a_i becomes the multiplicative lift of its n-fold
    p-th root, taken verbatim (no compensating power), giving the
    stage-n member of the tower whose splitting data stabilizes.

    Args:
        P: polynomial over the tilt.
        n: nonnegative root depth.

    Returns:
        The polynomial over the untilt side with coefficients
        sharp(a_i^(1/p^n)) at full working precision.

    Raises:
        DencapError: a coefficient's root leaves the lattice.
    """
    if P.kind != "tilt":
        raise ConfigError("fw_transfer expects a polynomial over the tilt")
    if not isinstance(n, int) or n < 0:
        raise KernelError(f"root depth must be a nonnegative integer, not "
                          f"{n!r}")
    from .tiltkit import sharp
    full = P.config.prec
    out = []
    for c in P.coeffs:
        if c.is_zero():
            out.append(UntiltElement.zero(P.config, full))
        else:
            out.append(sharp(c.root(n), full))
    return Polynomial(out)


# The precision of transfer_agreement's stage 0; stage n takes n more.
_AGREEMENT_BASE = 2


def transfer_agreement(P: Polynomial, n: int):
    """Agreement valuation between consecutive re-raised transfers.

    The verbatim stage coefficients sharp(a^(1/p^n)) form a root tower
    whose members drift apart, so stabilization is measured on the
    compensated sequence sharp(a^(1/p^n))^(p^n), which walks the
    partial-power approximations of sharp(a) and is Cauchy.  Stage n
    is computed at precision _AGREEMENT_BASE + n so the deepening
    agreement stays visible through the precision tracking.

    Args:
        P: polynomial over the tilt.
        n: stage index; stages n and n + 1 are compared.

    Returns:
        Fraction: the valuation up to which all coefficient pairs
        agree (the difference's certified precision when it has no
        visible digits).
    """
    if P.kind != "tilt":
        raise ConfigError("transfer_agreement expects a tilt polynomial")
    from .tiltkit import sharp, untilt_power_pn
    config = P.config
    levels = []
    for c in P.coeffs:
        pair = []
        for stage in (n, n + 1):
            prec = min(_AGREEMENT_BASE + stage, config.prec)
            if c.is_zero():
                lifted = UntiltElement.zero(config, prec)
            else:
                lifted = sharp(c.root(stage), prec)
            pair.append(untilt_power_pn(lifted, stage))
        # the first digit, or the certified precision when none is visible
        levels.append((pair[1] - pair[0])._low())
    return Fraction(min(levels), config.scale)


# =====================================================================
# Mixed-characteristic root refinement
# =====================================================================

def mixed_root_refine(P: Polynomial, *, max_stages: int | None = None):
    """Assemble a root of an untilt polynomial from digit solves.

    Loop: reduce the working polynomial modulo the uniformizer, find a
    root y in characteristic p (``charp_root``), translate by the lift
    of y, then recenter on the deepest Newton slope s: substitute
    X -> uniformizer^s X and divide out the common uniformizer power.
    The root accumulates as lift(y_0) + c_0 (lift(y_1) + c_1 (...)).

    Args:
        P: monic polynomial over the untilt ring, integral coeffs.
        max_stages: outer iteration cap, default the working precision.

    Returns:
        An element x with v(P(x)) at or above working precision.

    Raises:
        RootError: a stage has no characteristic-p root, a rescale
            exponent leaves the lattice, or the loop runs out of
            stages or of usable precision.
    """
    if P.kind != "untilt":
        raise ConfigError("mixed_root_refine expects an untilt polynomial")
    if P.degree < 1:
        raise KernelError("cannot refine a root of a constant polynomial")
    lead = P.coeffs[-1]
    if lead != UntiltElement.one(P.config)._at(lead._k):
        raise KernelError("mixed_root_refine expects a monic polynomial")
    config = P.config
    full = config.prec
    if max_stages is None:
        max_stages = full

    x_acc = UntiltElement.zero(config, full)
    # the accumulated rescale exponent, as a lattice index; digits of a
    # nonzero residual sit below full precision, so only a residual of
    # zero ends the loop
    scale_exp = 0
    R = P
    for _ in range(max_stages):
        if P(x_acc).is_zero():
            return x_acc

        reduced = [reduce_mod_uniformizer(c) for c in R.coeffs]
        while len(reduced) > 1 and reduced[-1].is_zero():
            reduced.pop()
        if len(reduced) == 1:
            raise RootError(
                "stage reduction is a nonzero constant; no digit exists "
                f"(stage polynomial {R!r})")
        Q = Polynomial(reduced)
        y = charp_root(Q)
        if y is None:
            raise RootError(
                f"characteristic-p stage has no root in the lattice "
                f"(stage polynomial {Q!r})")

        if not y.is_zero():
            from .tiltkit import sharp
            y_sharp = sharp(y.with_precision(full), full)
            x_acc = x_acc + y_sharp._shift(scale_exp)
            R = R.shifted(y_sharp)
            if P(x_acc).is_zero():
                return x_acc

        r0 = R.coeffs[0]
        if r0.is_zero():
            # all information below r0's precision is spent; the direct
            # residual check above is the only remaining authority
            raise RootError(
                f"stage residual is zero only at precision {r0.precexp}; "
                f"cannot isolate the next digit")
        try:
            segments = _hull(R)[0]
        except IndeterminateError as exc:
            raise RootError(f"stage polygon indeterminate: {exc}") from exc
        if not segments:
            raise RootError(f"stage polynomial {R!r} has no finite slopes")
        rise, run = segments[-1]
        slope = Fraction(rise, run * config.scale)    # for the messages
        if rise <= 0:
            raise RootError(
                f"deepest stage slope {slope} is not positive; no further "
                f"digits below the uniformizer")
        s, off = divmod(rise, run)
        if off:
            raise RootError(
                f"rescale exponent {slope} leaves the dencap lattice")
        mu = min(c._low() + j * s
                 for j, c in enumerate(R.coeffs) if not c.is_zero())
        R = Polynomial.trimmed(
            c._shift(j * s - mu) for j, c in enumerate(R.coeffs))
        scale_exp += s

    raise RootError(f"no convergence within {max_stages} refinement stages")
