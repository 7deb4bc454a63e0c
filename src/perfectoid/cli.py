"""Command-line surface over the kernel.

Structured arguments accept a file path, inline JSON, or ``-`` for
stdin.  A bare name that is not a local file is also tried against the
bundled fixture directory, which the PERFECTOID_FIXTURES environment
variable overrides.  Output is one canonical compact JSON document per
run with a trailing newline; ``--format text`` switches to the text
rendering where an element has one.  Exit codes: 0 on success, 1 on a
domain error (reported as a single JSON object on stderr), 2 on usage
errors.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from pathlib import Path

import click

from .adicdisc import (
    AdicPoint,
    RationalSubset,
    adic_point_from_json,
    eval_at,
    in_rational_subset,
    specializes,
)
from .arith import (
    ConfigError,
    KernelError,
    TiltElement,
    UntiltElement,
    element_from_json,
    reduce_mod_uniformizer,
)
from .polyroots import (
    Polynomial,
    fw_transfer,
    hensel_root,
    mixed_root_refine,
    newton_polygon,
)
from .suite import DEFAULT_SEED, check_names, run_all
from .tatealg import (
    GaussPoint,
    HomogeneousElement,
    approximate,
    decompose,
    point_from_json,
    verify_contract,
)
from .tiltkit import WittVector, sharp, theta, witt_add, witt_mul
from .toric import (
    Fan,
    TWeilDivisor,
    hypersurface_transfer,
    is_complete,
    is_smooth,
    projective_fan,
    sections,
)


def dumps(doc) -> str:
    """The canonical byte form: compact separators, keys in insertion
    order, no trailing whitespace."""
    return json.dumps(doc, separators=(",", ":"))


def fixture_dir():
    override = os.environ.get("PERFECTOID_FIXTURES")
    if override:
        return Path(override)
    return resources.files("perfectoid").joinpath("fixtures")


def _read_source(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    stripped = arg.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return arg
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as handle:
            return handle.read()
    bundled = fixture_dir().joinpath(arg)
    try:
        return bundled.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise click.UsageError(f"no such input: {arg}")


def _parse(arg: str):
    text = _read_source(arg)
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's int-from-str limit
        raise click.UsageError(f"malformed JSON in {arg!r}: {exc}")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except KernelError as exc:
            click.echo(dumps({"error": type(exc).__name__,
                              "message": str(exc)}), err=True)
            raise SystemExit(1)
    return wrapper


def _config_options(fn):
    fn = click.option("--dencap", type=int, default=None,
                      help="Assert the input's denominator cap.")(fn)
    fn = click.option("--prec", type=int, default=None,
                      help="Working or target precision, per command.")(fn)
    fn = click.option("--p", type=int, default=None,
                      help="Assert the input's residue characteristic.")(fn)
    return fn


def _format_option(fn):
    return click.option("--format", "fmt",
                        type=click.Choice(["json", "text"]),
                        default="json", help="Output rendering.")(fn)


def _check_config(config, p, dencap, prec=None):
    if p is not None and config.p != p:
        raise ConfigError(f"input has p={config.p}, flag says {p}")
    if dencap is not None and config.dencap != dencap:
        raise ConfigError(
            f"input has dencap={config.dencap}, flag says {dencap}")
    if prec is not None and config.prec != prec:
        raise ConfigError(f"input has prec={config.prec}, flag says {prec}")


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{flag} wants a rational like 2 or 1/3, "
                               f"got {text!r}")


def _element(arg: str):
    return element_from_json(_parse(arg))


def _polynomial(arg: str) -> Polynomial:
    return Polynomial.from_json(_parse(arg))


def _homogeneous(arg: str) -> HomogeneousElement:
    return HomogeneousElement.from_json(_parse(arg))


def _fan(arg: str) -> Fan:
    return Fan.from_json(_parse(arg))


def _emit(doc, fmt="json", text=None):
    # text: a callable giving the text form, called only for --format text
    if fmt == "text" and text is not None:
        click.echo(text())
    else:
        click.echo(dumps(doc))


@click.group()
def main():
    """Exact finite-precision computations across the tilting
    correspondence."""


# =====================================================================
# Element maps
# =====================================================================

@main.command("sharp")
@click.argument("element")
@_config_options
@_format_option
@_guarded
def sharp_cmd(element, p, prec, dencap, fmt):
    """Multiplicative lift of a tilt element, modulo p^PREC."""
    x = _element(element)
    if not isinstance(x, TiltElement):
        raise ConfigError("sharp expects a tilt element")
    _check_config(x.config, p, dencap)
    target = prec if prec is not None else x.config.prec
    result = sharp(x, target)
    _emit(result.to_json(), fmt, result.to_text)


@main.command("tilt-reduce")
@click.argument("element")
@_config_options
@_format_option
@_guarded
def tilt_reduce_cmd(element, p, prec, dencap, fmt):
    """Reduction of an untilt element to the shared quotient ring."""
    x = _element(element)
    if not isinstance(x, UntiltElement):
        raise ConfigError("tilt-reduce expects an untilt element")
    _check_config(x.config, p, dencap, prec)
    result = reduce_mod_uniformizer(x)
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Witt vectors
# =====================================================================

@main.group("witt")
def witt_group():
    """Witt-vector arithmetic over the tilt."""


@witt_group.command("add")
@click.argument("left")
@click.argument("right")
@_format_option
@_guarded
def witt_add_cmd(left, right, fmt):
    result = witt_add(WittVector.from_json(_parse(left)),
                      WittVector.from_json(_parse(right)))
    _emit(result.to_json(), fmt)


@witt_group.command("mul")
@click.argument("left")
@click.argument("right")
@_format_option
@_guarded
def witt_mul_cmd(left, right, fmt):
    result = witt_mul(WittVector.from_json(_parse(left)),
                      WittVector.from_json(_parse(right)))
    _emit(result.to_json(), fmt)


@witt_group.command("lift")
@click.argument("element")
@click.option("--length", type=int, default=3, show_default=True,
              help="Number of Witt components.")
@_format_option
@_guarded
def witt_lift_cmd(element, length, fmt):
    """Teichmuller lift of a tilt element."""
    x = _element(element)
    if not isinstance(x, TiltElement):
        raise ConfigError("the Teichmuller lift starts from a tilt element")
    _emit(WittVector.teichmuller(x, length).to_json(), fmt)


@main.command("theta")
@click.argument("witt")
@_format_option
@_guarded
def theta_cmd(witt, fmt):
    """Untilting homomorphism on a Witt vector, modulo p^length."""
    result = theta(WittVector.from_json(_parse(witt)))
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Polynomials
# =====================================================================

@main.command("newton")
@click.argument("poly")
@_format_option
@_guarded
def newton_cmd(poly, fmt):
    """Newton polygon of a polynomial, as slope/multiplicity pairs."""
    polygon = newton_polygon(_polynomial(poly))
    rows = polygon.to_json()
    _emit(rows, fmt, lambda: "\n".join(f"{row['slope']} x{row['mult']}"
                                       for row in rows))


@main.command("transfer")
@click.argument("poly")
@click.option("--n", type=int, default=0, show_default=True,
              help="Frobenius-twist stage of the coefficient transfer.")
@_format_option
@_guarded
def transfer_cmd(poly, n, fmt):
    """Coefficientwise transfer of a tilt polynomial to the untilt."""
    P = _polynomial(poly)
    _emit(fw_transfer(P, n).to_json(), fmt)


@main.command("root")
@click.argument("poly")
@click.option("--start", type=int, default=None,
              help="Hensel-lift from this integer residue instead of "
                   "running the digitwise refinement.")
@_format_option
@_guarded
def root_cmd(poly, start, fmt):
    """A root of a monic integral polynomial over the untilt."""
    P = _polynomial(poly)
    if start is not None:
        result = hensel_root(
            P, UntiltElement.from_int(P.config, start))
    else:
        result = mixed_root_refine(P)
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Homogeneous approximation
# =====================================================================

@main.command("decompose")
@click.argument("element")
@click.option("--c", "depth", type=int, required=True,
              help="Uniformizer depth of the decomposition.")
@_format_option
@_guarded
def decompose_cmd(element, depth, fmt):
    """Digit slices of an untilt element along uniformizer powers."""
    f = _homogeneous(element)
    _emit([g.to_json() for g in decompose(f, depth)], fmt)


@main.command("approx")
@click.argument("element")
@click.option("--c", "depth", required=True,
              help="Depth of the approximation, a nonnegative rational.")
@click.option("--eps", required=True,
              help="Loss budget, a rational in (0, 1).")
@_format_option
@_guarded
def approx_cmd(element, depth, eps, fmt):
    """Tilt-side approximant of an untilt homogeneous element."""
    f = _homogeneous(element)
    g = approximate(f, _fraction(depth, "--c"), _fraction(eps, "--eps"))
    _emit(g.to_json(), fmt)


@main.command("verify")
@click.argument("element")
@click.argument("candidate")
@click.option("--c", "depth", required=True,
              help="Depth of the approximation, a nonnegative rational.")
@click.option("--eps", required=True,
              help="Loss budget, a rational in (0, 1).")
@click.option("--points", default=None,
              help="JSON array of evaluation points; default is the "
                   "Gauss point alone.")
@_format_option
@_guarded
def verify_cmd(element, candidate, depth, eps, points, fmt):
    """Pointwise check that a tilt candidate approximates an element."""
    f = _homogeneous(element)
    g = _homogeneous(candidate)
    if points is None:
        sample = [GaussPoint()]
    else:
        sample = [point_from_json(entry) for entry in _parse(points)]
    report = verify_contract(f, g, _fraction(depth, "--c"),
                             _fraction(eps, "--eps"), sample)
    _emit(report.to_json(), fmt)


# =====================================================================
# The adic disc
# =====================================================================

@main.group("disc")
def disc_group():
    """Points of the adic unit disc and evaluation on them."""


@disc_group.command("eval")
@click.argument("poly")
@click.option("--point", required=True,
              help="Point JSON; a bare {\"type\":\"gauss\"} borrows the "
                   "polynomial's configuration.")
@_format_option
@_guarded
def disc_eval_cmd(poly, point, fmt):
    """Valuation of a polynomial at a point of the disc."""
    P = _polynomial(poly)
    x = adic_point_from_json(_parse(point), config=P.config)
    value = eval_at(P, x)
    if isinstance(value, Fraction):
        doc = {"exponent": {"num": value.numerator,
                            "den": value.denominator}}
    else:
        doc = value.to_json()
    _emit(doc, fmt)


@disc_group.command("member")
@click.argument("subset")
@click.argument("point")
@_format_option
@_guarded
def disc_member_cmd(subset, point, fmt):
    """Whether a point lies in a rational subset."""
    U = RationalSubset.from_json(_parse(subset))
    x = adic_point_from_json(_parse(point), config=U.config)
    _emit({"member": in_rational_subset(x, U)}, fmt)


@disc_group.command("specializes")
@click.argument("source")
@click.argument("target")
@_format_option
@_guarded
def disc_specializes_cmd(source, target, fmt):
    """Whether the first point specializes to the second."""
    x = adic_point_from_json(_parse(source))
    y = adic_point_from_json(_parse(target))
    _emit({"specializes": specializes(x, y)}, fmt)


# =====================================================================
# Toric geometry
# =====================================================================

@main.group("toric")
def toric_group():
    """Fans, divisor sections, and the graded transfer."""


@toric_group.command("sections")
@click.argument("fan")
@click.argument("divisor")
@click.option("--scale", default=None,
              help="Rational multiple applied to the divisor.")
@click.option("--dencap", type=int, default=0, show_default=True,
              help="Denominator cap for fractional lattice points.")
@click.option("--p", type=int, default=None,
              help="Residue characteristic backing fractional caps.")
@_format_option
@_guarded
def toric_sections_cmd(fan, divisor, scale, dencap, p, fmt):
    """Lattice points of the divisor's section polytope."""
    F = _fan(fan)
    D = TWeilDivisor.from_json(F, _parse(divisor))
    if scale is not None:
        D = D.scaled(_fraction(scale, "--scale"))
    points = sections(F, D, dencap=dencap, p=p)
    doc = [[str(coord) for coord in point] for point in points]
    _emit(doc, fmt, lambda: "\n".join(" ".join(row) for row in doc))


@toric_group.command("smooth")
@click.argument("fan")
@_format_option
@_guarded
def toric_smooth_cmd(fan, fmt):
    """Whether every cone of the fan is unimodular."""
    _emit({"smooth": is_smooth(_fan(fan))}, fmt)


@toric_group.command("complete")
@click.argument("fan")
@_format_option
@_guarded
def toric_complete_cmd(fan, fmt):
    """Whether the fan's support is the whole lattice."""
    _emit({"complete": is_complete(_fan(fan))}, fmt)


@toric_group.command("validate")
@click.argument("fan")
@_format_option
@_guarded
def toric_validate_cmd(fan, fmt):
    """Parse a fan and report its shape; invalid fans are rejected."""
    F = _fan(fan)
    _emit({"rank": F.rank, "cones": len(F.cones),
           "maximal": len(F.maximal_cones), "rays": len(F.rays)}, fmt)


@toric_group.command("transfer")
@click.argument("element")
@click.option("--c", "depth", required=True,
              help="Depth of the approximation, a nonnegative rational.")
@click.option("--eps", required=True,
              help="Loss budget, a rational in (0, 1).")
@click.option("--fan", "fan_arg", default=None,
              help="Ambient fan; default is the projective fan with "
                   "one ray per variable.")
@_format_option
@_guarded
def toric_transfer_cmd(element, depth, eps, fan_arg, fmt):
    """Tilt-side model of a hypersurface, with its contract report."""
    f = _homogeneous(element)
    F = _fan(fan_arg) if fan_arg is not None else projective_fan(f.nvars - 1)
    result = hypersurface_transfer(F, f, _fraction(depth, "--c"),
                                   _fraction(eps, "--eps"))
    _emit(result.to_json(), fmt)


# =====================================================================
# The acceptance battery
# =====================================================================

@main.command("suite")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              help="Seed for every randomized check.")
@click.option("--only", default=None,
              help="Comma-separated subset of checks to run.")
@_format_option
def suite_cmd(seed, only, fmt):
    """Run the acceptance battery; exit 1 when any check fails."""
    names = None
    if only is not None:
        names = [part.strip() for part in only.split(",") if part.strip()]
        known = set(check_names())
        for name in names:
            if name not in known:
                raise click.UsageError(
                    f"unknown check {name!r}; expected a subset of "
                    f"{', '.join(check_names())}")
    results = run_all(seed, names)
    # timings stay out of the output so identical runs stay identical
    if fmt == "json":
        click.echo(dumps([{"name": r.name, "passed": r.passed,
                           "detail": r.detail} for r in results]))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            click.echo(f"{r.name.ljust(width)}  {status}  {r.detail}")
    if not all(r.passed for r in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
