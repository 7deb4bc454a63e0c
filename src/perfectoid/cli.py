"""Command-line surface over the kernel.

Structured arguments accept a file path, inline JSON, or ``-`` for
stdin.  A bare name that is not a local file is also tried against the
bundled fixture directory, which the PERFECTOID_FIXTURES environment
variable overrides.  Output is one canonical compact JSON document per
run with a trailing newline; ``--format text`` switches to the text
rendering where an element has one.  Exit codes: 0 on success, 1 on a
domain error (reported as a single JSON object on stderr), 2 on usage
errors.

The parser is the standard library's argparse, with abbreviated options
refused.  A process builds the parser of the one command its leading
words name, and the whole command tree only when they name none (no
arguments, ``--help``, an unknown or incomplete command).  Only
``arith`` is imported with this module; each command imports the kernel
modules it uses when it runs, so a process loads those alone: ``toric``
for the toric commands other than ``transfer``, ``polyroots`` for
``newton``, and ``polyroots`` with ``adicdisc`` for ``disc``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .arith import (
    ConfigError,
    KernelError,
    TiltElement,
    UntiltElement,
    dumps,
    element_from_json,
    reduce_mod_uniformizer,
)

__all__ = ["main", "UsageError", "fixture_dir"]


class UsageError(Exception):
    """A command line the parser accepts but its command cannot use: a
    missing or malformed input, or a malformed rational.  Exit code 2."""


def fixture_dir():
    """The bundled fixture directory beside this module, or the
    PERFECTOID_FIXTURES override."""
    from pathlib import Path
    override = os.environ.get("PERFECTOID_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).with_name("fixtures")


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
        raise UsageError(f"no such input: {arg}")


def _parse(arg: str):
    text = _read_source(arg)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, the int-from-str digit limit, or deep nesting
        raise UsageError(f"malformed JSON in {arg!r}: {exc}")


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
        raise UsageError(f"{flag} wants a rational like 2 or 1/3, "
                         f"got {text!r}")


def _emit(doc, fmt="json", text=None):
    # text: a callable giving the text form, called only for --format text
    if fmt == "text" and text is not None:
        print(text())
    else:
        print(dumps(doc))


# =====================================================================
# The command tree
# =====================================================================

# (words naming the command, its function, its add_argument calls), in
# the order the commands are defined below
_COMMANDS: list = []

_GROUPS = {"witt": "Witt-vector arithmetic over the tilt.",
           "disc": "Points of the adic unit disc and evaluation on them.",
           "toric": "Fans, divisor sections, and the graded transfer."}


def _arg(*names, **kwargs):
    return names, kwargs


def _command(words: str, *arguments):
    """Registers the decorated function as the command ``words``; the
    parsed arguments are its keyword arguments."""
    def register(fn):
        _COMMANDS.append((words.split(), fn, arguments))
        return fn
    return register


_CONFIG = (
    _arg("--p", type=int,
         help="Assert the input's residue characteristic."),
    _arg("--prec", type=int,
         help="Working or target precision, per command."),
    _arg("--dencap", type=int, help="Assert the input's denominator cap."),
)
_FORMAT = _arg("--format", dest="fmt", choices=["json", "text"],
               default="json", help="Output rendering.")
_DEPTH = _arg("--c", dest="depth", required=True,
              help="Depth of the approximation, a nonnegative rational.")
_EPS = _arg("--eps", required=True, help="Loss budget, a rational in (0, 1).")


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated options (``--pre 4`` is not ``--prec 4``), and
    takes an option value that starts with ``-`` and a digit, such as
    ``--scale -1/3``, as that value rather than as an unknown option,
    as Python 3.13's argparse does."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _parser(argv: list) -> _Parser:
    """The parser of the command that argv's leading words name, or of
    the whole tree when they name none.  A command's help and usage do
    not depend on its siblings, so both parsers give the same bytes."""
    commands = [c for c in _COMMANDS if argv[:len(c[0])] == c[0]] \
        or _COMMANDS
    parser = _Parser(prog="perfectoid", description=(
        "Exact finite-precision computations across the tilting "
        "correspondence."))
    levels = {(): parser.add_subparsers(metavar="COMMAND", required=True)}
    for words, fn, arguments in commands:
        *group, name = words
        group = tuple(group)
        if group not in levels:
            doc = _GROUPS[group[0]]
            levels[group] = levels[()].add_parser(
                group[0], help=doc, description=doc).add_subparsers(
                    metavar="COMMAND", required=True)
        sub = levels[group].add_parser(name, help=fn.__doc__,
                                       description=fn.__doc__)
        for names, kwargs in arguments:
            sub.add_argument(*names, **kwargs)
        sub.set_defaults(command=(fn, sub))
    return parser


def main(argv=None) -> None:
    """Runs one command line, ``sys.argv[1:]`` by default."""
    argv = sys.argv[1:] if argv is None else list(argv)
    namespace, extra = _parser(argv).parse_known_args(argv)
    args = vars(namespace)
    fn, parser = args.pop("command")
    if extra:
        # reported with the command's usage rather than the top level's
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        fn(**args)
    except UsageError as exc:
        parser.error(str(exc))
    except KernelError as exc:
        print(dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        raise SystemExit(1)


# =====================================================================
# Element maps
# =====================================================================

@_command("sharp", _arg("element"), *_CONFIG, _FORMAT)
def sharp_cmd(element, p, prec, dencap, fmt):
    """Multiplicative lift of a tilt element, modulo p^PREC."""
    from .tiltkit import sharp
    x = element_from_json(_parse(element))
    if not isinstance(x, TiltElement):
        raise ConfigError("sharp expects a tilt element")
    _check_config(x.config, p, dencap)
    target = prec if prec is not None else x.config.prec
    result = sharp(x, target)
    _emit(result.to_json(), fmt, result.to_text)


@_command("tilt-reduce", _arg("element"), *_CONFIG, _FORMAT)
def tilt_reduce_cmd(element, p, prec, dencap, fmt):
    """Reduction of an untilt element to the shared quotient ring."""
    x = element_from_json(_parse(element))
    if not isinstance(x, UntiltElement):
        raise ConfigError("tilt-reduce expects an untilt element")
    _check_config(x.config, p, dencap, prec)
    result = reduce_mod_uniformizer(x)
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Witt vectors
# =====================================================================

@_command("witt add", _arg("left"), _arg("right"), _FORMAT)
def witt_add_cmd(left, right, fmt):
    """Sum of two Witt vectors."""
    from .tiltkit import WittVector, witt_add
    result = witt_add(WittVector.from_json(_parse(left)),
                      WittVector.from_json(_parse(right)))
    _emit(result.to_json(), fmt)


@_command("witt mul", _arg("left"), _arg("right"), _FORMAT)
def witt_mul_cmd(left, right, fmt):
    """Product of two Witt vectors."""
    from .tiltkit import WittVector, witt_mul
    result = witt_mul(WittVector.from_json(_parse(left)),
                      WittVector.from_json(_parse(right)))
    _emit(result.to_json(), fmt)


@_command("witt lift", _arg("element"),
          _arg("--length", type=int, default=3,
               help="Number of Witt components (default: %(default)s)."),
          _FORMAT)
def witt_lift_cmd(element, length, fmt):
    """Teichmuller lift of a tilt element."""
    from .tiltkit import WittVector
    x = element_from_json(_parse(element))
    if not isinstance(x, TiltElement):
        raise ConfigError("the Teichmuller lift starts from a tilt element")
    _emit(WittVector.teichmuller(x, length).to_json(), fmt)


@_command("theta", _arg("witt"), _FORMAT)
def theta_cmd(witt, fmt):
    """Untilting homomorphism on a Witt vector, modulo p^length."""
    from .tiltkit import WittVector, theta
    result = theta(WittVector.from_json(_parse(witt)))
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Polynomials
# =====================================================================

@_command("newton", _arg("poly"), _FORMAT)
def newton_cmd(poly, fmt):
    """Newton polygon of a polynomial, as slope/multiplicity pairs."""
    from .polyroots import Polynomial, newton_polygon
    polygon = newton_polygon(Polynomial.from_json(_parse(poly)))
    rows = polygon.to_json()
    _emit(rows, fmt, lambda: "\n".join(f"{row['slope']} x{row['mult']}"
                                       for row in rows))


@_command("transfer", _arg("poly"),
          _arg("--n", type=int, default=0,
               help="Frobenius-twist stage of the coefficient transfer "
                    "(default: %(default)s)."),
          _FORMAT)
def transfer_cmd(poly, n, fmt):
    """Coefficientwise transfer of a tilt polynomial to the untilt."""
    from .polyroots import Polynomial, fw_transfer
    P = Polynomial.from_json(_parse(poly))
    _emit(fw_transfer(P, n).to_json(), fmt)


@_command("root", _arg("poly"),
          _arg("--start", type=int,
               help="Hensel-lift from this integer residue instead of "
                    "running the digitwise refinement."),
          _FORMAT)
def root_cmd(poly, start, fmt):
    """A root of a monic integral polynomial over the untilt."""
    from .polyroots import Polynomial, hensel_root, mixed_root_refine
    P = Polynomial.from_json(_parse(poly))
    if start is not None:
        result = hensel_root(
            P, UntiltElement.from_int(P.config, start))
    else:
        result = mixed_root_refine(P)
    _emit(result.to_json(), fmt, result.to_text)


# =====================================================================
# Homogeneous approximation
# =====================================================================

@_command("decompose", _arg("element"),
          _arg("--c", dest="depth", type=int, required=True,
               help="Uniformizer depth of the decomposition."),
          _FORMAT)
def decompose_cmd(element, depth, fmt):
    """Digit slices of an untilt element along uniformizer powers."""
    from .tatealg import HomogeneousElement, decompose
    f = HomogeneousElement.from_json(_parse(element))
    _emit([g.to_json() for g in decompose(f, depth)], fmt)


@_command("approx", _arg("element"), _DEPTH, _EPS, _FORMAT)
def approx_cmd(element, depth, eps, fmt):
    """Tilt-side approximant of an untilt homogeneous element."""
    from .tatealg import HomogeneousElement, approximate
    f = HomogeneousElement.from_json(_parse(element))
    g = approximate(f, _fraction(depth, "--c"), _fraction(eps, "--eps"))
    _emit(g.to_json(), fmt)


@_command("verify", _arg("element"), _arg("candidate"), _DEPTH, _EPS,
          _arg("--points",
               help="JSON array of evaluation points; default is the "
                    "Gauss point alone."),
          _FORMAT)
def verify_cmd(element, candidate, depth, eps, points, fmt):
    """Pointwise check that a tilt candidate approximates an element."""
    from .tatealg import (GaussPoint, HomogeneousElement, point_from_json,
                          verify_contract)
    f = HomogeneousElement.from_json(_parse(element))
    g = HomogeneousElement.from_json(_parse(candidate))
    if points is None:
        sample = [GaussPoint()]
    else:
        entries = _parse(points)
        if not isinstance(entries, list):
            raise UsageError(f"--points wants a JSON array, got {points!r}")
        if not entries:
            raise UsageError(f"--points wants at least one point, got "
                             f"{points!r}")
        if not all(isinstance(entry, dict) for entry in entries):
            raise UsageError(f"--points wants each point as a JSON "
                             f"object, got {points!r}")
        sample = [point_from_json(entry) for entry in entries]
    report = verify_contract(f, g, _fraction(depth, "--c"),
                             _fraction(eps, "--eps"), sample)
    _emit(report.to_json(), fmt)


# =====================================================================
# The adic disc
# =====================================================================

@_command("disc eval", _arg("poly"),
          _arg("--point", required=True,
               help="Point JSON; a bare {\"type\":\"gauss\"} borrows the "
                    "polynomial's configuration."),
          _FORMAT)
def disc_eval_cmd(poly, point, fmt):
    """Valuation of a polynomial at a point of the disc."""
    from .adicdisc import _frac_json, adic_point_from_json, eval_at
    from .polyroots import Polynomial
    P = Polynomial.from_json(_parse(poly))
    x = adic_point_from_json(_parse(point), config=P.config)
    value = eval_at(P, x)
    if isinstance(value, Fraction):
        doc = {"exponent": _frac_json(value)}
    else:
        doc = value.to_json()
    _emit(doc, fmt)


@_command("disc member", _arg("subset"), _arg("point"), _FORMAT)
def disc_member_cmd(subset, point, fmt):
    """Whether a point lies in a rational subset."""
    from .adicdisc import (RationalSubset, adic_point_from_json,
                           in_rational_subset)
    U = RationalSubset.from_json(_parse(subset))
    x = adic_point_from_json(_parse(point), config=U.config)
    _emit({"member": in_rational_subset(x, U)}, fmt)


@_command("disc specializes", _arg("source"), _arg("target"), _FORMAT)
def disc_specializes_cmd(source, target, fmt):
    """Whether the first point specializes to the second."""
    from .adicdisc import adic_point_from_json, specializes
    x = adic_point_from_json(_parse(source))
    y = adic_point_from_json(_parse(target))
    _emit({"specializes": specializes(x, y)}, fmt)


# =====================================================================
# Toric geometry
# =====================================================================

@_command("toric sections", _arg("fan"), _arg("divisor"),
          _arg("--scale", help="Rational multiple applied to the divisor."),
          _arg("--dencap", type=int, default=0,
               help="Denominator cap for fractional lattice points "
                    "(default: %(default)s)."),
          _arg("--p", type=int,
               help="Residue characteristic backing fractional caps."),
          _FORMAT)
def toric_sections_cmd(fan, divisor, scale, dencap, p, fmt):
    """Lattice points of the divisor's section polytope."""
    from .toric import Fan, TWeilDivisor, sections
    F = Fan.from_json(_parse(fan))
    D = TWeilDivisor.from_json(F, _parse(divisor))
    if scale is not None:
        D = D.scaled(_fraction(scale, "--scale"))
    points = sections(F, D, dencap=dencap, p=p)
    doc = [[str(coord) for coord in point] for point in points]
    _emit(doc, fmt, lambda: "\n".join(" ".join(row) for row in doc))


@_command("toric smooth", _arg("fan"), _FORMAT)
def toric_smooth_cmd(fan, fmt):
    """Whether every cone of the fan is unimodular."""
    from .toric import Fan, is_smooth
    _emit({"smooth": is_smooth(Fan.from_json(_parse(fan)))}, fmt)


@_command("toric complete", _arg("fan"), _FORMAT)
def toric_complete_cmd(fan, fmt):
    """Whether the fan's support is the whole lattice."""
    from .toric import Fan, is_complete
    _emit({"complete": is_complete(Fan.from_json(_parse(fan)))}, fmt)


@_command("toric validate", _arg("fan"), _FORMAT)
def toric_validate_cmd(fan, fmt):
    """Parse a fan and report its shape; invalid fans are rejected."""
    from .toric import Fan
    F = Fan.from_json(_parse(fan))
    _emit({"rank": F.rank, "cones": len(F.cones),
           "maximal": len(F.maximal_cones), "rays": len(F.rays)}, fmt)


@_command("toric transfer", _arg("element"), _DEPTH, _EPS,
          _arg("--fan", dest="fan_arg",
               help="Ambient fan; default is the projective fan with "
                    "one ray per variable."),
          _FORMAT)
def toric_transfer_cmd(element, depth, eps, fan_arg, fmt):
    """Tilt-side model of a hypersurface, with its contract report."""
    from .tatealg import HomogeneousElement
    from .toric import Fan, hypersurface_transfer, projective_fan
    f = HomogeneousElement.from_json(_parse(element))
    F = (Fan.from_json(_parse(fan_arg)) if fan_arg is not None
         else projective_fan(f.nvars - 1))
    result = hypersurface_transfer(F, f, _fraction(depth, "--c"),
                                   _fraction(eps, "--eps"))
    _emit(result.to_json(), fmt)


# =====================================================================
# The acceptance battery
# =====================================================================

@_command("suite",
          _arg("--seed", type=int,
               help="Seed for every randomized check (default: "
                    "suite.DEFAULT_SEED)."),
          _arg("--only", help="Comma-separated subset of checks to run."),
          _FORMAT)
def suite_cmd(seed, only, fmt):
    """Run the acceptance battery; exit 1 when any check fails."""
    from .suite import DEFAULT_SEED, check_names, run_all
    names = None
    if only is not None:
        names = [part.strip() for part in only.split(",") if part.strip()]
        if not names:
            raise UsageError(f"--only names no check: {only!r}")
        known = set(check_names())
        for i, name in enumerate(names):
            if name not in known:
                raise UsageError(
                    f"unknown check {name!r}; expected a subset of "
                    f"{', '.join(check_names())}")
            if name in names[:i]:
                raise UsageError(f"--only names {name!r} twice: {only!r}")
    results = run_all(DEFAULT_SEED if seed is None else seed, names)
    # timings stay out of the output so identical runs stay identical
    if fmt == "json":
        print(dumps([{"name": r.name, "passed": r.passed,
                      "detail": r.detail} for r in results]))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name.ljust(width)}  {status}  {r.detail}")
    if not all(r.passed for r in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
