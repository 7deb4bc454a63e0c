"""Golden bytes of the tilting maps.

Every case in ``data/tilt_golden.json`` is one call of ``sharp``,
``theta``, ``untilt_power_pn``, ``witt_add`` or ``witt_mul`` on seeded
inputs, stored as the ``dumps()`` text of its inputs and of its result,
or as the class and message of the typed error it raised.  The sharp
inputs have 1 to 5 digits, so their layer powers start almost empty and
cross to the dense product at different rounds; the test replays each
case and compares the bytes.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_tilt_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfectoid.arith import (
    FieldConfig,
    KernelError,
    TiltElement,
    UntiltElement,
    element_from_json,
)
from perfectoid.tiltkit import (
    WittVector,
    sharp,
    theta,
    untilt_power_pn,
    witt_add,
    witt_mul,
)

GOLDEN = Path(__file__).with_name("data") / "tilt_golden.json"


def _witt(texts):
    components = [element_from_json(c) for c in texts]
    return WittVector(components[0].config, components)


def _call(case):
    """The result of one case as dumps() text (a list of them for Witt
    vectors)."""
    op, args = case["op"], case["args"]
    if op == "sharp":
        return sharp(element_from_json(args[0]), args[1]).dumps()
    if op == "untilt_power_pn":
        return untilt_power_pn(element_from_json(args[0]), args[1]).dumps()
    if op == "theta":
        return theta(_witt(args[0])).dumps()
    product = witt_add if op == "witt_add" else witt_mul
    return [c.dumps() for c in product(_witt(args[0]),
                                       _witt(args[1])).components]


def replay(case):
    """{"out": ...} or {"error": class name, "message": ...}."""
    try:
        return {"out": _call(case)}
    except KernelError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_tilt_bytes_match_golden(case):
    want = {key: case[key] for key in ("out", "error", "message")
            if key in case}
    assert replay(case) == want


# ---------------------------------------------------------------------
# The case list, used only to regenerate the data file
# ---------------------------------------------------------------------

# sharp's configurations, and the deepest layer 1/p^depth that the
# rooted inputs reach, so that one call stays within milliseconds.
SHARP_CONFIGS = ((3, 9, 8), (3, 8, 10), (2, 12, 8), (2, 32, 6))
LAYER_DEPTH = {2: 8, 3: 6}
WITT_CONFIGS = ((2, 8, 6), (3, 9, 6), (5, 6, 6))


def _digits(rng, config, count, denpow, limit=None):
    """count digits on the 1/p^denpow lattice below t^limit (prec)."""
    p = config.p
    scale = p ** denpow
    top = (config.prec if limit is None else limit) * scale
    out = {}
    while len(out) < min(count, top):
        out[Fraction(rng.randrange(top), scale)] = rng.randrange(1, p)
    return out


def _sharp_cases(rng):
    cases = []
    for p, prec, dencap in SHARP_CONFIGS:
        config = FieldConfig(p, prec, dencap)
        for k in range(1, min(prec, 7) + 1):
            room = max(min(dencap, LAYER_DEPTH[p]) - (k - 1), 0)
            for count in range(1, 6):
                denpow = (0, room // 2, room)[count % 3]
                x = TiltElement(config, _digits(rng, config, count, denpow))
                cases.append((f"sharp-{p}-{prec}-{dencap}-k{k}-{count}d",
                              "sharp", [x.dumps(), k]))
        # a unit with digits on the deepest lattice sharp can root
        for k in (2, 3):
            denpow = min(dencap, LAYER_DEPTH[p]) - (k - 1)
            x = TiltElement(config, {0: 1, **_digits(rng, config, 4,
                                                     denpow)})
            cases.append((f"sharp-{p}-{prec}-{dencap}-k{k}-unit",
                          "sharp", [x.dumps(), k]))
        # refusals: a root off the lattice, a coarse input, a bad target
        deep = TiltElement.monomial(config, 1, Fraction(1, p ** dencap))
        coarse = TiltElement(config, {0: 1}, Fraction(1))
        cases += [(f"sharp-{p}-{prec}-{dencap}-refuse-dencap", "sharp",
                   [deep.dumps(), 2]),
                  (f"sharp-{p}-{prec}-{dencap}-refuse-coarse", "sharp",
                   [coarse.dumps(), 2]),
                  (f"sharp-{p}-{prec}-{dencap}-refuse-target", "sharp",
                   [deep.dumps(), prec + 1])]
    # monomials on layers over the budget: a power of one term is taken
    # in closed form, with no layer
    for (p, prec, dencap), denpow, k in (((3, 8, 10), 4, 7),
                                         ((5, 4, 12), 9, 4)):
        config = FieldConfig(p, prec, dencap)
        x = TiltElement.monomial(config, 1, Fraction(1, p ** denpow))
        cases.append((f"sharp-{p}-{prec}-{dencap}-monomial-deep", "sharp",
                      [x.dumps(), k]))
    return cases


def _power_cases(rng):
    cases = []
    for p, prec, dencap in ((3, 8, 3), (2, 8, 4), (2, 32, 6), (5, 3, 2),
                            (3, 3, 2)):
        config = FieldConfig(p, prec, dencap)
        for n in range(5):
            for count in (1, 2, 3, 5):
                digits = _digits(rng, config, count, min(dencap, 2))
                known = Fraction(rng.randrange(1, prec * p ** 2 + 1),
                                 p ** 2)
                for unit in (False, True):
                    x = UntiltElement(config, digits, known)
                    if unit:
                        x = x + 1
                    cases.append((f"power-{p}-{prec}-{dencap}-n{n}-"
                                  f"{count}d{'-unit' * unit}",
                                  "untilt_power_pn", [x.dumps(), n]))
    deep = UntiltElement.monomial(FieldConfig(5, 4, 12), 1,
                                  Fraction(1, 5 ** 12))
    cases.append(("power-5-4-12-monomial-deep", "untilt_power_pn",
                  [deep.dumps(), 1]))
    return cases


def _witt_vector(rng, config, length, denpow):
    return [TiltElement(config, _digits(rng, config, rng.randrange(4),
                                        denpow)).dumps()
            for _ in range(length)]


def _witt_cases(rng):
    cases = []
    for p, prec, dencap in WITT_CONFIGS:
        config = FieldConfig(p, prec, dencap)
        for length in (1, 2, 3, 4):
            if p == 5 and length == 4:
                continue
            for j in range(4):
                denpow = j % 3
                a, b = (_witt_vector(rng, config, length, denpow)
                        for _ in range(2))
                for op in ("witt_add", "witt_mul"):
                    cases.append((f"{op}-{p}-{prec}-{dencap}-len{length}-"
                                  f"{j}", op, [a, b]))
                # theta roots component i by p^(length-1): keep it on
                # the lattice
                w = _witt_vector(rng, config, length,
                                 max(dencap - length + 1 - j % 2, 0))
                cases.append((f"theta-{p}-{prec}-{dencap}-len{length}-{j}",
                               "theta", [w]))
    config = FieldConfig(3, 9, 6)
    deep = TiltElement.monomial(config, 1, Fraction(1, 3 ** 6)).dumps()
    zero = TiltElement.zero(config).dumps()
    cases.append(("theta-3-9-6-refuse-dencap", "theta", [[deep, zero]]))
    cases.append(("witt_add-refuse-length", "witt_add",
                  [[deep, zero], [deep]]))
    # a dense component on the 1/5^6 lattice at length 8: the
    # Teichmüller expansion overruns the Witt work budget
    config = FieldConfig(5, 8, 6)
    wide = TiltElement(config, {Fraction(2 * j + 1, 5 ** 6): 1
                                for j in range(40)}).dumps()
    zero = TiltElement.zero(config).dumps()
    cases.append(("witt_mul-refuse-budget", "witt_mul",
                  [[wide] + [zero] * 7, [wide] + [zero] * 7]))
    return cases


def write_golden(path=GOLDEN):
    rng = random.Random(13)
    cases = []
    for name, op, args in (_sharp_cases(rng) + _power_cases(rng)
                           + _witt_cases(rng)):
        case = {"name": name, "op": op, "args": args}
        case.update(replay(case))
        cases.append(case)
    names = [case["name"] for case in cases]
    assert len(set(names)) == len(names)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
