"""Golden bytes of the command line.

Every case in ``data/cli_golden.json`` is an argv with the stdout,
stderr and exit code it produced when the file was written; the test
replays each one and compares the bytes.  The cases cover the README
commands, every subcommand on the bundled fixtures it accepts, the
battery at three seeds, and one typed refusal per error kind.  No case
names a filesystem path, so the bytes do not depend on the checkout.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"


def run(argv):
    """(stdout, stderr, exit code) of one in-process CLI run on the
    bundled fixtures."""
    result = run_cli(argv, env={"PERFECTOID_FIXTURES": None})
    return result.stdout, result.stderr, result.exit_code


def _cases():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_cli_bytes_match_golden(case):
    stdout, stderr, code = run(case["argv"])
    assert (stdout, stderr, code) == (case["stdout"], case["stderr"],
                                      case["exit"])


# ---------------------------------------------------------------------
# The case list, used only to regenerate the data file
# ---------------------------------------------------------------------

def _inline_inputs():
    """Inline JSON arguments built from the library: polynomials and
    points on the (3, 4, 3) configuration of the disc fixtures, and a
    polynomial over (3, 8, 4) with a simple root and the tilt element
    t^(1/3) there, whose root by 3^7 leaves the exponent lattice."""
    from perfectoid.arith import FieldConfig, TiltElement, UntiltElement
    from perfectoid.polyroots import Polynomial

    def dumps(doc):
        return json.dumps(doc, separators=(",", ":"))

    small = FieldConfig(3, 4, 3)
    one = UntiltElement.one(small)
    p = UntiltElement.uniformizer(small)
    zero = UntiltElement.zero(small)
    # T^2 - p^(1/3) T + p on the disc configuration
    t2 = Polynomial([p, -UntiltElement.monomial(small, 1, "1/3"), one])
    big = FieldConfig(3, 8, 4)
    # X^2 - X - p: Hensel from 0, simple root of valuation 1
    hensel = Polynomial([-UntiltElement.uniformizer(big),
                         -UntiltElement.one(big), UntiltElement.one(big)])
    disc = {"type": "disc", "center": zero.to_json(),
            "radius_exp": {"num": 1, "den": 3}}
    halo = {"type": "halo", "center": p.to_json(),
            "radius_exp": {"num": 1, "den": 2}, "sign": ">"}
    fractional = {"type": "disc", "center": zero.to_json(),
                  "radius_exp": {"num": 1.9, "den": 2}}
    classical = {"type": "classical",
                 "center": UntiltElement.monomial(small, 1, "2/3").to_json()}
    form = FieldConfig(3, 4, 5)
    coords = [UntiltElement.one(form), UntiltElement.uniformizer(form),
              UntiltElement.monomial(form, 2, "1/3")]
    points = [{"kind": "gauss"},
              {"kind": "classical", "coords": [x.to_json() for x in coords]}]
    cube_root = TiltElement.monomial(big, 1, "1/3")
    return {"t2": dumps(t2.to_json()), "hensel": dumps(hensel.to_json()),
            "cube-root": dumps(cube_root.to_json()),
            "disc": dumps(disc), "halo": dumps(halo),
            "fractional": dumps(fractional),
            "classical": dumps(classical), "points": dumps(points)}


def _argvs():
    inline = _inline_inputs()
    candidate = run(["approx", "linear-form.json", "--c", "1",
                     "--eps", "1/3"])[0].strip()
    cases = [
        # the README commands
        ("readme-sharp", ["sharp", "--prec", "4", "t.json"]),
        ("readme-newton", ["newton", "x2-p.json"]),
        ("readme-root", ["root", "x2-p.json"]),
        ("readme-approx",
         ["approx", "linear-form.json", "--c", "1", "--eps", "1/3"]),
        ("readme-disc-eval",
         ["disc", "eval", "x2-p.json", "--point", '{"type":"gauss"}']),
        ("readme-disc-member", ["disc", "member", "subset-t.json",
                                "gauss.json"]),
        ("readme-toric-sections", ["toric", "sections", "pn2.json",
                                   "hyperplane.json"]),
        ("readme-toric-validate", ["toric", "validate", "broken-pn2.json"]),
        ("readme-suite", ["suite"]),
        ("suite-seed-7", ["suite", "--seed", "7"]),
        ("suite-seed-42", ["suite", "--seed", "42"]),
        ("suite-text", ["suite", "--only", "newton-transfer,adic-disc",
                        "--format", "text"]),
        # element maps
        ("sharp-t", ["sharp", "t.json"]),
        ("sharp-t-text", ["sharp", "--prec", "4", "t.json",
                          "--format", "text"]),
        ("tilt-reduce-u", ["tilt-reduce", "u.json"]),
        ("tilt-reduce-u-text", ["tilt-reduce", "u.json", "--format",
                                "text"]),
        # Witt vectors
        ("witt-add", ["witt", "add", "witt-t.json", "witt-t.json"]),
        ("witt-mul", ["witt", "mul", "witt-t.json", "witt-t.json"]),
        ("witt-lift", ["witt", "lift", "t.json"]),
        ("witt-lift-2", ["witt", "lift", "t.json", "--length", "2"]),
        ("theta", ["theta", "witt-t.json"]),
        ("theta-text", ["theta", "witt-t.json", "--format", "text"]),
        # polynomials
        ("newton-x2-p-text", ["newton", "x2-p.json", "--format", "text"]),
        ("newton-x2-t", ["newton", "x2-t.json"]),
        ("newton-t2", ["newton", inline["t2"]]),
        ("transfer-x2-t", ["transfer", "x2-t.json"]),
        ("transfer-x2-t-n1", ["transfer", "x2-t.json", "--n", "1"]),
        ("root-hensel", ["root", inline["hensel"], "--start", "0"]),
        ("root-hensel-text", ["root", inline["hensel"], "--start", "0",
                              "--format", "text"]),
        ("root-refine", ["root", inline["hensel"]]),
        # homogeneous approximation
        ("decompose-1", ["decompose", "linear-form.json", "--c", "1"]),
        ("decompose-3", ["decompose", "linear-form.json", "--c", "3"]),
        ("approx-2", ["approx", "linear-form.json", "--c", "2",
                      "--eps", "1/9"]),
        ("approx-third", ["approx", "linear-form.json", "--c", "1/3",
                          "--eps", "2/3"]),
        ("verify", ["verify", "linear-form.json", candidate, "--c", "1",
                    "--eps", "1/3"]),
        ("verify-points", ["verify", "linear-form.json", candidate,
                           "--c", "1", "--eps", "1/3", "--points",
                           inline["points"]]),
        ("verify-coarse", ["verify", "linear-form.json", candidate,
                           "--c", "3", "--eps", "1/9", "--points",
                           inline["points"]]),
        ("toric-transfer", ["toric", "transfer", "linear-form.json",
                            "--c", "1", "--eps", "1/3"]),
        # the adic disc
        ("disc-eval-x2-p-gauss-file",
         ["disc", "eval", "x2-p.json", "--point",
          '{"type":"gauss","p":3,"prec":8,"dencap":4}']),
        ("disc-eval-t2-gauss", ["disc", "eval", inline["t2"], "--point",
                                "gauss.json"]),
        ("disc-eval-t2-halo", ["disc", "eval", inline["t2"], "--point",
                               "origin-halo.json"]),
        ("disc-eval-t2-disc", ["disc", "eval", inline["t2"], "--point",
                               inline["disc"]]),
        ("disc-eval-t2-outer-halo", ["disc", "eval", inline["t2"],
                                     "--point", inline["halo"]]),
        ("disc-eval-t2-classical", ["disc", "eval", inline["t2"],
                                    "--point", inline["classical"]]),
        ("disc-member-halo", ["disc", "member", "subset-t.json",
                              "origin-halo.json"]),
        ("disc-specializes", ["disc", "specializes", "gauss.json",
                              "origin-halo.json"]),
        ("disc-specializes-back", ["disc", "specializes",
                                   "origin-halo.json", "gauss.json"]),
        # toric geometry
        ("toric-sections-text", ["toric", "sections", "pn2.json",
                                 "hyperplane.json", "--format", "text"]),
        ("toric-sections-scale", ["toric", "sections", "pn2.json",
                                  "hyperplane.json", "--scale", "2"]),
        ("toric-sections-dencap", ["toric", "sections", "pn2.json",
                                   "hyperplane.json", "--dencap", "1",
                                   "--p", "3"]),
        ("toric-sections-third", ["toric", "sections", "pn2.json",
                                  "hyperplane.json", "--scale", "1/3",
                                  "--p", "3", "--dencap", "2"]),
    ]
    for fan in ("pn1", "pn2", "p1xp1", "broken-pn1", "broken-pn2",
                "broken-p1xp1"):
        for command in ("smooth", "complete", "validate"):
            cases.append((f"toric-{command}-{fan}",
                          ["toric", command, f"{fan}.json"]))
    cases += [
        # one typed refusal per error kind
        ("refuse-dencap-denominator",
         ["approx", "linear-form.json", "--c", "1", "--eps", "1/2"]),
        ("refuse-dencap-cap",
         ["approx", "linear-form.json", "--c", "1/729", "--eps", "1/3"]),
        ("refuse-precision-approx",
         ["approx", "linear-form.json", "--c", "4", "--eps", "1/3"]),
        ("refuse-precision-sharp", ["sharp", "--prec", "9", "t.json"]),
        ("refuse-dencap-sharp", ["sharp", inline["cube-root"]]),
        ("refuse-budget-exact", ["toric", "sections", "pn2.json",
                                 "hyperplane.json", "--dencap", "6",
                                 "--p", "3"]),
        ("refuse-budget-40", ["toric", "sections", "pn2.json",
                              "hyperplane.json", "--dencap", "40",
                              "--p", "3"]),
        ("refuse-budget-100", ["toric", "sections", "pn2.json",
                               "hyperplane.json", "--dencap", "100",
                               "--p", "3"]),
        ("refuse-budget-1000", ["toric", "sections", "pn2.json",
                                "hyperplane.json", "--dencap", "1000",
                                "--p", "3"]),
        ("refuse-root-lattice", ["root", "x2-p.json"]),
        ("refuse-root-hensel", ["root", "x2-p.json", "--start", "1"]),
        ("refuse-config", ["sharp", "u.json"]),
        ("refuse-cone", ["toric", "sections", "broken-pn2.json",
                         "hyperplane.json"]),
        # malformed documents: a typed refusal, or a usage error for
        # text that is not JSON
        ("refuse-point-missing-key", ["disc", "eval", "x2-p.json",
                                      "--point", '{"type":"disc"}']),
        ("refuse-point-fractional-radius",
         ["disc", "eval", inline["t2"], "--point", inline["fractional"]]),
        ("refuse-subset-missing-denominator",
         ["disc", "member", '{"numerators":[]}', "gauss.json"]),
        ("usage-points-object", ["verify", "linear-form.json", candidate,
                                 "--c", "1", "--eps", "1/3", "--points",
                                 '{"kind":"gauss"}']),
        ("usage-deep-nesting", ["newton", "[" * 10_000]),
        # JSON's true where an integer belongs, and a Gauss point whose
        # inline config is not the polynomial's
        ("refuse-config-true-prec",
         ["sharp", '{"kind":"tilt","p":3,"prec":true,"dencap":0,'
          '"precexp":{"num":1,"denpow":0},'
          '"terms":[{"num":0,"denpow":0,"digit":1}]}']),
        ("refuse-config-gauss-prime",
         ["disc", "eval", "x2-p.json", "--point",
          '{"type":"gauss","p":5,"prec":8,"dencap":4}']),
        # a point given as JSON text inside the --points array
        ("usage-points-nested-text",
         ["verify", "linear-form.json", candidate, "--c", "1", "--eps",
          "1/3", "--points", '["{\\"kind\\":\\"gauss\\"}"]']),
    ]
    return cases


def write_golden(path=GOLDEN):
    cases = []
    for name, argv in _argvs():
        stdout, stderr, code = run(argv)
        cases.append({"name": name, "argv": argv, "stdout": stdout,
                      "stderr": stderr, "exit": code})
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
