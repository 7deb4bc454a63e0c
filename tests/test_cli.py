"""Command-line plumbing: input resolution, exit codes, canonical output."""

import json
import os
import pkgutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from perfectoid.arith import FieldConfig, TiltElement, UntiltElement, dumps
from perfectoid.cli import fixture_dir
from perfectoid.polyroots import Polynomial
from perfectoid.suite import CheckResult
from perfectoid.tiltkit import WittVector


def invoke(runner, *args, **kwargs):
    return runner(args, **kwargs)


# ---------------------------------------------------------------------
# element maps
# ---------------------------------------------------------------------

def test_sharp_at_reduced_depth(runner):
    result = invoke(runner, "sharp", "--prec", "4", "t.json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "untilt"
    assert doc["precexp"] == {"num": 4, "denpow": 0}
    assert doc["terms"] == [{"num": 1, "denpow": 0, "digit": 1}]


def test_sharp_rejects_untilt_input(runner):
    result = invoke(runner, "sharp", "u.json")
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "ConfigError"


def test_sharp_checks_the_p_flag(runner):
    result = invoke(runner, "sharp", "--p", "2", "t.json")
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "ConfigError"


def _refusal(runner, *args):
    start = time.perf_counter()
    result = invoke(runner, *args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.stdout == ""
    return json.loads(result.stderr)


def test_sharp_refuses_a_huge_json_denominator_at_once(runner):
    # 3^(10^6) is never computed: p is divided out of num only while
    # denpow exceeds dencap
    doc = {"kind": "tilt", "p": 3, "prec": 4, "dencap": 2,
           "precexp": {"num": 4, "denpow": 0},
           "terms": [{"num": 1, "denpow": 10 ** 6, "digit": 1}]}
    error = _refusal(runner, "sharp", json.dumps(doc))
    assert error == {"error": "DencapError",
                     "message": "exponent 1/3^1000000 needs denominator "
                                "p^1000000, cap is p^2"}


def test_approx_refuses_a_huge_json_denominator_at_once(runner):
    hom = json.loads(fixture_dir().joinpath("linear-form.json").read_text())
    hom["degree"] = {"num": 1, "denpow": 10 ** 6}
    error = _refusal(runner, "approx", json.dumps(hom), "--c", "1",
                     "--eps", "1/3")
    assert error["error"] == "DencapError"


def test_sharp_decides_a_large_prime_at_once(runner):
    # Miller-Rabin: 2^61 - 1 is accepted, then the sharp of t^(1/p)
    # needs a root below the lattice; a p beyond the test's exact range
    # is refused
    doc = {"kind": "tilt", "p": 2 ** 61 - 1, "prec": 4, "dencap": 2,
           "precexp": {"num": 4, "denpow": 0},
           "terms": [{"num": 1, "denpow": 1, "digit": 1}]}
    assert _refusal(runner, "sharp", json.dumps(doc))["error"] == "DencapError"
    doc["p"] = 2 ** 127 - 1
    assert _refusal(runner, "sharp", json.dumps(doc))["error"] == "BudgetError"


def test_tilt_reduce_keeps_shallow_digits(runner):
    result = invoke(runner, "tilt-reduce", "u.json", "--format", "text")
    assert result.exit_code == 0
    assert result.output == "2*t^(1/3) + O(t)\n"


def test_json_nested_past_the_recursion_limit_is_a_usage_error(runner):
    result = invoke(runner, "newton", "[" * 100_000)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "malformed JSON" in result.stderr
    assert "recursion" in result.stderr


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python writes integers of any length")
def test_text_form_past_the_decimal_limit_is_a_json_error(runner):
    # p^(1/2^20000): the text form would write 2^20000 in decimal, past
    # Python's int-to-str limit; the JSON form is still written
    x = UntiltElement(FieldConfig(2, 1, 20000), {Fraction(1, 2 ** 20000): 1})
    result = invoke(runner, "tilt-reduce", x.dumps())
    assert result.exit_code == 0
    assert json.loads(result.output)["terms"] == [
        {"num": 1, "denpow": 20000, "digit": 1}]
    result = invoke(runner, "tilt-reduce", x.dumps(), "--format", "text")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "BudgetError"


def test_tilt_reduce_wants_untilt(runner):
    result = invoke(runner, "tilt-reduce", "t.json")
    assert result.exit_code == 1


# ---------------------------------------------------------------------
# Witt commands
# ---------------------------------------------------------------------

def test_theta_of_teichmuller_lift_is_p(runner):
    result = invoke(runner, "theta", "witt-t.json", "--format", "text")
    assert result.exit_code == 0
    assert result.output == "1*p + O(p^3)\n"


def test_witt_add_emits_a_witt_vector(runner):
    result = invoke(runner, "witt", "add", "witt-t.json", "witt-t.json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["length"] == 3
    assert len(doc["components"]) == 3


def test_witt_mul_squares_the_uniformizer(runner):
    result = invoke(runner, "witt", "mul", "witt-t.json", "witt-t.json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["components"][0]["terms"] == [
        {"num": 2, "denpow": 0, "digit": 1}]


def _witt_json(config, comps):
    return dumps(WittVector(config, comps).to_json())


def test_witt_mul_beyond_length_four(runner):
    config = FieldConfig(2, 8, 4)
    t = TiltElement.uniformizer(config)
    doc = _witt_json(config, [t, TiltElement.one(config), t, t * t, t])
    result = invoke(runner, "witt", "mul", doc, doc)
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["length"] == 5
    assert len(out["components"]) == 5


def test_witt_overbudget_product_is_a_domain_error(runner):
    config = FieldConfig(5, 8, 6)
    wide = TiltElement(config, {Fraction(2 * j + 1, 5 ** 6): 1
                                for j in range(2100)})
    doc = _witt_json(config, [wide] + [TiltElement.zero(config)] * 7)
    result = invoke(runner, "witt", "mul", doc, doc)
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "BudgetError"
    assert f"{2100 ** 2} term pairs" in error["message"]


def test_witt_lift_respects_length(runner):
    result = invoke(runner, "witt", "lift", "t.json", "--length", "2")
    assert result.exit_code == 0
    assert json.loads(result.output)["length"] == 2


@pytest.mark.parametrize("length,message", [
    ("0", "Witt vectors have length >= 1"),
    ("-1", "Witt vectors have length >= 1"),
    ("1000000000", "length 1000000000 exceeds working precision 8"),
])
def test_witt_lift_refuses_a_length_outside_the_precision(runner, length,
                                                          message):
    # one typed error, before a list of that length is built (the
    # library-level test bounds the refusal itself at 10 ms; in process,
    # building the argument parser takes longer)
    error = _refusal(runner, "witt", "lift", "t.json", "--length", length)
    assert error == {"error": "KernelError", "message": message}


# ---------------------------------------------------------------------
# polynomial commands
# ---------------------------------------------------------------------

def test_newton_matches_polygon_json(runner):
    result = invoke(runner, "newton", "x2-p.json")
    assert result.exit_code == 0
    assert result.output == '[{"slope":"1/2","mult":2}]\n'


def test_newton_text_format(runner):
    result = invoke(runner, "newton", "x2-p.json", "--format", "text")
    assert result.output == "1/2 x2\n"


def test_transfer_sends_x2_t_to_x2_p(runner):
    result = invoke(runner, "transfer", "x2-t.json")
    assert result.exit_code == 0
    config = FieldConfig(3, 8, 8)
    zero = UntiltElement.zero(config)
    expected = Polynomial([zero - UntiltElement.uniformizer(config), zero,
                           UntiltElement.one(config)])
    assert result.output == dumps(expected.to_json()) + "\n"


def _square_minus_four():
    config = FieldConfig(3, 6, 3)
    zero = UntiltElement.zero(config)
    poly = Polynomial([zero - UntiltElement.from_int(config, 4), zero,
                       UntiltElement.one(config)])
    return dumps(poly.to_json())


def test_root_refinement_and_hensel_agree(runner):
    source = _square_minus_four()
    refined = invoke(runner, "root", source)
    lifted = invoke(runner, "root", source, "--start", "1")
    assert refined.exit_code == 0
    assert refined.output == lifted.output
    digits = json.loads(refined.output)["terms"]
    assert digits[0] == {"num": 0, "denpow": 0, "digit": 1}


def test_root_error_is_a_single_json_object(runner):
    # the valuation of any root would need denominator 2, which the
    # 3-power lattice cannot carry
    result = invoke(runner, "root", "x2-p.json")
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "RootError"
    assert "lattice" in error["message"]


# ---------------------------------------------------------------------
# approximation commands
# ---------------------------------------------------------------------

def test_decompose_slices_by_depth(runner):
    result = invoke(runner, "decompose", "linear-form.json", "--c", "1")
    assert result.exit_code == 0
    slices = json.loads(result.output)
    assert len(slices) == 2
    assert all(doc["kind"] == "tilt" for doc in slices)


def test_approx_then_verify_passes_at_gauss(runner):
    approx = invoke(runner, "approx", "linear-form.json",
                    "--c", "1", "--eps", "1/3")
    assert approx.exit_code == 0
    report = invoke(runner, "verify", "linear-form.json",
                    approx.output.strip(), "--c", "1", "--eps", "1/3")
    assert report.exit_code == 0
    doc = json.loads(report.output)
    assert doc["passed"] is True
    assert doc["points"][0]["point"] == {"kind": "gauss"}


def test_verify_reads_a_points_file(runner, tmp_path):
    approx = invoke(runner, "approx", "linear-form.json",
                    "--c", "1", "--eps", "1/3")
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"kind": "gauss"}]))
    report = invoke(runner, "verify", "linear-form.json",
                    approx.output.strip(), "--c", "1", "--eps", "1/3",
                    "--points", str(points))
    assert report.exit_code == 0
    assert len(json.loads(report.output)["points"]) == 1


def test_verify_in_one_variable_reads_and_writes_the_disc_form(runner):
    # both Gauss shorthands take the config they omit from the element,
    # and a point of one coordinate is written in the disc form
    config = FieldConfig(3, 4, 5)
    u = UntiltElement.one(config) + UntiltElement.uniformizer(config)
    f = {"kind": "untilt", "p": 3, "prec": 4, "dencap": 5, "nvars": 1,
         "degree": {"num": 1, "denpow": 0},
         "precexp": {"num": 4, "denpow": 0},
         "terms": [{"exps": [{"num": 1, "denpow": 0}],
                    "coeff": UntiltElement.one(config).to_json()}]}
    g = dict(f, kind="tilt", terms=[{"exps": [{"num": 1, "denpow": 0}],
                                     "coeff": TiltElement.one(config)
                                     .to_json()}])
    points = [{"kind": "gauss"}, {"type": "gauss"},
              {"kind": "classical", "coords": [u.to_json()]},
              {"type": "classical", "center": u.to_json()}]
    report = invoke(runner, "verify", json.dumps(f), json.dumps(g),
                    "--c", "1", "--eps", "1/3", "--points",
                    json.dumps(points))
    assert report.exit_code == 0, report.stderr
    rows = json.loads(report.output)["points"]
    gauss = {"type": "gauss", "p": 3, "prec": 4, "dencap": 5}
    center = {"type": "classical", "center": u.to_json()}
    assert [row["point"] for row in rows] == [gauss, gauss, center, center]
    default = invoke(runner, "verify", json.dumps(f), json.dumps(g),
                     "--c", "1", "--eps", "1/3")
    assert json.loads(default.output)["points"] == rows[:1]


def test_verify_refuses_points_that_are_not_an_array(runner):
    # an object's keys would otherwise be read as one point each
    approx = invoke(runner, "approx", "linear-form.json",
                    "--c", "1", "--eps", "1/3")
    report = invoke(runner, "verify", "linear-form.json",
                    approx.output.strip(), "--c", "1", "--eps", "1/3",
                    "--points", '{"kind":"gauss"}')
    assert report.exit_code == 2
    assert report.stdout == ""
    assert "--points wants a JSON array" in report.stderr


def test_verify_refuses_an_empty_points_array(runner):
    # a contract checked at no point would pass vacuously
    approx = invoke(runner, "approx", "linear-form.json",
                    "--c", "1", "--eps", "1/3")
    report = invoke(runner, "verify", "linear-form.json",
                    approx.output.strip(), "--c", "1", "--eps", "1/3",
                    "--points", "[]")
    assert report.exit_code == 2
    assert report.stdout == ""
    assert "--points wants at least one point" in report.stderr


def test_a_flag_value_may_start_with_a_minus_sign(runner):
    # "-1/3" is the value of --c, refused by the kernel, not an option
    result = invoke(runner, "approx", "linear-form.json", "--c", "-1/3",
                    "--eps", "1/3")
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "KernelError", "message": "depth must be nonnegative, "
                                           "got -1/3"}


def test_approx_rejects_bad_eps(runner):
    result = invoke(runner, "approx", "linear-form.json",
                    "--c", "1", "--eps", "two")
    assert result.exit_code == 2


# ---------------------------------------------------------------------
# disc commands
# ---------------------------------------------------------------------

def test_disc_eval_gauss_shorthand_borrows_config(runner):
    result = invoke(runner, "disc", "eval", "x2-p.json",
                    "--point", '{"type":"gauss"}')
    assert result.exit_code == 0
    assert result.output == '{"exponent":{"num":0,"den":1}}\n'


def test_disc_eval_emits_two_exponents_on_a_halo(runner):
    result = invoke(runner, "disc", "eval", "x2-p.json",
                    "--point", json.dumps(
                        {"type": "halo", "p": 3, "prec": 8, "dencap": 4,
                         "center": {"kind": "untilt", "p": 3, "prec": 8,
                                    "dencap": 4,
                                    "precexp": {"num": 8, "denpow": 0},
                                    "terms": []},
                         "radius_exp": {"num": 0, "den": 1},
                         "sign": "<"}))
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["exponent"] == {"num": 0, "den": 1}
    assert doc["gamma_exp"] == 2
    assert doc["sign"] == "<"


def test_disc_membership_of_the_gauss_point(runner):
    result = invoke(runner, "disc", "member", "subset-t.json", "gauss.json")
    assert result.exit_code == 0
    assert result.output == '{"member":true}\n'


def test_disc_specialization_is_directed(runner):
    forward = invoke(runner, "disc", "specializes",
                     "gauss.json", "origin-halo.json")
    backward = invoke(runner, "disc", "specializes",
                      "origin-halo.json", "gauss.json")
    assert forward.output == '{"specializes":true}\n'
    assert backward.output == '{"specializes":false}\n'


# ---------------------------------------------------------------------
# toric commands
# ---------------------------------------------------------------------

def test_toric_sections_of_the_hyperplane(runner):
    result = invoke(runner, "toric", "sections", "pn2.json",
                    "hyperplane.json")
    assert result.exit_code == 0
    assert result.output == '[["0","0"],["0","1"],["1","0"]]\n'


def test_toric_sections_fractional_scale(runner):
    result = invoke(runner, "toric", "sections", "pn2.json",
                    "hyperplane.json", "--scale", "1/3",
                    "--dencap", "1", "--p", "3")
    assert result.output == '[["0","0"],["0","1/3"],["1/3","0"]]\n'


def test_toric_smooth_and_complete(runner):
    assert invoke(runner, "toric", "smooth",
                  "pn2.json").output == '{"smooth":true}\n'
    assert invoke(runner, "toric", "complete",
                  "p1xp1.json").output == '{"complete":true}\n'


def test_toric_validate_reports_shape(runner):
    result = invoke(runner, "toric", "validate", "pn2.json")
    assert json.loads(result.output) == {
        "rank": 2, "cones": 7, "maximal": 3, "rays": 3}


@pytest.mark.parametrize("name", ["broken-pn1.json", "broken-pn2.json",
                                  "broken-p1xp1.json"])
def test_toric_validate_rejects_broken_fans(runner, name):
    result = invoke(runner, "toric", "validate", name)
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "ConeError"


P2_CONES = '[[[1,0],[0,1]],[[0,1],[-1,-1]],[[-1,-1],[1,0]]]'


@pytest.mark.parametrize("args,message", [
    (["toric", "validate", '{"rank":"x","cones":' + P2_CONES + '}'],
     "rank must be a positive integer, got 'x'"),
    (["toric", "validate", '{"rank":1e400,"cones":' + P2_CONES + '}'],
     "rank must be a positive integer, got inf"),
    (["toric", "validate", '{"rank":2.5,"cones":' + P2_CONES + '}'],
     "rank must be a positive integer, got 2.5"),
    (["toric", "validate", '{"rank":2,"cones":[[[1.5,0],[0,1]]]}'],
     "not an integer vector: [1.5, 0]"),
    (["toric", "sections", "pn2.json",
      '{"rays":5,"coefficients":["1","0","0"]}'],
     "malformed divisor JSON: 'int' object is not iterable"),
    (["toric", "sections", "pn2.json",
      '{"rays":[["a",0],[0,1],[1,0]],"coefficients":["1","0","0"]}'],
     "not an integer vector: ['a', 0]"),
])
def test_malformed_toric_json_is_one_typed_error(runner, args, message):
    result = invoke(runner, *args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr) == {"error": "ConeError",
                                         "message": message}


def test_toric_transfer_defaults_to_the_projective_fan(runner):
    result = invoke(runner, "toric", "transfer", "linear-form.json",
                    "--c", "1", "--eps", "1/3")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert list(doc) == ["g", "twist", "h", "report"]
    assert doc["twist"] == 0
    assert doc["report"]["passed"] is True


def test_toric_sections_refuses_an_oversized_box_at_once(runner):
    # (3^12 + 1)^2 grid points: refused before any is enumerated
    start = time.perf_counter()
    result = invoke(runner, "toric", "sections", "pn2.json",
                    "hyperplane.json", "--dencap", "12", "--p", "3")
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "BudgetError"
    assert str((3 ** 12 + 1) ** 2) in error["message"]


def test_toric_sections_refuses_p_one_at_once():
    # with p = 1 the denominator check would divide by p forever; a
    # separate process with a timeout keeps a hang from stalling the suite
    proc = subprocess.run(
        [sys.executable, "-c", "from perfectoid.cli import main; main()",
         "toric", "sections", "pn2.json", "hyperplane.json", "--p", "1",
         "--dencap", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "ConfigError",
                                       "message": "p = 1 is not prime"}


def test_toric_transfer_rejects_a_divisor_document(runner):
    result = invoke(runner, "toric", "transfer", "hyperplane.json",
                    "--c", "1", "--eps", "1/3")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr) == {
        "error": "KernelError",
        "message": "malformed homogeneous element JSON: 'p'"}


# ---------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------

def test_inline_json_input(runner):
    config = FieldConfig(3, 8, 4)
    source = dumps(TiltElement.uniformizer(config).to_json())
    result = invoke(runner, "sharp", "--prec", "4", source)
    assert result.exit_code == 0


def test_stdin_input(runner):
    config = FieldConfig(3, 8, 4)
    source = dumps(TiltElement.uniformizer(config).to_json())
    result = invoke(runner, "sharp", "--prec", "4", "-", input=source)
    assert result.exit_code == 0


def test_fixture_directory_override(runner, tmp_path, monkeypatch):
    config = FieldConfig(5, 6, 5)
    custom = tmp_path / "t.json"
    custom.write_text(dumps(TiltElement.uniformizer(config).to_json()))
    monkeypatch.setenv("PERFECTOID_FIXTURES", str(tmp_path))
    result = invoke(runner, "sharp", "t.json")
    assert result.exit_code == 0
    assert json.loads(result.output)["p"] == 5


def test_missing_input_is_a_usage_error(runner):
    result = invoke(runner, "newton", "nonexistent.json")
    assert result.exit_code == 2


def test_malformed_json_is_a_usage_error(runner):
    result = invoke(runner, "newton", "{broken")
    assert result.exit_code == 2


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python reads integers of any length")
def test_an_overlong_json_integer_is_a_usage_error(runner):
    # json.loads refuses an integer past Python's int-from-str limit
    # (4,300 digits by default) with a plain ValueError
    num = "1" + "0" * 4999
    doc = ('{"kind": "tilt", "p": 3, "prec": 4, "dencap": 2, '
           '"precexp": {"num": 4, "denpow": 0}, '
           f'"terms": [{{"num": {num}, "denpow": 0, "digit": 1}}]}}')
    result = invoke(runner, "sharp", doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "malformed JSON" in result.stderr


@pytest.mark.parametrize("args", [
    ["no-such-command"],
    ["sharp", "--prec", "four", "t.json"],
    ["sharp", "--pre", "4", "t.json"],
    ["sharp", "t.json", "--format", "xml"],
    ["approx", "linear-form.json", "--eps", "1/3"],
    [],
    ["witt"],
], ids=["unknown-command", "bad-int", "abbreviated-option", "bad-choice",
        "missing-option", "no-command", "no-subcommand"])
def test_usage_errors_exit_2_with_empty_stdout(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr


@pytest.mark.parametrize("args", [
    [], ["sharp"], ["tilt-reduce"], ["witt"], ["witt", "add"],
    ["witt", "mul"], ["witt", "lift"], ["theta"], ["newton"], ["transfer"],
    ["root"], ["decompose"], ["approx"], ["verify"], ["disc"],
    ["disc", "eval"], ["disc", "member"], ["disc", "specializes"],
    ["toric"], ["toric", "sections"], ["toric", "smooth"],
    ["toric", "complete"], ["toric", "validate"], ["toric", "transfer"],
    ["suite"]], ids=lambda args: " ".join(args) or "perfectoid")
def test_help_exits_0(runner, args):
    result = invoke(runner, *args, "--help")
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: perfectoid")


# ---------------------------------------------------------------------
# suite command
# ---------------------------------------------------------------------

def test_suite_subset_emits_stable_rows(runner):
    result = invoke(runner, "suite", "--only", "mixed-roots")
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert [list(row) for row in rows] == [["name", "passed", "detail"]]
    assert rows[0]["name"] == "mixed-roots"
    assert rows[0]["passed"] is True


def test_suite_text_table(runner):
    result = invoke(runner, "suite", "--only", "mixed-roots",
                    "--format", "text")
    assert result.exit_code == 0
    assert result.output.startswith("mixed-roots  pass  ")


def test_suite_unknown_check_is_a_usage_error(runner):
    result = invoke(runner, "suite", "--only", "no-such-check")
    assert result.exit_code == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_suite_selection_of_no_check_is_a_usage_error(runner, fmt):
    # an empty battery would otherwise pass, or end in a traceback
    result = invoke(runner, "suite", "--only", ",", "--format", fmt)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--only names no check" in result.stderr


@pytest.mark.parametrize("only", ["mixed-roots,mixed-roots",
                                  "mixed-roots, mixed-roots"])
def test_suite_repeated_check_is_a_usage_error(runner, only):
    # a repeated name would run its check twice and print two rows
    result = invoke(runner, "suite", "--only", only)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--only names 'mixed-roots' twice" in result.stderr


def test_suite_exit_code_follows_failures(runner, monkeypatch):
    # the suite command imports run_all from perfectoid.suite when it runs
    import perfectoid.suite as suite_module
    monkeypatch.setattr(
        suite_module, "run_all",
        lambda seed, names=None: [
            CheckResult("stub", False, "synthetic failure", 0.0)])
    result = invoke(runner, "suite")
    assert result.exit_code == 1
    assert json.loads(result.output)[0]["passed"] is False


# Every integer option, with the command line it is added to
_INT_OPTIONS = [
    (["sharp", "t.json"], "--p"), (["sharp", "t.json"], "--prec"),
    (["sharp", "t.json"], "--dencap"),
    (["tilt-reduce", "u.json"], "--p"), (["tilt-reduce", "u.json"], "--prec"),
    (["tilt-reduce", "u.json"], "--dencap"),
    (["witt", "lift", "t.json"], "--length"),
    (["transfer", "x2-t.json"], "--n"),
    (["root", "x2-p.json"], "--start"),
    (["decompose", "linear-form.json"], "--c"),
    (["toric", "sections", "pn2.json", "hyperplane.json"], "--dencap"),
    (["toric", "sections", "pn2.json", "hyperplane.json"], "--p"),
    (["suite", "--only", "mixed-roots"], "--seed"),
]


@pytest.mark.parametrize("value", ["0", "-1", str(10 ** 9), str(10 ** 18)])
@pytest.mark.parametrize("argv,option", _INT_OPTIONS,
                         ids=[f"{argv[0]}{option}" for argv, option
                              in _INT_OPTIONS])
def test_an_integer_option_at_any_size_exits_soundly(runner, argv, option,
                                                     value):
    # 0, -1 and values far past any budget give a result, a usage error
    # or one typed JSON error, at once and in little memory
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = invoke(runner, *argv, option, value)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0
    assert peak < 64 * 2 ** 20
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert result.stdout == ""
        error = json.loads(result.stderr)
        assert set(error) == {"error", "message"}


def _child(probe: str, *args) -> str:
    """The last line ``probe`` prints in a fresh ``python -S`` process:
    -S keeps site, and the .pth files it runs, from importing modules
    the package does not.  The child finds the package where this
    process did."""
    import perfectoid
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   perfectoid.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_package_loads_only_the_standard_library():
    import perfectoid
    names = [m.name for m in pkgutil.iter_modules(perfectoid.__path__)]
    assert {"cli", "suite", "fixtures", "toric"} <= set(names)
    probe = (f"import sys\n"
             f"for name in {names!r}:\n"
             f"    __import__('perfectoid.' + name)\n"
             f"known = set(sys.stdlib_module_names) | "
             f"set(sys.builtin_module_names) | {{'perfectoid', '__main__'}}\n"
             f"print(sorted({{m.split('.')[0] for m in sys.modules}}"
             f" - known))")
    assert _child(probe) == "[]"


_INLINE_T = dumps(TiltElement.uniformizer(FieldConfig(3, 8, 4)).to_json())
_GAUSS = '{"type":"gauss"}'

# The commands of the benchmark's cli workload, and an inline sharp that
# reads no file: each process imports the package modules its command
# runs and no others.
_COMMAND_MODULES = {
    "help": (["--help"], set()),
    "sharp": (["sharp", "--prec", "4", "t.json"], {"tiltkit"}),
    "sharp-inline": (["sharp", _INLINE_T], {"tiltkit"}),
    "newton": (["newton", "x2-p.json"], {"polyroots"}),
    "root": (["root", "x2-p.json"], {"polyroots"}),
    "approx": (["approx", "linear-form.json", "--c", "1", "--eps", "1/3"],
               {"tatealg", "tiltkit"}),
    "disc-eval": (["disc", "eval", "x2-p.json", "--point", _GAUSS],
                  {"polyroots", "adicdisc"}),
    "disc-member": (["disc", "member", "subset-t.json", "gauss.json"],
                    {"polyroots", "adicdisc"}),
    "toric-sections": (["toric", "sections", "pn2.json", "hyperplane.json"],
                       {"toric"}),
    "toric-validate": (["toric", "validate", "broken-pn2.json"], {"toric"}),
    "witt-mul": (["witt", "mul", "witt-t.json", "witt-t.json"], {"tiltkit"}),
    "theta": (["theta", "witt-t.json"], {"tiltkit"}),
}


@pytest.mark.parametrize("case", list(_COMMAND_MODULES))
def test_a_command_loads_only_the_modules_it_uses(case):
    argv, modules = _COMMAND_MODULES[case]
    probe = ("import sys, perfectoid.cli\n"
             "try:\n"
             "    perfectoid.cli.main(sys.argv[1:])\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(sorted(m for m in sys.modules if m.startswith("
             "'perfectoid')), 'importlib.resources' in sys.modules, "
             "'dataclasses' in sys.modules)")
    want = sorted({"perfectoid", "perfectoid.arith", "perfectoid.cli"}
                  | {f"perfectoid.{m}" for m in modules})
    assert _child(probe, *argv) == f"{want} False False"


# Command lines that name no command, or a command with a usage error:
# the parser of one command must print what the whole tree prints.
_PARSER_ARGVS = [
    [], ["--help"], ["sharp", "--help"], ["toric"], ["toric", "--help"],
    ["toric", "bogus"], ["shar"], ["sharp"], ["sharp", "--pre", "4", "t.json"],
    ["sharp", "t.json", "extra"], ["witt", "mul", "witt-t.json"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_one_command_parser_prints_what_the_whole_tree_does(
        runner, monkeypatch, argv):
    from perfectoid import cli
    alone = invoke(runner, *argv)
    assert alone.exit_code in (0, 2)
    whole = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda argv: whole([]))
    assert invoke(runner, *argv) == alone


def test_the_parser_builds_the_named_command_alone():
    from perfectoid import cli
    assert "tilt-reduce" in cli._parser(["shar"]).format_help()
    for argv in (["sharp", "t.json"], ["toric", "sections", "--help"]):
        top = cli._parser(argv).format_help()
        assert argv[0] in top and "tilt-reduce" not in top
