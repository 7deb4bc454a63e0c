"""Tests of the benchmark itself: seeded generators are deterministic,
BENCHMARK.json names what run.py prints, and every correctness check
rejects a planted wrong result, so error_rate cannot read 0 by
construction.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import gen  # noqa: E402

common.import_package()

import run  # noqa: E402
import wl_cli  # noqa: E402
from perfectoid.arith import (  # noqa: E402
    FieldConfig, TiltElement, UntiltElement, element_from_json, invert_unit)
from perfectoid.polyroots import (  # noqa: E402
    Polynomial, fw_transfer, hensel_root, mixed_root_refine, newton_polygon)
from perfectoid.suite import CheckResult  # noqa: E402
from perfectoid.tiltkit import (  # noqa: E402
    WittVector, sharp, sharp_const, theta, witt_add, witt_mul)

Wrong = common.WrongResult
C3 = FieldConfig(3, 8, 2)


def changed(x):
    """x with its lowest digit changed (or dropped when p = 2)."""
    acc = {e.as_fraction(): c for e, c in x.digits.items()}
    if not acc:
        return type(x)(x.config, {Fraction(0): 1}, x.precexp)
    low = min(acc)
    if x.config.p == 2:
        del acc[low]
    else:
        acc[low] = acc[low] % (x.config.p - 1) + 1
    return type(x)(x.config, acc, x.precexp)


def u(digits, config=C3, cls=UntiltElement):
    return cls(config, {Fraction(e): c for e, c in digits.items()})


# =====================================================================
# generators and the benchmark definition
# =====================================================================

@pytest.mark.parametrize("make", [gen.digits_inputs, gen.lift_inputs])
def test_generators_are_deterministic_for_a_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_digits_pass_has_the_same_shape_profile_for_every_seed():
    def profile(seed):
        return sorted((i["shape"], i["config"], i["kind"])
                      for i in gen.digits_inputs(seed))
    assert profile(1) == profile(2)


def test_cli_command_order_is_seeded():
    first = [i["label"] for i in wl_cli.setup(5)["items"]]
    assert first == [i["label"] for i in wl_cli.setup(5)["items"]]
    assert sorted(first) == sorted(label for label, *_ in wl_cli.COMMANDS
                                   for _ in range(wl_cli.REPEATS))


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.MODULES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert len(spec["per_layer"]) <= 128


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1000))
    assert common.tail(values) == (989, "p99", 10)
    assert common.tail(list(range(19))) == (18, "max", 0)
    assert common.tail(list(range(22))) == (10, "p50", 11)
    # the percentile is fixed by one pass, the value read from all passes
    assert common.tail(list(range(3000)), 1000) == (2969, "p99", 10)


def test_import_breakdown_parser():
    text = ("import time:      1267 |       2379 | encodings\n"
            "import time:      2789 |     110956 |         numpy\n"
            "import time:      2358 |     440495 |         sympy\n"
            "import time:      1010 |      41220 |   click\n"
            "import time:      8973 |     721162 | perfectoid.cli\n")
    assert wl_cli.parse_importtime(text) == {
        "cli.import.numpy_s": 0.110956, "cli.import.sympy_s": 0.440495,
        "cli.import.click_s": 0.04122, "cli.import_s": 0.721162}


def test_tracer_self_time_subtracts_direct_children():
    tracer = common.Tracer()
    tracer.spans = [("suite.x", 0.0, 10.0, -1, 0),
                    ("tiltkit.sharp", 1.0, 4.0, 0, 0),
                    ("tiltkit.untilt_power_pn.int64", 2.0, 3.0, 1, 0),
                    ("polyroots.newton_polygon", 5.0, 6.0, 0, 0)]
    out = tracer.summary()
    assert out["suite.x.self_s"] == 6.0
    assert out["tiltkit.busy_s"] == 3.0       # nested tiltkit not recounted
    assert out["tiltkit.self_s"] == 3.0
    assert out["tiltkit.sharp.self_s"] == 2.0


def test_latencies_are_scaled_by_the_host_speed_factor():
    class Half:
        factors = []

        def factor(self):
            return 0.5
    run = common.Runner(speed=Half())
    run.op("arith.valuation", lambda: None)
    assert list(run.latencies) == [run.raw[0] * 0.5]
    for share in (0.0, 0.4):
        speed = common.HostSpeed(window=3, numpy_share=share)
        assert speed.factor() == pytest.approx(1 / sorted(speed.samples)[1])
        assert 0.1 < speed.factor() < 10


def test_a_wrong_result_counts_as_failed():
    run = common.Runner()
    x = u({0: 1, 1: 2})
    for _ in range(4):
        run.op("arith.untilt.add", lambda a: a + a, x)
    run.check("planted", checks.agree, x, changed(x), "planted")
    assert run.failed == 1 and run.error_rate == 0.25


def test_a_typed_refusal_counts_as_failed():
    run = common.Runner()
    with pytest.raises(common.Skip):
        run.op("arith.invert_unit", invert_unit, u({1: 1}))
    assert run.attempted == 1 and run.failed == 1
    assert "refused" in run.failures[0]


def test_shape_counts_follow_the_suite_profile_above_the_floor():
    counts = gen.shape_counts({"often": (("sharp",), 1),
                               "never": (("charp_root",), 1)},
                              scale=0.01, floor=3,
                              places={"often": 2, "never": 1})
    assert counts == {"often": round(0.01 * gen.SUITE_PROFILE["sharp"] / 2),
                      "never": 3}
    assert gen.DIGITS_ITEMS["new"] > gen.DIGITS_ITEMS["axioms"]
    assert gen.DIGITS_ITEMS["invert"] == gen.DIGITS_FLOOR


def test_command_peak_rss_is_that_of_the_command_alone():
    launcher = wl_cli.Launcher()

    def peak_mb(megabytes):
        code, out, err, kib = launcher.run(
            [sys.executable, "-c",
             f"x = bytearray({megabytes} << 20); print(len(x))"])
        assert code == 0 and out.strip() == str(megabytes << 20).encode()
        return kib / 1024
    try:
        big, small = peak_mb(60), peak_mb(1)
    finally:
        launcher.close()
    assert big > 60 > small
    assert launcher.proc.returncode == 0


# =====================================================================
# digits checks reject planted wrong results
# =====================================================================

@pytest.mark.parametrize("cls", [UntiltElement, TiltElement])
def test_normalize_check(cls):
    acc = {Fraction(0): 7, Fraction(1, 3): -4, Fraction(5, 9): 11}
    x = cls(C3, acc)
    checks.check_normalized(x, acc)
    with pytest.raises(Wrong):
        checks.check_normalized(changed(x), acc)


def test_ring_axiom_check():
    a, b, c = u({0: 1, Fraction(1, 3): 2}), u({1: 2}), u({0: 2, 2: 1})
    r = {"a+b": a + b, "b+a": b + a, "b+c": b + c, "ab": a * b,
         "ba": b * a, "bc": b * c, "ac": a * c}
    r.update({"(a+b)+c": r["a+b"] + c, "a+(b+c)": a + r["b+c"],
              "(ab)c": r["ab"] * c, "a(bc)": a * r["bc"],
              "a(b+c)": a * r["b+c"], "ab+ac": r["ab"] + r["ac"]})
    same = {pair: True for pair in checks.AXIOM_PAIRS}
    checks.check_ring_axioms(a, b, c, r, same)
    # b+c, bc and ac are checked through the values built from them
    for key in set(r) - {"b+c", "bc", "ac"}:
        bad = dict(r, **{key: changed(r[key])})
        with pytest.raises(Wrong):
            checks.check_ring_axioms(a, b, c, bad, same)
    for pair in checks.AXIOM_PAIRS:
        with pytest.raises(Wrong):
            checks.check_ring_axioms(a, b, c, r, {**same, pair: False})


def test_inverse_quotient_valuation_json_checks():
    unit = u({0: 2, Fraction(2, 3): 1})
    inv = invert_unit(unit)
    product = inv * unit
    checks.check_inverse(unit, inv, product, True)
    with pytest.raises(Wrong):
        checks.check_inverse(unit, inv, changed(product), True)
    with pytest.raises(Wrong):
        checks.check_inverse(unit, inv, product, False)
    a = u({1: 1, 3: 2})
    checks.check_quotient(a, a)
    with pytest.raises(Wrong):
        checks.check_quotient(a, changed(a))
    checks.check_valuation(a, a.valuation())
    with pytest.raises(Wrong):
        checks.check_valuation(a, a.shift(1).valuation())
    doc = a.to_json()
    checks.check_json_round_trip(a, doc, element_from_json(doc), True)
    with pytest.raises(Wrong):
        checks.check_json_round_trip(a, doc, changed(a), False)


def test_frobenius_and_reduce_lift_checks():
    from perfectoid.arith import lift_mod_uniformizer, reduce_mod_uniformizer
    x = u({Fraction(1, 3): 1, 2: 2}, cls=TiltElement)
    f = x.frobenius()
    checks.check_frobenius(x, f, f.pth_root())
    with pytest.raises(Wrong):
        checks.check_frobenius(x, changed(f), f.pth_root())
    with pytest.raises(Wrong):
        checks.check_frobenius(x, f, changed(f.pth_root()))
    y = u({Fraction(1, 3): 2, 2: 1})
    r = reduce_mod_uniformizer(y)
    lifted = lift_mod_uniformizer(r)
    again = reduce_mod_uniformizer(lifted)
    checks.check_reduce_lift(y, r, lifted, again)
    with pytest.raises(Wrong):
        checks.check_reduce_lift(y, changed(r), lifted, again)
    with pytest.raises(Wrong):
        checks.check_reduce_lift(y, r, lifted, changed(again))


# =====================================================================
# lift checks reject planted wrong results
# =====================================================================

def test_sharp_checks():
    config = FieldConfig(3, 9, 8)
    t = TiltElement.uniformizer(config)
    value = sharp(t, 5)
    checks.check_sharp_uniformizer(value, 5)
    with pytest.raises(Wrong):
        checks.check_sharp_uniformizer(changed(value), 5)
    x = u({Fraction(1, 3): 1}, config, TiltElement)
    y = u({0: 2, 1: 1}, config, TiltElement)
    sx, sy, sxy = sharp(x, 3), sharp(y, 3), sharp(x * y, 3)
    checks.check_sharp_mul(sx, sy, sxy, 3)
    with pytest.raises(Wrong):
        checks.check_sharp_mul(sx, sy, changed(sxy), 3)
    lift = sharp_const(config, 2)
    checks.check_sharp_const(lift, 2, 3)
    with pytest.raises(Wrong):
        checks.check_sharp_const(changed(lift), 2, 3)


def test_certified_precision_follows_the_sharp_docstring_rule():
    # a = 9/3^6 = 1/81 -> 1/27 -> 1/9 -> 1/3 -> 1 -> 2 -> 3
    assert checks.sharp_certified(9, 3, 6, 7) == 3
    assert checks.sharp_certified(9, 3, 2, 3) == 3


def test_theta_checks():
    config = FieldConfig(3, 9, 6)
    a = WittVector(config, [u({1: 1}, config, TiltElement),
                            u({0: 2}, config, TiltElement),
                            u({}, config, TiltElement)])
    b = WittVector(config, [u({0: 1, 2: 1}, config, TiltElement),
                            u({}, config, TiltElement),
                            u({1: 2}, config, TiltElement)])
    ta, tb = theta(a), theta(b)
    tsum, tprod = theta(witt_add(a, b)), theta(witt_mul(a, b))
    upto = min(checks.theta_certified(w) for w in (a, b))
    checks.check_theta(ta, tb, tsum, tprod, 3, upto)
    with pytest.raises(Wrong):
        checks.check_theta(ta, tb, changed(tsum), tprod, 3, upto)
    with pytest.raises(Wrong):
        checks.check_theta(ta, tb, tsum, changed(tprod), 3, upto)
    x = u({1: 1}, config, TiltElement)
    w = WittVector.teichmuller(x, 3)
    checks.check_teichmuller(theta(w), sharp(x, 3), 3)
    with pytest.raises(Wrong):
        checks.check_teichmuller(theta(w), changed(sharp(x, 3)), 3)


def test_polynomial_checks():
    from perfectoid.polyroots import NewtonPolygon
    config = FieldConfig(3, 4, 4)
    P = Polynomial([u({1: 1}, config, TiltElement),
                    u({0: 2}, config, TiltElement),
                    u({3: 1}, config, TiltElement),
                    u({0: 1}, config, TiltElement)])
    polygon = newton_polygon(P)
    checks.check_newton(P, polygon)
    wrong = NewtonPolygon([(s + 1, m) for s, m in polygon.segments])
    with pytest.raises(Wrong):
        checks.check_newton(P, wrong)
    checks.check_transfer(polygon, newton_polygon(fw_transfer(P, 0)))
    with pytest.raises(Wrong):
        checks.check_transfer(polygon, wrong)
    checks.check_agreement([Fraction(1), Fraction(2)])
    with pytest.raises(Wrong):
        checks.check_agreement([Fraction(2), Fraction(1)])


def test_root_checks():
    config = FieldConfig(3, 6, 3)
    zero, one = UntiltElement.zero(config), UntiltElement.one(config)
    P = Polynomial([-UntiltElement.from_int(config, 4), zero, one])
    root = mixed_root_refine(P)
    checks.check_root(P, root, 6)
    with pytest.raises(Wrong):
        checks.check_root(P, changed(root), 6)
    start = UntiltElement.from_int(config, root.digit_at(Fraction(0)))
    other = hensel_root(P, start)
    checks.check_hensel(root, other)
    with pytest.raises(Wrong):
        checks.check_hensel(root, changed(other))
    checks.check_found(root)
    with pytest.raises(Wrong):
        checks.check_found(None)


# =====================================================================
# battery and cli checks reject planted wrong results
# =====================================================================

def test_suite_result_check():
    checks.check_suite_result(CheckResult("toric", True, "ok", 0.1))
    with pytest.raises(Wrong):
        checks.check_suite_result(CheckResult("toric", False, "bad", 0.1))


def test_command_check():
    ok = {"label": "newton", "exit": 0, "stdout": b"[1]\n"}
    checks.check_command(ok, (0, b"[1]\n", b""), None)
    checks.check_command(ok, (0, b"[1]\n", b""), b"[1]\n")
    for outcome, first in (((0, b"[2]\n", b""), None),
                           ((1, b"[1]\n", b""), None),
                           ((0, b"[1]\n", b""), b"[2]\n")):
        with pytest.raises(Wrong):
            checks.check_command(ok, outcome, first)
    err = {"label": "root", "exit": 1, "error": "RootError"}
    checks.check_command(err, (1, b"", b'{"error":"RootError"}'), None)
    with pytest.raises(Wrong):
        checks.check_command(err, (1, b"", b'{"error":"ConeError"}'), None)
    with pytest.raises(Wrong):
        checks.check_command(err, (0, b"", b""), None)
