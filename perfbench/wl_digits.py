"""The ``digits`` workload: digit arithmetic in both rings.

Writes (construction from a digit map, which normalizes and carries),
``+`` and ``*``, reads (``==``, ``valuation``, the JSON round trip),
``invert_unit``/``divide_exact``, reduction/lift modulo the uniformizer
and Frobenius/p-th root, on seeded operands with 1-8 digits.
"""

from __future__ import annotations

import operator
import checks
import gen
from common import digit_map

# The benchmark wraps its own calls into arith; nothing is patched.
SPAN_OPS = True
PATCH = False


def prepare(seed: int) -> list[dict]:
    """Builds the package objects for one pass (untimed)."""
    from perfectoid.arith import FieldConfig, TiltElement, UntiltElement
    classes = {"untilt": UntiltElement, "tilt": TiltElement}
    configs = {}
    items = []
    for raw in gen.digits_inputs(seed):
        p, prec, dencap = raw["config"]
        config = configs.setdefault(raw["config"],
                                    FieldConfig(p, prec, dencap))
        cls = classes[raw["kind"]]
        item = {"shape": raw["shape"], "kind": raw["kind"], "cls": cls,
                "config": config}
        for key in ("a", "b", "c", "u", "x"):
            if key in raw:
                item[key] = cls(config, digit_map(p, raw[key]))
        if "raw" in raw:
            item["acc"] = digit_map(p, raw["raw"])
        items.append(item)
    return items


def setup(seed: int) -> dict:
    """Inputs for one pass, warmed by one untimed item of each shape."""
    from common import Runner, Skip
    items = prepare(seed)
    scratch = Runner()
    for shape in {item["shape"]: item for item in items}.values():
        try:
            run_item(shape, scratch)
        except Skip:
            pass
    return {"items": items}


def run_item(item: dict, run) -> None:
    """Runs one item's operations through ``run.op`` and checks them."""
    from perfectoid.arith import (divide_exact, element_from_json,
                                  invert_unit, lift_mod_uniformizer,
                                  reduce_mod_uniformizer)
    kind, shape = item["kind"], item["shape"]
    add, mul = f"arith.{kind}.add", f"arith.{kind}.mul"
    op = run.op
    if shape == "new":
        x = op(f"arith.{kind}.new", item["cls"], item["config"], item["acc"])
        run.check("normalize", checks.check_normalized, x, item["acc"])
    elif shape == "axioms":
        a, b, c = item["a"], item["b"], item["c"]
        r = {"a+b": op(add, operator.add, a, b),
             "b+a": op(add, operator.add, b, a),
             "b+c": op(add, operator.add, b, c),
             "ab": op(mul, operator.mul, a, b),
             "ba": op(mul, operator.mul, b, a),
             "bc": op(mul, operator.mul, b, c),
             "ac": op(mul, operator.mul, a, c)}
        r["(a+b)+c"] = op(add, operator.add, r["a+b"], c)
        r["a+(b+c)"] = op(add, operator.add, a, r["b+c"])
        r["(ab)c"] = op(mul, operator.mul, r["ab"], c)
        r["a(bc)"] = op(mul, operator.mul, a, r["bc"])
        r["a(b+c)"] = op(mul, operator.mul, a, r["b+c"])
        r["ab+ac"] = op(add, operator.add, r["ab"], r["ac"])
        same = {pair: op("arith.eq", operator.eq, r[pair[0]], r[pair[1]])
                for pair in checks.AXIOM_PAIRS}
        run.check("ring axioms", checks.check_ring_axioms, a, b, c, r, same)
    elif shape == "invert":
        u = item["u"]
        inv = op("arith.invert_unit", invert_unit, u)
        product = op(mul, operator.mul, inv, u)
        one = item["cls"].one(u.config, product.precexp)
        same = op("arith.eq", operator.eq, product, one)
        run.check("inverse", checks.check_inverse, u, inv, product, same)
    elif shape == "divide":
        a, b = item["a"], item["b"]
        ab = op(mul, operator.mul, a, b)
        q = op("arith.divide_exact", divide_exact, ab, b)
        run.check("quotient", checks.check_quotient, a, q)
    elif shape == "valuation":
        x = item["x"]
        v = op("arith.valuation", x.valuation)
        run.check("valuation", checks.check_valuation, x, v)
    elif shape == "json":
        x = item["x"]
        doc = op("arith.to_json", x.to_json)
        y = op("arith.element_from_json", element_from_json, doc)
        same = op("arith.eq", operator.eq, y, x)
        run.check("json", checks.check_json_round_trip, x, doc, y, same)
    elif shape == "frobenius":
        x = item["x"]
        f = op("arith.frobenius", x.frobenius)
        r = op("arith.pth_root", f.pth_root)
        run.check("frobenius", checks.check_frobenius, x, f, r)
    elif shape == "reduce":
        x = item["x"]
        r = op("arith.reduce_mod_uniformizer", reduce_mod_uniformizer, x)
        lifted = op("arith.lift_mod_uniformizer", lift_mod_uniformizer, r)
        again = op("arith.reduce_mod_uniformizer", reduce_mod_uniformizer,
                   lifted)
        run.check("reduce/lift", checks.check_reduce_lift, x, r, lifted,
                  again)
    else:
        raise ValueError(f"unknown digits item {shape!r}")
