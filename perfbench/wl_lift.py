"""The ``lift`` workload: the maps between the two rings.

``sharp`` on sparse inputs at deep lattices (numpy int64 convolution)
and at (2, 32, 6) (Python big-int convolution), Witt addition and
multiplication with ``theta``, Teichmuller lifts, Newton polygons,
coefficient transfer and its stage agreement, and the three root
finders.  Calls go through the module attributes, so the span wrappers
of a traced run see them and the calls the maps make between layers.
"""

from __future__ import annotations

from fractions import Fraction

import checks
import gen
from common import digit_map

# Spans come from the namespace wrappers, which also see the calls the
# maps make into other layers (theta -> sharp -> untilt_power_pn).
SPAN_OPS = False
PATCH = True

# Share of a pass spent in numpy, mostly untilt_power_pn's int64
# convolution (traced runs), for the host-speed calibration.
NUMPY_SHARE = 0.5


def prepare(seed: int) -> list[dict]:
    """Builds the package objects for one pass (untimed)."""
    from perfectoid.arith import FieldConfig, TiltElement, UntiltElement
    from perfectoid.polyroots import Polynomial
    from perfectoid.tiltkit import WittVector
    configs: dict = {}

    def config_of(triple):
        return configs.setdefault(triple, FieldConfig(*triple))

    items = []
    for raw in gen.lift_inputs(seed):
        config = config_of(raw["config"])
        p = config.p
        item = dict(raw, config=config)
        shape = raw["shape"]
        if shape == "sharp_t":
            item["x"] = TiltElement.uniformizer(config)
        elif shape == "sharp_mul":
            x = TiltElement(config, digit_map(p, raw["x"]))
            y = TiltElement(config, digit_map(p, raw["y"]))
            item.update(x=x, y=y, xy=x * y)
        elif shape == "witt":
            item["a"] = WittVector(config, [TiltElement(config, digit_map(p, c))
                                            for c in raw["a"]])
            item["b"] = WittVector(config, [TiltElement(config, digit_map(p, c))
                                            for c in raw["b"]])
        elif shape == "teichmuller":
            x = TiltElement(config, digit_map(p, raw["x"]))
            item.update(x=x, w=WittVector.teichmuller(x, raw["length"]))
        elif shape in ("transfer", "agreement"):
            item["poly"] = Polynomial([TiltElement(config, digit_map(p, c))
                                       for c in raw["coeffs"]])
        elif shape == "charp":
            r = TiltElement(config, digit_map(p, raw["r"]))
            s = TiltElement(config, digit_map(p, raw["s"]))
            one = TiltElement.one(config)
            item["poly"] = Polynomial([r * s, -(r + s), one])
        elif shape == "mixed":
            zero = UntiltElement.zero(config)
            if raw["constant"] == "p":
                const = -UntiltElement.uniformizer(config)
            else:
                const = -UntiltElement.from_int(config, raw["constant"])
            item["poly"] = Polynomial([const] + [zero] * (raw["degree"] - 1)
                                      + [UntiltElement.one(config)])
        items.append(item)
    return items


def witt_keys(items) -> list[tuple]:
    """(config, op, length) of every Witt table the pass uses."""
    return sorted({(item["config"], op, item["length"]) for item in items
                   if item["shape"] in ("witt", "teichmuller")
                   for op in ("add", "mul")},
                  key=lambda key: (key[0].p, key[1], key[2]))


def warm_witt_tables(keys) -> dict:
    """Builds the Witt tables for (config, op, length) keys through the
    public entry points; returns the cold time of each first call."""
    import time

    from perfectoid import tiltkit
    cold = {}
    for config, op, length in keys:
        zero = tiltkit.WittVector.zero(config, length)
        fn = tiltkit.witt_add if op == "add" else tiltkit.witt_mul
        start = time.perf_counter()
        fn(zero, zero)
        cold[(config.p, op, length)] = time.perf_counter() - start
    return cold


def setup(seed: int) -> dict:
    """Inputs for one pass, every Witt table built, and one untimed item
    of each shape."""
    from common import Runner, Skip
    items = prepare(seed)
    cold = warm_witt_tables(witt_keys(items))
    scratch = Runner()
    for shape in {item["shape"]: item for item in items}.values():
        try:
            run_item(shape, scratch)
        except Skip:
            pass
    return {"items": items, "witt_cold": cold}


def run_item(item: dict, run) -> None:
    """Runs one item's operations through ``run.op`` and checks them."""
    from perfectoid import polyroots, tiltkit
    from perfectoid.arith import UntiltElement
    shape, config = item["shape"], item["config"]
    op = run.op
    if shape == "sharp_t":
        value = op("tiltkit.sharp", tiltkit.sharp, item["x"], item["k"])
        run.check("sharp(t) == p", checks.check_sharp_uniformizer, value,
                  item["k"])
    elif shape == "sharp_mul":
        k = item["k"]
        sx = op("tiltkit.sharp", tiltkit.sharp, item["x"], k)
        sy = op("tiltkit.sharp", tiltkit.sharp, item["y"], k)
        sxy = op("tiltkit.sharp", tiltkit.sharp, item["xy"], k)
        p, prec = config.p, config.prec
        upto = checks.sharp_certified(prec, p, k - 1, k)
        run.overclaimed += 3 * (upto < k)
        run.check("sharp multiplicative", checks.check_sharp_mul, sx, sy, sxy,
                  upto)
    elif shape == "sharp_const":
        value = op("tiltkit.sharp_const", tiltkit.sharp_const, config,
                   item["c"])
        run.check("teichmuller constant", checks.check_sharp_const, value,
                  item["c"], config.p)
    elif shape == "witt":
        a, b = item["a"], item["b"]
        total = op("tiltkit.witt_add", tiltkit.witt_add, a, b)
        product = op("tiltkit.witt_mul", tiltkit.witt_mul, a, b)
        ta = op("tiltkit.theta", tiltkit.theta, a)
        tb = op("tiltkit.theta", tiltkit.theta, b)
        tsum = op("tiltkit.theta", tiltkit.theta, total)
        tprod = op("tiltkit.theta", tiltkit.theta, product)
        upto = min(checks.theta_certified(w) for w in (a, b, total, product))
        run.overclaimed += 4 * (upto < item["length"])
        run.check("theta homomorphism", checks.check_theta, ta, tb, tsum,
                  tprod, item["length"], upto)
    elif shape == "teichmuller":
        value = op("tiltkit.theta", tiltkit.theta, item["w"])
        lifted = op("tiltkit.sharp", tiltkit.sharp, item["x"],
                    item["length"])
        upto = checks.theta_certified(item["w"])
        run.overclaimed += 2 * (upto < item["length"])
        run.check("theta([x]) == sharp(x)", checks.check_teichmuller, value,
                  lifted, upto)
    elif shape == "transfer":
        poly = item["poly"]
        polygon = op("polyroots.newton_polygon", polyroots.newton_polygon,
                     poly)
        moved = op("polyroots.fw_transfer", polyroots.fw_transfer, poly, 0)
        moved_polygon = op("polyroots.newton_polygon",
                           polyroots.newton_polygon, moved)
        run.check("newton polygon", checks.check_newton, poly, polygon)
        run.check("transfer keeps slopes", checks.check_transfer, polygon,
                  moved_polygon)
    elif shape == "agreement":
        levels = [op("polyroots.transfer_agreement",
                     polyroots.transfer_agreement, item["poly"], n)
                  for n in item["stages"]]
        run.check("stage agreement", checks.check_agreement, levels)
    elif shape == "charp":
        poly = item["poly"]
        root = op("polyroots.charp_root", polyroots.charp_root, poly)
        # (X - r)(X - s) has a root on the lattice: None is a miss
        run.check("charp root found", checks.check_found, root)
        if root is not None:
            run.check("charp residual", checks.check_root, poly, root,
                      root.precexp.as_fraction())
    elif shape == "mixed":
        poly = item["poly"]
        root = op("polyroots.mixed_root_refine", polyroots.mixed_root_refine,
                  poly)
        run.check("mixed residual", checks.check_root, poly, root,
                  config.prec)
        if item["constant"] != "p":
            start = UntiltElement.from_int(config,
                                           root.digit_at(Fraction(0)))
            other = op("polyroots.hensel_root", polyroots.hensel_root, poly,
                       start)
            run.check("hensel agrees", checks.check_hensel, root, other)
    else:
        raise ValueError(f"unknown lift item {shape!r}")
