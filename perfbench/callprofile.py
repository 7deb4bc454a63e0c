"""The call profile of the package's own caller, from which the
``digits`` and ``lift`` workloads take their operation mix.

The acceptance suite (``suite.run_check`` over every check) is the only
caller of the kernel layers inside the package.  This script runs it
once at a seed with counting wrappers installed and prints, as JSON,
how often each benchmarked operation was called from outside its layer:

* ``arith``: calls into the digit kernel from any other layer, by
  operation and ring kind (calls that arith makes to itself are not
  counted, so ``new`` is a construction by a caller, not an internal
  result);
* ``maps``: calls into ``tiltkit`` and ``polyroots`` from any other
  layer (``theta`` calling ``sharp`` is not counted).

Run from the root of a checkout (about a minute):

    python3 perfbench/callprofile.py            # the suite's default seed

``gen.SUITE_PROFILE`` holds its output; ``gen.shape_counts`` turns it
into the number of items of each shape in one pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

ARITH_METHODS = {"__init__": "new", "__add__": "add", "__sub__": "add",
                 "__neg__": "add", "__rsub__": "add", "__mul__": "mul",
                 "__pow__": "mul", "__eq__": "eq", "valuation": "valuation",
                 "to_json": "to_json"}
TILT_METHODS = {"frobenius": "frobenius", "pth_root": "pth_root"}
ARITH_FUNCTIONS = ("invert_unit", "divide_exact", "reduce_mod_uniformizer",
                   "lift_mod_uniformizer", "element_from_json")
MAP_FUNCTIONS = {"tiltkit": ("sharp", "sharp_const", "witt_add", "witt_mul",
                             "theta"),
                 "polyroots": ("newton_polygon", "fw_transfer",
                               "transfer_agreement", "charp_root",
                               "hensel_root", "mixed_root_refine")}


class Counting:
    """Counts the outermost call of each group (arith, maps)."""

    def __init__(self):
        self.counts = {"arith": Counter(), "maps": Counter()}
        self.depth = {"arith": 0, "maps": 0}

    def wrap(self, group, label, fn, by_kind=False):
        def counted(*args, **kwargs):
            if self.depth[group] == 0:
                key = label
                if by_kind:
                    key = f"{args[0].kind}.{label}"
                self.counts[group][key] += 1
            self.depth[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth[group] -= 1
        return counted


def install(counting: Counting) -> list:
    """Installs the counting wrappers; returns what to restore."""
    from perfectoid import arith
    saved = []
    for cls, methods in ((arith._DigitElement, ARITH_METHODS),
                         (arith.TiltElement, TILT_METHODS)):
        for name, label in methods.items():
            original = cls.__dict__[name]
            saved.append((cls, name, original))
            setattr(cls, name, counting.wrap("arith", label, original,
                                             by_kind=label in ("new", "add",
                                                               "mul")))
    modules = [importlib.import_module(f"perfectoid.{m}")
               for m in common.LAYERS]
    functions = [("arith", "arith", f) for f in ARITH_FUNCTIONS]
    functions += [("maps", layer, f) for layer, names in MAP_FUNCTIONS.items()
                  for f in names]
    for group, layer, fname in functions:
        original = getattr(importlib.import_module(f"perfectoid.{layer}"),
                           fname)
        wrapper = counting.wrap(group, fname, original)
        for module in modules:
            if getattr(module, fname, None) is original:
                saved.append((module, fname, original))
                setattr(module, fname, wrapper)
    return saved


def profile(seed: int) -> dict:
    common.import_package()
    from perfectoid import suite
    counting = Counting()
    saved = install(counting)
    try:
        passed = all(suite.run_check(name, seed).passed
                     for name in suite.check_names())
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    return {"seed": seed, "suite_passed": passed,
            **{group: dict(sorted(c.items()))
               for group, c in counting.counts.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    common.import_package()
    from perfectoid import suite
    seed = suite.DEFAULT_SEED if args.seed is None else args.seed
    print(json.dumps(profile(seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
