"""The ``battery`` workload: ``suite.run_check(name, seed)`` for all eight
acceptance checks, the mix the acceptance gate runs, and the only one in
which ``tatealg``, ``adicdisc`` and ``toric`` do real work."""

from __future__ import annotations

import checks
import wl_lift

# Spans come from the namespace wrappers, plus one span per check.
SPAN_OPS = True
PATCH = True

# Witt tables the ``witt-theta`` check uses: (p, op, length).
WITT_TABLES = ((2, "add", 3), (2, "mul", 3), (3, "add", 3), (3, "mul", 3))


def setup(seed: int) -> dict:
    from perfectoid import suite
    from perfectoid.arith import FieldConfig
    items = [{"check": name, "seed": seed} for name in suite.check_names()]
    keys = [(FieldConfig(p, 8, 6), op, n) for p, op, n in WITT_TABLES]
    return {"items": items, "witt_cold": wl_lift.warm_witt_tables(keys)}


def run_item(item: dict, run) -> None:
    from perfectoid import suite
    name = item["check"]
    result = run.op(f"suite.{name}", suite.run_check, name, item["seed"])
    run.check(name, checks.check_suite_result, result)
