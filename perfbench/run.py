"""Benchmark of the perfectoid package: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload digits --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload lift,cli --trace 1  # traced subset

Each workload runs one caller in one thread that waits for every result
(a closed loop) for whole passes over its seeded inputs, about
``--seconds`` long, checks every result, and prints its end-to-end
metrics by name and unit.  Several workloads run one after another,
each in a process of its own.  End-to-end times are scaled to a reference
host speed (see ``common.HostSpeed``); raw wall times are printed beside
them.  ``--trace 1`` instead runs every item of each pass twice,
untraced and traced, and prints the per-layer metrics (calls, busy and
self time per pass, in raw seconds) and the tracing overhead; the spans
go to ``.perfbench_out/``.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any result was wrong and 2 when the benchmark
cannot run (for example, without the package source under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import gen  # noqa: E402
import wl_battery  # noqa: E402
import wl_cli  # noqa: E402
import wl_digits  # noqa: E402
import wl_lift  # noqa: E402

MODULES = {"digits": wl_digits, "lift": wl_lift, "battery": wl_battery,
           "cli": wl_cli}

# Which layers should move which end-to-end metric on each workload, and
# which layers should leave it unchanged.  Why each workload exists is in
# BENCHMARK.json.
PREDICTIONS = {
    "digits": {
        "moves": {"arith": ["ops_per_s", "op_p50_ms", "op_tail_ms"],
                  "cli": ["setup_s"]},
        "no_change": ["tiltkit", "polyroots", "tatealg", "adicdisc",
                      "toric"]},
    "lift": {
        "moves": {"tiltkit": ["ops_per_s", "op_tail_ms", "setup_s"],
                  "polyroots": ["ops_per_s"], "cli": ["setup_s"]},
        "no_change": ["tatealg", "adicdisc", "toric"],
        "excluded": {f"witt p={p} length={n}": why
                     for (p, n), why in gen.WITT_EXCLUDED.items()}},
    "battery": {
        "moves": {layer: ["ops_per_s", "op_p50_ms", "op_tail_ms"]
                  for layer in ("arith", "tiltkit", "polyroots", "tatealg",
                                "adicdisc", "toric", "suite")}
        | {"cli": ["setup_s"]},
        "no_change": []},
    "cli": {
        "moves": {"cli": ["ops_per_s", "op_p50_ms", "op_tail_ms",
                          "setup_s"]},
        "no_change": ["arith", "polyroots"]},
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

SUITE_CHECKS = ("ring-axioms", "sharp-map", "witt-theta", "newton-transfer",
                "mixed-roots", "approximation", "adic-disc", "toric")
LAYER_FUNCTIONS = {
    "arith": ("untilt.new", "tilt.new", "untilt.add", "tilt.add",
              "untilt.mul", "tilt.mul", "eq", "valuation", "invert_unit",
              "divide_exact", "reduce_mod_uniformizer",
              "lift_mod_uniformizer", "frobenius", "pth_root", "to_json",
              "element_from_json"),
    "tiltkit": ("sharp", "untilt_power_pn.int64", "untilt_power_pn.bigint",
                "sharp_const", "witt_add", "witt_mul", "theta"),
    **{layer: names for layer, names in common.TRACED_FUNCTIONS.items()
       if layer not in ("arith", "tiltkit")},
}


def _per_layer() -> tuple:
    rows = []
    for layer in common.LAYERS:
        rows += [(f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.self_s", "s", "lower")]
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            rows += [(f"{layer}.{fn}.calls", "count", "lower"),
                     (f"{layer}.{fn}.busy_s", "s", "lower")]
    rows += [("arith.refused", "count", "lower"),
             ("arith.digits_out", "count", "lower"),
             ("tiltkit.witt_table_cold_s", "s", "lower"),
             ("polyroots.charp_root.found_ratio", "share", "higher"),
             ("polyroots.refused", "count", "lower"),
             ("adicdisc.eval_at.refused", "count", "lower")]
    for check in SUITE_CHECKS:
        rows += [(f"suite.{check}.busy_s", "s", "lower"),
                 (f"suite.{check}.self_s", "s", "lower")]
    rows += [(name, "s", "lower") for name in
             ("cli.python_s", "cli.import_s", "cli.import.sympy_s",
              "cli.import.numpy_s", "cli.import.click_s")]
    rows.append(("trace.overhead_share", "share", "lower"))
    return tuple(rows)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
UNITS_E2E = {name for name, _, _ in END_TO_END}

# Set-ups per run: this process's own and the rest in fresh processes;
# the reported value is their median.  lift's set-up builds Witt tables
# for about 4 s, so it takes fewer.
SETUP_SAMPLES = {"lift": 3}
SETUP_SAMPLES_DEFAULT = 5


# =====================================================================
# Set-up
# =====================================================================

def setup(name: str, seed: int) -> tuple[dict, float]:
    """Import, input generation and warm-up, timed together and scaled
    to the reference host speed read just before and just after."""
    before = common.HostSpeed().factor()
    start = time.perf_counter()
    common.import_package()
    state = MODULES[name].setup(seed)
    elapsed = time.perf_counter() - start
    after = common.HostSpeed().factor()
    return state, elapsed * (before + after) / 2


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise common.BenchError(f"set-up of {name} failed in a child "
                                f"process: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# =====================================================================
# Measurement
# =====================================================================

def host_speed(module) -> common.HostSpeed:
    return common.HostSpeed(numpy_share=getattr(module, "NUMPY_SHARE", 0.0))


def run_one(module, item, run) -> None:
    try:
        module.run_item(item, run)
    except common.Skip:
        pass


def measure(module, items, seconds: float) -> dict:
    """Whole passes over the items, as many as fit ``seconds`` best (at
    least one), so every run times the same mix of operations."""
    run = common.Runner(speed=host_speed(module))
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for item in items:
            run.shape = item.get("shape")
            run_one(module, item, run)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    # read before the statistics, whose sorted copies are not the
    # workload's
    return {"run": run, "passes": passes, "wall_s": now - start,
            "peak_rss_mb": common.peak_rss_mb()}


def measure_traced(module, items, seconds: float) -> dict:
    """Whole passes as in ``measure``, each item run untraced and then
    traced, so the difference is the tracing overhead."""
    tracer = common.Tracer()
    plain = common.Runner(speed=host_speed(module))
    traced = common.Runner(tracer, span_ops=module.SPAN_OPS,
                           speed=plain.speed)
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, item in enumerate(items):
            tracer.op_id = passes * len(items) + i
            plain.shape = traced.shape = item.get("shape")
            run_one(module, item, plain)
            with common.patched(tracer) if module.PATCH else nullcontext():
                run_one(module, item, traced)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    return {"run": plain, "traced": traced, "tracer": tracer,
            "passes": passes, "wall_s": time.perf_counter() - start}


def op_tail(result: dict):
    lat = result["run"].latencies
    return common.tail(lat, len(lat) // result["passes"])


def end_to_end(name: str, result: dict, setup_s: float) -> dict:
    """The end-to-end metrics.  peak_rss_mb is that of this process,
    which runs one workload only, at the end of the timed passes, or for
    cli the largest of the command processes."""
    run = result["run"]
    lat = run.latencies
    tail_value, _, _ = op_tail(result)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": (run.child_peak_kib / 1024.0 if name == "cli"
                        else result["peak_rss_mb"]),
    }


def per_layer(result: dict, extra: dict) -> dict:
    """Per-pass layer metrics of a traced run; absent layers read 0."""
    passes = result["passes"]
    traced = result["traced"]
    summary = common.layer_metrics(result["tracer"])
    summary["arith.digits_out"] = traced.digits_out
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
        elif metric.endswith("found_ratio"):
            out[metric] = summary.get(metric, 0.0)
        else:
            out[metric] = summary.get(metric, 0) / passes
    plain = sum(result["run"].latencies)
    out["trace.overhead_share"] = (sum(traced.latencies) - plain) / plain
    return out


def describe(name: str, result: dict, metrics: dict) -> list[str]:
    """Human-readable lines: the metrics, raw wall times and the
    workload-specific totals (battery_s, cli_start_s, cli_cmd_p50_s)."""
    run = result["run"]
    lat = run.raw
    _, label, beyond = op_tail(result)
    factor = statistics.median(run.speed.factors)
    lines = [f"{name}: {run.attempted} ops in {result['passes']} "
             f"passes, {result['wall_s']:.2f} s, closed loop, 1 thread",
             f"  times are scaled to the reference host speed: this run's "
             f"host ran at {factor:.3f} of it; raw wall times:",
             f"  {'raw ops_per_s':44s} {len(lat) / sum(lat):14.6g} 1/s",
             f"  {'raw op_p50_ms':44s} {statistics.median(lat) * 1e3:14.6g} ms"]
    for metric, value in metrics.items():
        if value or metric in UNITS_E2E:   # layers this workload never calls
            lines.append(f"  {metric:44s} {value:14.6g} {UNITS[metric]}")
    if "op_tail_ms" in metrics:
        lines.append(f"  op_tail_ms is {label} of {len(lat)} samples "
                     f"({beyond} beyond it in each pass)")
    lines.append(f"  {'error_rate':44s} {run.error_rate:14.6g} share")
    by_name = run.by_name
    if name == "battery":
        lines.append(f"  {'battery_s':44s} "
                     f"{sum(lat) / result['passes']:14.6g} s")
        for check, xs in by_name.items():
            lines.append(f"  {check + '.wall_s':44s} "
                         f"{statistics.median(xs):14.6g} s")
    if name == "cli":
        commands = [x for label_, xs in by_name.items()
                    if label_ != "cli.help" for x in xs]
        lines.append(f"  {'cli_start_s':44s} "
                     f"{statistics.median(by_name['cli.help']):14.6g} s")
        lines.append(f"  {'cli_cmd_p50_s':44s} "
                     f"{statistics.median(commands):14.6g} s")
    passes = result["passes"]
    if run.by_shape:
        lines.append("  raw time by item shape (each shape's mix is "
                     "weighed by gen.SUITE_PROFILE):")
        for shape, xs in sorted(run.by_shape.items()):
            lines.append(f"    shape {shape:30s} {sum(xs) / passes * 1e3:10.4g}"
                         f" ms a pass in {len(xs) // passes:5d} ops")
        lines.append("  raw latency by operation:")
        for label_, xs in sorted(by_name.items()):
            lines.append(f"    {label_:36s} median "
                         f"{statistics.median(xs) * 1e6:10.4g} us, "
                         f"{len(xs) // passes:5d} a pass")
    if run.overclaimed:
        lines.append(f"  results whose returned precision exceeds what "
                     f"their inputs certify: {run.overclaimed} (compared "
                     f"at the certified precision)")
    for failure in run.failures:
        lines.append(f"  WRONG: {failure}")
    if "traced" in result:
        for label_, xs in sorted(result["traced"].by_name.items()):
            if label_.startswith("cli."):
                lines.append(f"  {label_ + '.wall_s':44s} "
                             f"{sum(xs) / result['passes']:14.6g} s")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    module = MODULES[name]
    state, own_setup = setup(name, seed)
    samples = [own_setup]
    while len(samples) < SETUP_SAMPLES.get(name, SETUP_SAMPLES_DEFAULT):
        samples.append(setup_in_child(name, seed))
    setup_s = statistics.median(samples)
    items = state["items"]
    if trace:
        result = measure_traced(module, items, seconds)
        extra = wl_cli.import_breakdown()
        cold = state.get("witt_cold", {})
        extra["tiltkit.witt_table_cold_s"] = float(sum(cold.values()))
        metrics = per_layer(result, extra)
        common.OUT_DIR.mkdir(exist_ok=True)
        result["tracer"].write(common.OUT_DIR / f"{name}-{seed}-spans.json")
    else:
        result = measure(module, items, seconds)
        metrics = end_to_end(name, result, setup_s)
    if hasattr(module, "teardown"):
        module.teardown()
    if trace:
        result["run"].absorb(result["traced"])
    return {"metrics": metrics, "run": result["run"],
            "lines": describe(name, result, metrics),
            "items": len(items), "setup_samples_s": samples,
            "shapes": dict(Counter(item["shape"] for item in items
                                   if "shape" in item))}


# =====================================================================
# Header and entry point
# =====================================================================

def header(seed: int, seconds: float, trace: bool, results: dict) -> dict:
    from importlib import metadata
    versions = {}
    for package in ("numpy", "sympy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    revision = "unknown"
    if (common.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "versions": versions,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {
            name: {"items_per_pass": r["items"],
                   "items_by_shape": r["shapes"],
                   "ops_attempted": r["run"].attempted,
                   "setup_samples_s": r["setup_samples_s"],
                   **PREDICTIONS[name]}
            for name, r in results.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma-separated list, or all: "
                             + ", ".join(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = (list(MODULES) if args.workload == "all"
             else [n.strip() for n in args.workload.split(",") if n.strip()])
    unknown = [n for n in names if n not in MODULES]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; expected "
                     f"{', '.join(MODULES)} or all")
    return args, names


def run_each(names, args) -> int:
    """Runs every named workload in a process of its own, so each
    peak_rss_mb is its workload's alone; prints their lines and one
    result with the metrics named <workload>.<metric>."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args, names = parse_args(argv)
    if len(names) > 1 and not args.setup_only:
        return run_each(names, args)
    name = names[0]
    try:
        if args.setup_only:
            _, elapsed = setup(name, args.seed)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        r = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(r["lines"]))
    print("header " + json.dumps(header(args.seed, args.seconds,
                                        bool(args.trace), {name: r})))
    failed = r["run"].failed
    metrics = {metric: {"value": value, "unit": UNITS[metric]}
               for metric, value in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": r["run"].attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
