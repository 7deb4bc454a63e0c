"""Shared pieces of the benchmark: statistics, correctness bookkeeping,
the span tracer and the namespace patching that feeds it.

The benchmark never edits the package.  Traced runs replace functions
bound in the package's module namespaces with span-recording wrappers
for the duration of a ``patched()`` block and put the originals back
afterwards.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# The package's modules, one layer each.
LAYERS = ("arith", "tiltkit", "polyroots", "tatealg", "adicdisc", "toric",
          "suite", "cli")

# Functions wrapped in traced runs, by layer.  Every module of the package
# that binds one of these names gets the wrapper in its namespace, so calls
# between layers are attributed to the callee.
TRACED_FUNCTIONS = {
    "arith": ("invert_unit", "divide_exact", "reduce_mod_uniformizer",
              "lift_mod_uniformizer", "element_from_json"),
    "tiltkit": ("sharp", "untilt_power_pn", "sharp_const", "witt_add",
                "witt_mul", "theta"),
    "polyroots": ("newton_polygon", "fw_transfer", "transfer_agreement",
                  "charp_root", "hensel_root", "mixed_root_refine"),
    "tatealg": ("approximate", "verify_contract"),
    "adicdisc": ("eval_at", "specializes", "tilt_point_check"),
    "toric": ("sections", "dual_cone", "is_smooth", "is_complete",
              "hypersurface_transfer"),
}

# tiltkit.untilt_power_pn convolves on numpy int64 while this bound holds
# and falls back to Python integers otherwise.
INT64_GUARD = 2 ** 62


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package source)."""


def import_package():
    """Puts the checkout's ``src`` first on the path and checks that the
    package really comes from there, not from an installed copy."""
    if not (SRC / "perfectoid" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import perfectoid
    where = Path(perfectoid.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"perfectoid imported from {where}, not {SRC}")
    return perfectoid


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# =====================================================================
# Statistics
# =====================================================================

def _rank(q: int, n: int) -> int:
    return -(-q * n // 1000) - 1     # nearest rank of q/1000: ceil(q n) - 1


def tail(values, per_pass: int | None = None):
    """The highest of p99.9, p99, p95, p90, p75 and p50 with at least
    ten samples beyond it in one pass of ``per_pass`` samples (all of
    them by default), as (value over all samples, label, samples beyond
    in one pass).  Fixing the percentile by the pass keeps it the same
    whatever number of passes a run makes.  With under 20 samples per
    pass none qualifies and the maximum is used."""
    ordered = sorted(values)
    basis = per_pass or len(ordered)
    for q, label in ((999, "p99.9"), (990, "p99"), (950, "p95"),
                     (900, "p90"), (750, "p75"), (500, "p50")):
        beyond = basis - _rank(q, basis) - 1
        if beyond >= 10:
            return ordered[_rank(q, len(ordered))], label, beyond
    return ordered[-1], "max", 0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# =====================================================================
# Host speed
# =====================================================================

# The speed of a CPU of a shared machine drifts by a quarter or more over
# minutes, which would swamp the differences the benchmark exists to
# show.  Fixed calibration work is timed between operations, and
# end-to-end times are scaled to the speed at which it takes its
# reference time (its median on a 2-core Xeon VM at 2.0 GHz with Python
# 3.11 and numpy 2.4).  Raw wall times are printed beside them.  The
# work is a pure-Python loop and, for a workload that spends a share of
# its time in numpy, a numpy convolution in that share: numpy code drifts
# about half as much again as interpreted code on such a machine.
CALIBRATION_ITERATIONS = 10_000
REFERENCE_S = 1.2e-3
CONVOLVE_LENGTH = 1024
REFERENCE_CONVOLVE_S = 1.2e-3


def _calibration_loop():
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
    return acc


class HostSpeed:
    """Reference time over current time of the calibration work: a time
    measured now, multiplied by ``factor()``, is that time at the
    reference speed.

    ``numpy_share`` is the share of the work given to the convolution.
    The current time is the median of the last ``window`` timings; a
    timing is added when ``interval`` seconds have passed since the
    last.  After a gap of a second or more (a long operation) the window
    restarts from five fresh timings.
    """

    def __init__(self, interval: float = 0.1, window: int = 15,
                 numpy_share: float = 0.0):
        self.interval = interval
        self.numpy_share = numpy_share
        if numpy_share:
            import numpy
            self._vector = numpy.arange(CONVOLVE_LENGTH,
                                        dtype=numpy.int64) * 7919 % 6561
            self._convolve = numpy.convolve
        self.samples: deque = deque(maxlen=window)
        self.factors = array("d")
        self._last = 0.0
        for _ in range(window):
            self._sample()

    def _sample(self):
        """Adds one timing, as a multiple of the reference time."""
        start = time.perf_counter()
        _calibration_loop()
        middle = time.perf_counter()
        relative = (middle - start) / REFERENCE_S
        if self.numpy_share:
            self._convolve(self._vector, self._vector)
            self._last = time.perf_counter()
            relative += self.numpy_share * (
                (self._last - middle) / REFERENCE_CONVOLVE_S - relative)
        else:
            self._last = middle
        self.samples.append(relative)

    def factor(self) -> float:
        gap = time.perf_counter() - self._last
        if gap >= 1.0:
            self.samples.clear()
        for _ in range(5 if gap >= 1.0 else 1 if gap >= self.interval
                       else 0):
            self._sample()
        value = 1.0 / statistics.median(self.samples)
        self.factors.append(value)
        return value


class WrongResult(AssertionError):
    """A checked result disagrees with what the benchmark expects."""


def digit_map(p: int, pairs) -> dict:
    """Generated ((numerator, denominator power), digit) pairs as the
    {Fraction exponent: digit} map the element constructors take."""
    return {Fraction(num, p ** d): c for (num, d), c in pairs}


# =====================================================================
# Tracing
# =====================================================================

class Tracer:
    """Spans in memory: (name, start, end, parent index, op id)."""

    def __init__(self):
        from perfectoid.arith import KernelError
        self._kernel_error = KernelError
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._kernel_error as exc:
            # a typed refusal counts once, at the innermost span it leaves
            if not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                self.counters[f"{name}.refused"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def summary(self) -> dict:
        """Per-function calls/busy_s and per-layer busy_s/self_s.

        busy time counts only spans with no ancestor of the same name
        (for a function) or layer (for a layer), so recursion and calls
        inside a layer are not counted twice.  Self time is a span's
        duration minus the durations of its direct children, which in a
        single thread never overlap.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            own = duration - child_time[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{layer}.self_s"] += own
            same_fn = same_layer = False
            j = parent
            while j >= 0:
                other = spans[j][0]
                same_fn = same_fn or other == name
                same_layer = same_layer or other.split(".", 1)[0] == layer
                j = spans[j][3]
            if not same_fn:
                out[f"{name}.busy_s"] += duration
            if not same_layer:
                out[f"{layer}.busy_s"] += duration
        for key, count in self.counters.items():
            out[key] += count
        return dict(out)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - origin, 7), round(e - origin, 7), p, o]
                for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "op"], "spans": rows}, handle,
                      separators=(",", ":"))


def _power_pn_path(x) -> str:
    config = x.config
    p = config.p
    m = max((e.denpow for e in x.digits), default=0)
    big = p ** m * (p ** config.prec - 1) ** 2 * (p + 1) >= INT64_GUARD
    return "bigint" if big else "int64"


def _wrapper(tracer: Tracer, layer: str, fname: str, original):
    name = f"{layer}.{fname}"
    if fname == "untilt_power_pn":
        def traced(x, n, *args, **kwargs):
            return tracer.call(f"{name}.{_power_pn_path(x)}", original,
                               x, n, *args, **kwargs)
    elif fname == "charp_root":
        def traced(*args, **kwargs):
            root = tracer.call(name, original, *args, **kwargs)
            tracer.counters["polyroots.charp_root.found"] += root is not None
            return root
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Installs span wrappers in every package module namespace."""
    import importlib
    modules = [importlib.import_module(f"perfectoid.{m}") for m in LAYERS]
    saved = []
    for layer, names in TRACED_FUNCTIONS.items():
        home = importlib.import_module(f"perfectoid.{layer}")
        for fname in names:
            original = getattr(home, fname)
            wrapper = _wrapper(tracer, layer, fname, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    saved.append((module, fname, original))
                    setattr(module, fname, wrapper)
    try:
        yield tracer
    finally:
        for module, fname, original in saved:
            setattr(module, fname, original)


def layer_metrics(tracer: Tracer) -> dict:
    """The tracer summary with the derived per-layer ratios added."""
    out = tracer.summary()
    calls = out.get("polyroots.charp_root.calls", 0)
    found = out.pop("polyroots.charp_root.found", 0)
    if calls:
        out["polyroots.charp_root.found_ratio"] = found / calls
    refused = Counter()
    for key, value in list(out.items()):
        if key.endswith(".refused") and key.count(".") >= 2:
            refused[key.split(".", 1)[0] + ".refused"] += value
    out.update(refused)
    return out


# =====================================================================
# Timed operations
# =====================================================================

class Skip(Exception):
    """An item stopped early: an operation raised, already counted."""


class Runner:
    """Times single operations of a closed loop and counts outcomes:
    operations attempted, and failed ones: wrong results and every
    exception, typed ``KernelError`` refusals included, because every
    generated input is built so that its operations succeed.

    ``latencies`` are scaled to the reference host speed, ``raw``,
    ``by_name`` (per operation) and ``by_shape`` (per item shape, with
    ``shape`` set by the caller before each item) are wall times as
    measured.  With a tracer and ``span_ops`` each operation also
    becomes a span named after its layer function; without ``span_ops``
    the spans come from the namespace wrappers installed by ``patched``.
    """

    def __init__(self, tracer: Tracer | None = None, span_ops: bool = True,
                 speed: HostSpeed | None = None):
        from perfectoid.arith import KernelError
        self._kernel_error = KernelError
        self.tracer = tracer
        self.span_ops = span_ops and tracer is not None
        self.speed = speed or HostSpeed()
        # arrays of doubles: 8 bytes a timing, so the memory a run adds
        # while it times, which peak_rss_mb sees, hardly depends on how
        # many passes fit the run
        self.latencies = array("d")
        self.raw = array("d")
        self.by_name: dict[str, array] = defaultdict(lambda: array("d"))
        self.shape: str | None = None
        self.by_shape: dict[str, array] = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []     # the first few, for the report
        self.digits_out = 0
        # peak resident set of the child processes that ``op`` ran
        # (set by the cli workload), in KiB
        self.child_peak_kib = 0
        # results whose returned precision exceeds the precision their
        # inputs certify (sharp and theta); compared at the certified one
        self.overclaimed = 0

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        scale = self.speed.factor()
        start = time.perf_counter()
        try:
            if self.span_ops:
                result = self.tracer.call(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except self._kernel_error as exc:
            self.fail(f"{name} refused an input built to succeed: "
                      f"{type(exc).__name__}: {exc}")
            raise Skip(name)
        except Exception as exc:  # noqa: BLE001 - counted, item skipped
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            raise Skip(name)
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            # the speed can drift during a long operation: average the
            # readings taken before and after it
            scale = (scale + self.speed.factor()) / 2
        self.latencies.append(elapsed * scale)
        self.raw.append(elapsed)
        self.by_name[name].append(elapsed)
        if self.shape is not None:
            self.by_shape[self.shape].append(elapsed)
        digits = getattr(result, "digits", None)
        if name.startswith("arith.") and isinstance(digits, dict):
            self.digits_out += len(digits)
        return result

    def check(self, label: str, fn, *args):
        """Runs a correctness check; any exception marks a failure."""
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - every kind is a failure
            self.fail(f"{label}: {type(exc).__name__}: {exc}")

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what[:300])

    def absorb(self, other: "Runner"):
        """Adds another runner's outcome counts to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[:5 - len(self.failures)]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
