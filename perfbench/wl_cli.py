"""The ``cli`` workload: the README command set, one fresh
``python -m perfectoid.cli`` process per command, on bundled fixtures.

Includes the two documented domain errors (exit 1) and a ``witt``
command that builds Witt tables.  The full ``suite`` command is left to
the ``battery`` workload.  Expected stdout comes from the same library
call made in-process and rendered with ``cli.dumps``.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks
import common

SPAN_OPS = True
PATCH = False

GAUSS = '{"type":"gauss"}'

# (label, arguments, exit code, error type on exit 1)
COMMANDS = (
    ("help", ["--help"], 0, None),
    ("sharp", ["sharp", "--prec", "4", "t.json"], 0, None),
    ("newton", ["newton", "x2-p.json"], 0, None),
    ("root", ["root", "x2-p.json"], 1, "RootError"),
    ("approx", ["approx", "linear-form.json", "--c", "1", "--eps", "1/3"],
     0, None),
    ("disc-eval", ["disc", "eval", "x2-p.json", "--point", GAUSS], 0, None),
    ("disc-member", ["disc", "member", "subset-t.json", "gauss.json"], 0,
     None),
    ("toric-sections", ["toric", "sections", "pn2.json", "hyperplane.json"],
     0, None),
    ("toric-validate", ["toric", "validate", "broken-pn2.json"], 1,
     "ConeError"),
    ("witt-mul", ["witt", "mul", "witt-t.json", "witt-t.json"], 0, None),
    ("theta", ["theta", "witt-t.json"], 0, None),
)


def _fixture(name):
    return json.loads((common.SRC / "perfectoid" / "fixtures" / name)
                      .read_text(encoding="utf-8"))


def expected_stdout() -> dict:
    """The bytes each successful command prints, from in-process calls."""
    from perfectoid import adicdisc, arith, cli, polyroots, tatealg, tiltkit
    from perfectoid import toric
    poly = polyroots.Polynomial.from_json(_fixture("x2-p.json"))
    witt = tiltkit.WittVector.from_json(_fixture("witt-t.json"))
    value = adicdisc.eval_at(poly, adicdisc.adic_point_from_json(
        json.loads(GAUSS), config=poly.config))
    if isinstance(value, Fraction):
        disc_doc = {"exponent": {"num": value.numerator,
                                 "den": value.denominator}}
    else:
        disc_doc = value.to_json()
    subset = adicdisc.RationalSubset.from_json(_fixture("subset-t.json"))
    fan = toric.Fan.from_json(_fixture("pn2.json"))
    divisor = toric.TWeilDivisor.from_json(fan, _fixture("hyperplane.json"))
    docs = {
        "sharp": tiltkit.sharp(arith.element_from_json(_fixture("t.json")),
                               4).to_json(),
        "newton": polyroots.newton_polygon(poly).to_json(),
        "approx": tatealg.approximate(
            tatealg.HomogeneousElement.from_json(
                _fixture("linear-form.json")),
            Fraction(1), Fraction(1, 3)).to_json(),
        "disc-eval": disc_doc,
        "disc-member": {"member": adicdisc.in_rational_subset(
            adicdisc.adic_point_from_json(_fixture("gauss.json"),
                                          config=subset.config), subset)},
        "toric-sections": [[str(c) for c in point]
                           for point in toric.sections(fan, divisor)],
        "witt-mul": tiltkit.witt_mul(witt, witt).to_json(),
        "theta": tiltkit.theta(witt).to_json(),
    }
    return {label: (cli.dumps(doc) + "\n").encode()
            for label, doc in docs.items()}


# Each command runs this often per pass, so one pass has at least 20
# samples and op_tail_ms is a percentile rather than a single maximum.
REPEATS = 2


def setup(seed: int) -> dict:
    """The command set, each command ``REPEATS`` times in a seeded
    order, with expected outputs."""
    expected = expected_stdout()
    commands = [{"label": label, "args": args, "exit": code, "error": error,
                 "stdout": expected.get(label), "first": None}
                for label, args, code, error in COMMANDS]
    items = commands * REPEATS
    random.Random(seed).shuffle(items)
    return {"items": items}


def run_process(argv, timeout: float = 120, **kwargs) -> tuple:
    """Runs ``argv`` to its end: (exit code, stdout, stderr, peak
    resident set in KiB of that process alone, read through wait4)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


class Launcher:
    """A small process that runs each command line it is given and
    reports its outcome as ``run_process`` does.  A process started by fork or vfork keeps the peak resident
    set of its parent at exec in its own, and the benchmark's process
    holds the whole package; this one holds only the standard library,
    so a command's peak is its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=common.ROOT, env=common.child_env())

    def run(self, argv) -> tuple:
        self.proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["code"], reply["out"].encode("latin-1"),
                reply["err"].encode("latin-1"), reply["kib"])

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=150)
        self.proc.stdout.close()


def serve() -> int:
    """The launcher's loop: one JSON command line in, one outcome out."""
    for line in sys.stdin:
        code, out, err, kib = run_process(json.loads(line))
        print(json.dumps({"code": code, "out": out.decode("latin-1"),
                          "err": err.decode("latin-1"), "kib": kib}),
              flush=True)
    return 0


_launcher: list = []


def teardown() -> None:
    while _launcher:
        _launcher.pop().close()


def run_item(item: dict, run) -> None:
    if not _launcher:
        _launcher.append(Launcher())
    *outcome, peak_kib = run.op(f"cli.{item['label']}", _launcher[0].run,
                                [sys.executable, "-m", "perfectoid.cli",
                                 *item["args"]])
    run.child_peak_kib = max(run.child_peak_kib, peak_kib)
    run.check(item["label"], checks.check_command, item, outcome,
              item["first"])
    if item["first"] is None:
        item["first"] = outcome[1]


# =====================================================================
# Import breakdown
# =====================================================================

# "import time: self | cumulative | <one space><two per level>name"
_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( +)(\S+)$")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of the package and of its heavy
    dependencies, from ``python -X importtime`` output."""
    wanted = {"sympy": "cli.import.sympy_s", "numpy": "cli.import.numpy_s",
              "click": "cli.import.click_s"}
    out = {}
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative, indent, name = (int(match.group(2)), match.group(3),
                                    match.group(4))
        if name in wanted and wanted[name] not in out:
            out[wanted[name]] = cumulative / 1e6
        if name == "perfectoid.cli" and indent == " ":
            out["cli.import_s"] = cumulative / 1e6
    return out


def import_breakdown(repeats: int = 3) -> dict:
    """Median bare-interpreter wall time and import breakdown."""
    bare, rows = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       cwd=common.ROOT)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import perfectoid.cli"], cwd=common.ROOT,
            env=common.child_env(), capture_output=True, text=True,
            check=True)
        rows.append(parse_importtime(proc.stderr))
    out = {"cli.python_s": statistics.median(bare)}
    for key in rows[0]:
        out[key] = statistics.median([row.get(key, 0.0) for row in rows])
    return out


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["--serve"] else 2)
