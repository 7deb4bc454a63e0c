from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import perfectoid
from perfectoid.arith import FieldConfig, TiltElement, UntiltElement

# The processes the tests start import the package from where this one
# found it: installed, or under src/ by pytest's pythonpath setting.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(perfectoid.__file__)),
    os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "kernel",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kernel")


def element_class(kind: str):
    return UntiltElement if kind == "untilt" else TiltElement


def elements(config: FieldConfig, kind: str, max_terms: int = 6,
             vary_precision: bool = False, max_denpow: int | None = None):
    """Strategy for canonical elements on config's exponent lattice.

    max_denpow restricts drawn digits to a coarser sublattice, leaving
    headroom under dencap for subsequent root extraction.
    """
    cls = element_class(kind)
    if max_denpow is None:
        max_denpow = config.dencap
    scale = config.p ** max_denpow
    limit = config.prec * scale
    digit_maps = st.dictionaries(
        st.integers(min_value=0, max_value=limit - 1),
        st.integers(min_value=1, max_value=config.p - 1),
        max_size=max_terms,
    )
    if vary_precision:
        prec_idx = st.integers(min_value=0, max_value=limit)
    else:
        prec_idx = st.just(limit)

    def build(raw, kidx):
        digits = {Fraction(j, scale): c for j, c in raw.items()}
        return cls(config, digits, Fraction(kidx, scale))

    return st.builds(build, digit_maps, prec_idx)


def refined(data, x, max_denpow: int | None = None):
    """x and a compatible exact value: x's digits plus any digits at or
    above its precision exponent (on the 1/p^max_denpow lattice), drawn
    from the hypothesis ``data``."""
    config = x.config
    denpow = config.dencap if max_denpow is None else max_denpow
    scale = config.p ** denpow
    start = ceil(x.precexp.as_fraction() * scale)
    limit = config.prec * scale
    extra = data.draw(st.dictionaries(
        st.integers(min_value=start, max_value=limit - 1),
        st.integers(min_value=1, max_value=config.p - 1),
        max_size=3)) if start < limit else {}
    digits = dict(x.digits)
    digits.update({Fraction(j, scale): c for j, c in extra.items()})
    return type(x)(config, digits, config.prec)


@pytest.fixture
def fractions_built(monkeypatch):
    """Call it to start counting Fraction constructions: it returns the
    list that records the arguments of every Fraction built from then on,
    until the test ends."""
    def start() -> list:
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        if hasattr(Fraction, "_from_coprime_ints"):
            # newer Pythons build arithmetic results without __new__
            direct = Fraction._from_coprime_ints

            def counting_direct(cls, *args):
                made.append(args)
                return direct(*args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counting_direct))
        return made

    return start


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run_cli(argv, input: str | None = None,
            env: dict | None = None) -> CliResult:
    """Runs ``perfectoid.cli.main(argv)`` in this process with stdin
    reading ``input`` and the environment updated by ``env`` (a None
    value unsets the variable), and returns its exit code and output."""
    from perfectoid.cli import main
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "stdin", io.StringIO(input or "")), \
            redirect_stdout(out), redirect_stderr(err):
        for name, value in (env or {}).items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        try:
            main(list(argv))
            code = 0
        except SystemExit as exc:
            code = (exc.code if isinstance(exc.code, int)
                    else int(exc.code is not None))
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture
def runner():
    """The in-process command-line runner, ``run_cli``."""
    return run_cli
