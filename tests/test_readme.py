"""The README's library quick start runs, and each value it shows is
the repr the code gives."""

import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> list[str]:
    """The lines of the python block under "Library quick start"."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_quick_start_shows_true_values():
    # one statement a line; an expression with a trailing comment shows
    # its value's repr in the comment
    namespace: dict = {}
    shown = 0
    for line in _quick_start():
        comments = [tok for tok in tokenize.generate_tokens(
            io.StringIO(line).readline) if tok.type == tokenize.COMMENT]
        code = line[:comments[0].start[1]] if comments else line
        try:
            expression = compile(code, str(README), "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(expression, namespace)
        if comments:
            assert repr(value) == comments[0].string[1:].strip(), line
            shown += 1
    assert shown == 3
