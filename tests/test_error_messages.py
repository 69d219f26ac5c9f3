"""Every error message of the JPEG/PGM readers and the corpus code is named by a test.

A message counts as named when its longest literal part (the text between
the f-string fields) appears in some test file. Messages whose literal parts
are all shorter than MIN_PART characters say too little to search for and
are left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MIN_PART = 8


def raised_messages(source: str) -> list[tuple[int, str]]:
    """(line, longest literal part) of each raise whose first argument is a
    string or an f-string, for parts of at least MIN_PART characters."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        message = node.exc.args[0] if node.exc.args else None
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            parts = [message.value]
        elif isinstance(message, ast.JoinedStr):
            parts = [v.value for v in message.values if isinstance(v, ast.Constant)]
        else:
            continue
        longest = max(parts, key=len, default="")
        if len(longest) >= MIN_PART:
            out.append((node.lineno, longest))
    return sorted(out)


def test_raised_messages():
    source = (
        "def f(x):\n"
        "    raise ValueError(f'row {x}: {x} is out of range')\n"
        "    raise ValueError('too short')\n"
        "    raise ValueError(f'{x}: tiny {x}')\n"
        "    raise KeyError(x)\n"
        "    raise\n"
    )
    assert raised_messages(source) == [(2, " is out of range"), (3, "too short")]


@pytest.mark.parametrize("source", ["jpegio.py", "corpus.py"])
def test_every_error_message_is_named_by_a_test(source):
    tests = "\n".join(p.read_text() for p in sorted((ROOT / "tests").rglob("*.py")))
    unnamed = [
        f"{source}:{line}: {part!r}"
        for line, part in raised_messages((ROOT / "src" / "fqe" / source).read_text())
        if part not in tests
    ]
    assert not unnamed, "no test names:\n" + "\n".join(unnamed)
