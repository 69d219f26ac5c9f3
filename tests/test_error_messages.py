"""Every error message of fqe is named by a test.

A message counts as named when its longest literal part (the text between
the f-string fields) appears in some test file. Messages whose literal parts
are all shorter than MIN_PART characters say too little to search for and
are left out.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fqe.dctsim import blockify, constant_table, standard_table
from fqe.stats import build_histogram
from fqe.types import CoeffGrid, GrayImage, QuantTable, QuantTableError

ROOT = Path(__file__).resolve().parent.parent
MIN_PART = 8
SOURCES = [
    "cli.py", "corpus.py", "dctsim.py", "estimator.py", "jpegio.py", "refdata.py", "stats.py",
    "types.py",
]


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


@pytest.mark.parametrize("source", SOURCES)
def test_every_error_message_is_named_by_a_test(source):
    tests = "\n".join(p.read_text() for p in sorted((ROOT / "tests").rglob("*.py")))
    unnamed = [
        f"{source}:{line}: {part!r}"
        for line, part in raised_messages((ROOT / "src" / "fqe" / source).read_text())
        if part not in tests
    ]
    assert not unnamed, "no test names:\n" + "\n".join(unnamed)


# (callable, its arguments, exception type, message) of each check of the
# domain types, the histogram and the table and block helpers of the simulator.
DOMAIN_ERRORS = [
    (QuantTable, (np.ones(63),), QuantTableError, "expected 64 factors, got 63"),
    (QuantTable.from_zigzag, (np.ones(65),), QuantTableError, "expected 64 factors, got 65"),
    (QuantTable, (np.zeros(64),), QuantTableError, "quantization factors must be in [1, 255]"),
    (QuantTable, (np.full(64, 256),), QuantTableError, "quantization factors must be in [1, 255]"),
    (constant_table(1).zigzag_factor, (65,), IndexError, "zig-zag position 65 out of range"),
    (GrayImage, (np.zeros(8),), ValueError, "pixels must be a non-empty 2-D array"),
    (GrayImage, (np.full((2, 2), 256),), ValueError, "pixel values must be in [0, 255]"),
    (CoeffGrid, (0, 1, np.zeros((0, 64))), ValueError, "block dimensions must be positive"),
    (CoeffGrid, (2, 1, np.zeros((1, 64))), ValueError,
     "values shape (1, 64) does not match 2 blocks of 64 coefficients"),
    (CoeffGrid, (1, 1, 32768 * np.eye(1, 64, dtype=np.int64)), ValueError,
     "coefficient values 0..32768 do not fit in int16"),
    (CoeffGrid, (1, 1, np.full((1, 64), np.nan)), ValueError,
     "coefficient values nan..nan do not fit in int16"),
    (CoeffGrid(1, 1, np.zeros((1, 64))).coefficient, (0,), IndexError,
     "coefficient index 0 out of range"),
    (build_histogram, (np.array([], dtype=np.int64),), ValueError,
     "cannot build a histogram from no values"),
    (blockify, (np.zeros((8, 12)),), ValueError, "image dimensions 12x8 are not multiples of 8"),
    (standard_table, (0,), ValueError, "quality factor 0 out of range [1, 100]"),
    (constant_table, (256,), ValueError, "constant factor 256 out of range [1, 255]"),
]


@pytest.mark.parametrize(
    "check, args, error, message", DOMAIN_ERRORS, ids=[case[3] for case in DOMAIN_ERRORS]
)
def test_domain_errors(check, args, error, message):
    with pytest.raises(error) as info:
        check(*args)
    assert type(info.value) is error
    assert str(info.value) == message
