"""What the scripts here share to measure a parent checkout against this one:
the sides "parent" (--parent-checkout) and "change" (this checkout), run in
child processes in alternating order or imported into one process by load_fqe.
"""

import functools
import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# The source of vmhwm_kb(), for the code that scripts run in a child process:
# the process's peak resident set size so far, in kB (Linux).
VMHWM_KB = """
def vmhwm_kb():
    status = dict(line.split(":", 1) for line in open("/proc/self/status"))
    return int(status["VmHWM"].split()[0])
"""


def sides(parent: Path, change: Path = ROOT) -> dict[str, Path]:
    """The two checkouts by side name, parent first."""
    return {"parent": Path(parent).resolve(), "change": Path(change).resolve()}


def orders(rounds: int) -> list[tuple[str, str]]:
    """The order of the sides in each round: the parent first on even rounds."""
    return [("parent", "change") if r % 2 == 0 else ("change", "parent") for r in range(rounds)]


def child_env(checkout: Path) -> dict[str, str]:
    """The environment of a child that imports checkout's fqe."""
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def check(what: str, returncode: int, stderr: str) -> None:
    """Raise RuntimeError with the tail of stderr if a child exited non-zero."""
    if returncode:
        raise RuntimeError(f"{what} exited {returncode}:\n{stderr[-2000:]}")


def git_head(checkout: Path) -> str:
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=checkout, capture_output=True, text=True,
    )
    return done.stdout.strip() or "unknown"


def header(script: str, argv: list[str] | None, checkouts: dict[str, Path]) -> dict:
    """The command (argv, or sys.argv's when None), checkouts and host of a record."""
    argv = sys.argv[1:] if argv is None else argv
    return {
        "command": ["python3", f"scripts/{Path(script).name}", *argv],
        "checkouts": {side: git_head(path) for side, path in checkouts.items()},
        "host": {"cpu_count": os.cpu_count(), "python": sys.version.split()[0]},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (linear interpolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_module(name: str, path: Path, **spec_options):
    """The Python file at path, imported as the module `name`."""
    spec = importlib.util.spec_from_file_location(name, path, **spec_options)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def inputs():
    """This checkout's perfbench/inputs.py, with this checkout's fqe importable as `fqe`."""
    sys.path.insert(0, str(ROOT / "src"))
    return load_module("perfbench_inputs", ROOT / "perfbench" / "inputs.py")


def load_fqe(checkout: Path, name: str):
    """checkout's src/fqe imported as the package `name`.

    fqe imports its own modules relatively only, so copies loaded under
    different names live side by side, each with its own submodules and
    caches.
    """
    if name in sys.modules:
        raise ValueError(f"a module named {name} is already loaded")
    package = Path(checkout).resolve() / "src" / "fqe"
    return load_module(name, package / "__init__.py", submodule_search_locations=[str(package)])
