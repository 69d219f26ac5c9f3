"""What the scripts here share to measure a parent checkout against this one:
the sides "parent" (--parent-checkout) and "change" (this checkout), run in
child processes in alternating order or imported into one process by load_fqe,
and the JPEG input sets they parse, made once into scripts/.cache.
"""

import functools
import hashlib
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INPUTS = {
    "gray-64": "96 64x64 gray images of the evaluate workload, seed 2011 (sequential decoder)",
    "gray-1mp": "12 1 MP gray images of the estimate-cold workload, seeds 2021-2023 (lanes)",
    "color-420": "1 MP YCbCr 4:2:0, one interleaved scan (tests/jpegwriter.py): a quality-90 "
                 "mosaic as luma, half-size ones as chroma",
    "color-420-rst64": "the color-420 grids with a restart every 64 MCUs",
    "gray-1mp-rst1": "the color-420 luma as one gray scan, a restart after every MCU (no lanes)",
}
CACHE = ROOT / "scripts" / ".cache"


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


def make_inputs(folder: Path) -> None:
    """Write every input set as folder/<name>/**/*.jpg."""
    bench = inputs()
    from fqe import dctsim, jpegio

    writer = load_module("jpegwriter", ROOT / "tests" / "jpegwriter.py")
    for name in INPUTS:
        (folder / name).mkdir()
    bench.write_images(folder / "gray-64", 2011, 96, 64, 15)
    for seed in (2021, 2022, 2023):
        (folder / "gray-1mp" / str(seed)).mkdir()
        bench.write_images(folder / "gray-1mp" / str(seed), seed, 4, 1024, 15)

    def grid(side: int, seed: int):
        image = bench.tiled(seed, 1, side)[0]
        data = jpegio.encode_baseline_gray(image, dctsim.standard_table(90))
        return jpegio.parse_jpeg(data).coeffs.values

    luma, cb, cr = grid(1024, 2041), grid(512, 2042), grid(512, 2043)
    components = [(1, 2, 2), (2, 1, 1), (3, 1, 1)]
    grids = {1: luma, 2: cb, 3: cr}
    for name, interval in (("color-420", 0), ("color-420-rst64", 64)):
        data = writer.encode_grids(1024, 1024, components, [[1, 2, 3]], grids, interval)
        (folder / name / "img000.jpg").write_bytes(data)
    # The 4:2:0 luma grid is in MCU raster order; as a gray scan it is a
    # 2048x512 image of the same blocks.
    data = writer.encode_grids(512, 2048, [(1, 1, 1)], [[1]], {1: luma}, 1)
    (folder / "gray-1mp-rst1" / "img000.jpg").write_bytes(data)


def inputs_key() -> str:
    """perfbench/inputs.cache_key (src/, tests/conftest.py and inputs.py) over the
    digests of tests/jpegwriter.py and this module, which make the inputs too."""
    made_by = (ROOT / "tests" / "jpegwriter.py", Path(__file__))
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in made_by]
    return inputs().cache_key(*digests)


def cached_inputs() -> Path:
    """CACHE/<inputs_key()>, which holds each input set as <name>/**/*.jpg.

    make_inputs makes it on first use in a temporary folder, renamed into place,
    so a run cut short leaves no half-made set; other keys' folders are removed.
    """
    folder = CACHE / inputs_key()
    if not folder.is_dir():
        CACHE.mkdir(parents=True, exist_ok=True)
        for stale in CACHE.iterdir():
            shutil.rmtree(stale)
        tmp = Path(tempfile.mkdtemp(dir=CACHE, prefix=".making-"))
        make_inputs(tmp)
        tmp.rename(folder)
    return folder
