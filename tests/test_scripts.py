"""Every script under scripts/ starts, and the checkout plumbing they share works."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checkouts

SCRIPTS = sorted((checkouts.ROOT / "scripts").glob("*.py"))


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_runs_with_help_and_loads_by_file_path(script):
    done = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    module = load_script(script)
    if script.name != "checkouts.py":  # the one module that is not a command
        assert "usage:" in done.stdout
        assert callable(module.main)


def test_orders_alternate_starting_with_the_parent():
    assert checkouts.orders(4) == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")
    ]
    assert checkouts.orders(0) == []


def test_sides_resolve_and_default_to_this_checkout(tmp_path):
    assert checkouts.sides(tmp_path / "x" / "..") == {"parent": tmp_path, "change": checkouts.ROOT}


def test_child_env_and_a_failing_child(tmp_path):
    assert checkouts.child_env(tmp_path)["PYTHONPATH"] == str(tmp_path / "src")
    checkouts.check("probe", 0, "")
    with pytest.raises(RuntimeError, match=r"probe exited 3:\nboom"):
        checkouts.check("probe", 3, "boom")


def test_header_names_the_command_checkouts_and_host():
    h = checkouts.header("scripts/x.py", ["--rounds", "3"], {"change": checkouts.ROOT})
    assert h["command"] == ["python3", "scripts/x.py", "--rounds", "3"]
    assert set(h["checkouts"]) == {"change"} and h["checkouts"]["change"]
    assert set(h["host"]) == {"cpu_count", "python"}


@pytest.fixture
def two_copies():
    """This checkout's fqe loaded twice, as the packages a and b."""
    yield checkouts.load_fqe(checkouts.ROOT, "a"), checkouts.load_fqe(checkouts.ROOT, "b")
    for name in [m for m in sys.modules if m.split(".")[0] in ("a", "b")]:
        del sys.modules[name]


@pytest.fixture
def image(tmp_path) -> bytes:
    """One 64x64 double-compressed image of the perfbench inputs."""
    checkouts.inputs().write_images(tmp_path, 2011, 1, 64, 15)
    return (tmp_path / "img000.jpg").read_bytes()


def test_two_copies_of_fqe_live_side_by_side(two_copies, image):
    a, b = two_copies
    assert a is not b and a.jpegio is not b.jpegio
    assert a.jpegio.__name__ == "a.jpegio" and b.jpegio.__name__ == "b.jpegio"
    assert a.jpegio.JpegError is not b.jpegio.JpegError
    grids_a = a.jpegio.parse_jpeg(image).component_coeffs
    grids_b = b.jpegio.parse_jpeg(image).component_coeffs
    assert grids_a.keys() == grids_b.keys() == {1}
    assert np.array_equal(grids_a[1], grids_b[1])
    with pytest.raises(ValueError, match="already loaded"):
        checkouts.load_fqe(checkouts.ROOT, "a")


def test_parse_timing_reports_a_differing_digest(two_copies, image):
    a, b = two_copies
    parse_timing = load_script(checkouts.ROOT / "scripts" / "parse_timing.py")

    class Shifted:
        """b's jpegio with one coefficient of every parse changed."""

        JpegError = b.jpegio.JpegError

        @staticmethod
        def parse_jpeg(data):
            parsed = b.jpegio.parse_jpeg(data)
            parsed.component_coeffs[1][0, 0] += 1
            return parsed

    same = parse_timing.time_input({"parent": a.jpegio, "change": b.jpegio}, [image] * 3, 2)
    assert same["grids_equal"] and same["files"] == 3
    assert len(same["parent"]["runs_ms"]) == len(same["change"]["runs_ms"]) == 2
    assert set(same["ratio"]) == {"q1", "median", "q3"} and 0 <= same["change_won"] <= 2
    differ = parse_timing.time_input({"parent": a.jpegio, "change": Shifted}, [image], 1)
    assert not differ["grids_equal"]
    # A file that fails to parse hashes its error, the same on both sides.
    broken = parse_timing.time_input({"parent": a.jpegio, "change": b.jpegio}, [image[:40]], 1)
    assert broken["grids_equal"]
    assert parse_timing.digest(parse_timing.parse(a.jpegio, image[:40])).startswith("Jpeg")


def test_parse_timing_repeats_a_short_input_within_a_round(monkeypatch, two_copies, image):
    a, b = two_copies
    parse_timing = load_script(checkouts.ROOT / "scripts" / "parse_timing.py")
    monkeypatch.setattr(parse_timing, "pass_seconds", lambda jpegio, blobs: 0.02)
    calls = []

    class Counted:
        JpegError = b.jpegio.JpegError

        @staticmethod
        def parse_jpeg(data):
            calls.append(data)
            return b.jpegio.parse_jpeg(data)

    entry = parse_timing.time_input({"parent": a.jpegio, "change": Counted}, [image] * 2, 2)
    assert entry["passes_per_round"] == 3  # 0.05 s over 0.02 s, rounded up
    assert len(calls) == 2 + 2 * 3 * 2  # the digests, then rounds x passes x files


def test_parse_timing_digests_values_at_one_width_and_peaks_in_a_child(two_copies, image):
    a, _ = two_copies
    parse_timing = load_script(checkouts.ROOT / "scripts" / "parse_timing.py")
    parsed = a.jpegio.parse_jpeg(image)
    digest = parse_timing.digest(parsed)
    parsed.component_coeffs[1] = parsed.component_coeffs[1].astype(np.int64)
    assert parse_timing.digest(parsed) == digest
    assert parse_timing.peak_mb(checkouts.ROOT, image) >= 0
    with pytest.raises(RuntimeError, match="a parse in"):
        parse_timing.peak_mb(checkouts.ROOT / "missing", image)


def test_parse_timing_makes_its_inputs_once_per_key(tmp_path, monkeypatch):
    parse_timing = load_script(checkouts.ROOT / "scripts" / "parse_timing.py")
    made = []

    def make_inputs(folder):
        made.append(folder)
        for name in parse_timing.INPUTS:
            (folder / name).mkdir()
            (folder / name / "img000.jpg").write_bytes(name.encode())

    monkeypatch.setattr(parse_timing, "make_inputs", make_inputs)
    key = parse_timing.inputs_key()
    assert len(key) == 16 and key == parse_timing.inputs_key()
    first = parse_timing.cached_inputs(tmp_path)
    assert parse_timing.cached_inputs(tmp_path) == first
    assert len(made) == 1 and [p.name for p in tmp_path.iterdir()] == [key]
    assert first == {name: [name.encode()] for name in parse_timing.INPUTS}
    # A new key makes the inputs again and drops the old key's.
    monkeypatch.setattr(parse_timing, "inputs_key", lambda: "other")
    parse_timing.cached_inputs(tmp_path)
    assert len(made) == 2 and [p.name for p in tmp_path.iterdir()] == ["other"]


def run_same_answers(parent: Path) -> subprocess.CompletedProcess:
    script = checkouts.ROOT / "scripts" / "same_answers.py"
    argv = ["--parent-checkout", str(parent), "--reference", "4", "--per-cell", "2"]
    return subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, timeout=60
    )


def test_same_answers_against_itself_and_a_changed_weight(tmp_path):
    same = run_same_answers(checkouts.ROOT)
    assert same.returncode == 0, same.stderr
    assert '"images": 10' in same.stdout and '"same_answers": true' in same.stdout
    # A copy whose regularizer weighs only the smoothness term answers
    # otherwise, at a coefficient the estimates name.
    shutil.copytree(
        checkouts.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    estimator = tmp_path / "src" / "fqe" / "estimator.py"
    source = estimator.read_text()
    assert "\nW = 0.92\n" in source
    estimator.write_text(source.replace("\nW = 0.92\n", "\nW = 0.0\n"))
    differ = run_same_answers(tmp_path)
    assert differ.returncode == 1, differ.stderr
    assert differ.stdout.startswith("answers differ: qf60/img000.jpg: estimates at coefficient ")
