"""Every script under scripts/ starts, and the checkout plumbing they share works."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checkouts
import same_answers
from fqe.jpegio import parse_jpeg

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


def test_time_input_times_both_sides_round_by_round(two_copies, image):
    a, b = two_copies
    entry = same_answers.time_input({"parent": a.jpegio, "change": b.jpegio}, [image] * 3, 2)
    assert entry["files"] == 3 and entry["passes_per_round"] >= 1
    assert len(entry["parent"]["runs_ms"]) == len(entry["change"]["runs_ms"]) == 2
    assert set(entry["parent"]["ms_per_parse"]) == set(entry["ratio"]) == {"q1", "median", "q3"}
    assert 0 <= entry["change_won"] <= 2


def test_time_input_repeats_a_short_input_within_a_round(monkeypatch, two_copies, image):
    a, b = two_copies
    monkeypatch.setattr(same_answers, "pass_seconds", lambda jpegio, blobs: 0.02)
    calls = []

    class Counted:
        JpegError = b.jpegio.JpegError

        @staticmethod
        def parse_jpeg(data):
            calls.append(data)
            return b.jpegio.parse_jpeg(data)

    entry = same_answers.time_input({"parent": a.jpegio, "change": Counted}, [image] * 2, 2)
    assert entry["passes_per_round"] == 3  # 0.05 s over 0.02 s, rounded up
    assert len(calls) == 2 * 3 * 2  # rounds x passes x files


def changed(jpegio, change):
    """jpegio with change applied to the component grids of every parse."""

    class Changed:
        JpegError = jpegio.JpegError

        @staticmethod
        def parse_jpeg(data):
            parsed = jpegio.parse_jpeg(data)
            change(parsed.component_coeffs)
            return parsed

    return Changed


def test_compare_grids_by_value_and_errors_by_message(two_copies, image):
    a, b = two_copies
    files = {"cut.jpg": image[:40], "x.jpg": image}
    value = int(a.jpegio.parse_jpeg(image).component_coeffs[1][2, 3])

    def compared(change):
        return same_answers.compare_grids({"parent": a.jpegio, "change": change}, files)

    # A file that fails to parse fails alike on both sides and is not estimated.
    assert compared(b.jpegio) == (None, ["x.jpg"])

    def widen(grids):
        grids[1] = grids[1].astype(np.int64)

    def shift(grids):
        grids[1][2, 3] += 1

    def add(grids):
        grids[2] = grids[1]

    def fail(data):
        raise b.jpegio.JpegError("boom")

    assert compared(changed(b.jpegio, widen)) == (None, ["x.jpg"])
    assert compared(changed(b.jpegio, shift)) == (
        f"x.jpg: component 1 at block 3, coefficient 4: parent {value}, change {value + 1}", []
    )
    assert compared(changed(b.jpegio, add)) == ("x.jpg: components parent [1], change [1, 2]", [])
    failing = type("Failing", (), {"JpegError": b.jpegio.JpegError, "parse_jpeg": fail})
    error = same_answers.parse(a.jpegio, image[:40])
    assert compared(failing) == (
        f"cut.jpg: parent {type(error).__name__}: {error}, change JpegError: boom", []
    )


def test_peak_mb_in_a_child_of_the_checkout(image):
    assert same_answers.peak_mb(checkouts.ROOT, image) >= 0
    with pytest.raises(RuntimeError, match="a parse in"):
        same_answers.peak_mb(checkouts.ROOT / "missing", image)


def test_inputs_are_made_once_per_key(tmp_path, monkeypatch):
    made = []

    def make_inputs(folder):
        made.append(folder)
        for name in checkouts.INPUTS:
            (folder / name).mkdir()
            (folder / name / "img000.jpg").write_bytes(name.encode())

    monkeypatch.setattr(checkouts, "CACHE", tmp_path)
    monkeypatch.setattr(checkouts, "make_inputs", make_inputs)
    key = checkouts.inputs_key()
    assert len(key) == 16 and key == checkouts.inputs_key()
    first = same_answers.input_files()
    assert same_answers.input_files() == first
    assert len(made) == 1 and [p.name for p in tmp_path.iterdir()] == [key]
    assert first == {name: {f"{name}/img000.jpg": name.encode()} for name in checkouts.INPUTS}
    # A new key makes the inputs again and drops the old key's.
    monkeypatch.setattr(checkouts, "inputs_key", lambda: "other")
    assert checkouts.cached_inputs() == tmp_path / "other"
    assert len(made) == 2 and [p.name for p in tmp_path.iterdir()] == ["other"]


@pytest.fixture
def same_answers_main(tmp_path, monkeypatch, capsys):
    """same_answers.main at toy size, its input sets one 64x64 image each (and
    a truncated file in gray-64) in tmp_path; (exit code, stdout) of a run."""

    def make_inputs(folder):
        for name in checkouts.INPUTS:
            (folder / name).mkdir()
            checkouts.inputs().write_images(folder / name, 2011, 1, 64, 15)
        cut = (folder / "gray-64" / "img000.jpg").read_bytes()[:40]
        (folder / "gray-64" / "cut.jpg").write_bytes(cut)

    monkeypatch.setattr(checkouts, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(checkouts, "make_inputs", make_inputs)

    def run(parent: Path, *argv: str) -> tuple[int, str]:
        argv = ["--parent-checkout", str(parent), "--reference", "4", "--per-cell", "2", *argv]
        try:
            code = same_answers.main(argv)
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] in ("fqe_parent", "fqe_change")]:
                del sys.modules[name]
        return code, capsys.readouterr().out

    return run


def copy_with(tmp_path, module: str, old: str, new: str) -> Path:
    """A copy of this checkout's src/ in tmp_path/copy, old replaced by new in fqe/module."""
    shutil.copytree(checkouts.ROOT / "src", tmp_path / "copy" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "copy" / "src" / "fqe" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return tmp_path / "copy"


def test_same_answers_against_itself_with_timing(same_answers_main, tmp_path):
    code, out = same_answers_main(checkouts.ROOT, "--rounds", "1", "--label", "t",
                                  "--out-dir", str(tmp_path))
    assert code == 0, out
    summary = json.loads(out.splitlines()[-1])
    assert summary["images"] == 10 and summary["same_answers"]
    assert summary["input_files"] == {name: 2 if name == "gray-64" else 1
                                      for name in checkouts.INPUTS}
    assert summary["estimated_input_files"] == 5  # the truncated file does not parse
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["rounds"] == 1 and list(record["inputs"]) == list(checkouts.INPUTS)
    for entry in record["inputs"].values():
        assert entry["grids_equal"]
        assert {"ratio", "change_won", "passes_per_round"} <= entry.keys()
        for side in ("parent", "change"):
            assert len(entry[side]["runs_ms"]) == 1 and entry[side]["parse_vmhwm_mb"] >= 0
            assert set(entry[side]["ms_per_parse"]) == {"q1", "median", "q3"}


def test_same_answers_names_the_first_differing_grid(same_answers_main, tmp_path):
    # The parent's parser adds 1 to coefficient 6 of block 1 of every scan.
    call = "        _decode_scan(segments, segment_dests, pattern, comp_tables, outputs)\n"
    parent = copy_with(tmp_path, "jpegio.py", call, call + "        outputs[0][0, 5] += 1\n")
    image = (checkouts.cached_inputs() / "gray-64" / "img000.jpg").read_bytes()
    value = int(parse_jpeg(image).component_coeffs[1][0, 5])
    code, out = same_answers_main(parent)
    assert code == 1
    assert out.splitlines()[-1] == (
        "answers differ: gray-64/img000.jpg: component 1 at block 1, coefficient 6: "
        f"parent {value + 1}, change {value}"
    )


def test_same_answers_names_the_first_differing_estimate(same_answers_main, tmp_path):
    # A copy whose regularizer weighs only the smoothness term answers
    # otherwise, at a coefficient the estimates name.
    parent = copy_with(tmp_path, "estimator.py", "\nW = 0.92\n", "\nW = 0.0\n")
    code, out = same_answers_main(parent)
    assert code == 1
    assert out.splitlines()[-1].startswith(
        "answers differ: qf60/img000.jpg: estimates at coefficient "
    )
