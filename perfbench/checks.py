"""Correctness checks of the benchmark. Each returns None or a failure message.

The measured process and the harness both call these; the smoke test feeds
them tampered outputs and expects a message back.
"""

from __future__ import annotations

import hashlib
import json


def outcome(estimates, raw, status) -> dict:
    """One image's answer in the form every check compares."""
    return {"estimates": list(estimates), "raw": list(raw), "status": list(status)}


def outcome_of_result(result) -> dict:
    return outcome(result.estimates, result.raw_estimates, result.distances.status)


def outcome_of_cli_json(text: str) -> dict:
    rows = json.loads(text)["positions"]
    return outcome(
        [r["estimate"] for r in rows], [r["raw"] for r in rows], [r["status"] for r in rows]
    )


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def blobs_identical(digests: dict[str, list[str]]) -> str | None:
    """Every dataset blob of one round is the same, whatever the job count.

    digests maps a round label to the sha256 of each blob built in it.
    """
    for label, found in digests.items():
        if len(set(found)) != 1:
            return f"round {label}: dataset blobs differ across job counts: {found}"
    return None


def round_trip(blob: bytes, deserialize, serialize) -> str | None:
    """serialize(deserialize(blob)) must give blob back byte for byte."""
    try:
        again = serialize(deserialize(blob))
    except Exception as exc:  # any failure of the round trip is a finding
        return f"round trip raised {type(exc).__name__}: {exc}"
    if again != blob:
        return "serialize(deserialize(blob)) differs from blob"
    return None


def same_outcomes(expected: dict, actual: dict, what: str) -> str | None:
    """Two runs gave the same answer on every input that both answered.

    Both map an input (an image name or corpus index) to its answer.
    """
    common = sorted(expected.keys() & actual.keys())
    if not common:
        return f"{what}: no input answered by both"
    for key in common:
        if expected[key] != actual[key]:
            return f"{what}: input {key} differs: {actual[key]} != {expected[key]}"
    return None


def valid_outcome(answer: dict, q1_max: int) -> str | None:
    """Estimates lie in 1..q1_max exactly where the position is usable."""
    for pos, (est, raw, status) in enumerate(
        zip(answer["estimates"], answer["raw"], answer["status"]), start=1
    ):
        usable = status == "ok"
        for value in (est, raw):
            if usable != (value is not None) or (usable and not 1 <= value <= q1_max):
                return f"position {pos}: status {status!r} with estimate {value!r}"
    return None
