"""In-memory spans around calls into fqe's layers, installed from outside.

Tracing rebinds public names at their call sites (for example
`estimator.batch_min_distance` or `refdata.fit_laplacian`) to wrappers, so
nothing under src/ changes. A span records name, start, end, parent and
request id. Leaf calls made thousands of times per request are not spans:
each adds a count and a summed duration to the innermost open span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.request: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self.request,
            "start": _now(),
            "end": None,
            "leaves": {},
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = _now()
            self._stack.pop()

    def add_leaf(self, name: str, ns: int, **counts) -> None:
        if not self._stack:
            return
        leaf = self._stack[-1]["leaves"].setdefault(name, {"count": 0, "ns": 0})
        leaf["count"] += 1
        leaf["ns"] += ns
        for key, value in counts.items():
            leaf[key] = leaf.get(key, 0) + value

    def wrap_span(self, fn, name: str, attrs=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"].update(attrs(args, result))
                return result

        return wrapper

    def wrap_leaf(self, fn, name: str, counts=None):
        def wrapper(*args, **kwargs):
            t0 = _now()
            result = fn(*args, **kwargs)
            dt = _now() - t0
            self.add_leaf(name, dt, **(counts(args) if counts else {}))
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


@contextmanager
def installed(tracer: Tracer):
    """Rebind fqe's call sites to traced wrappers; restore them on exit."""
    from fqe import cli, dctsim, estimator, refdata

    def blocks(args, result):
        return {"blocks": int(result.coeffs.n_blocks)}

    def records(args):
        packed, n = args[0], args[3]
        return {"records": min(n, len(packed))}

    packed_cls = refdata.PackedRecords
    from_items = tracer.wrap_leaf(packed_cls.from_items, "pack")
    dctsim_proxy = SimpleNamespace(
        **{
            name: tracer.wrap_leaf(getattr(dctsim, name), "dctsim")
            for name in dir(dctsim)
            if not name.startswith("_") and callable(getattr(dctsim, name))
        }
    )
    rebinds = [
        (estimator, "parse_jpeg", tracer.wrap_span(estimator.parse_jpeg, "parse", blocks)),
        (estimator, "distance_matrix", tracer.wrap_span(estimator.distance_matrix, "distance_matrix")),
        (estimator, "build_histogram", tracer.wrap_leaf(estimator.build_histogram, "histfit")),
        (estimator, "is_degenerate", tracer.wrap_leaf(estimator.is_degenerate, "histfit")),
        (estimator, "fit_laplacian", tracer.wrap_leaf(estimator.fit_laplacian, "histfit")),
        (estimator, "batch_min_distance", tracer.wrap_leaf(estimator.batch_min_distance, "distance", records)),
        (estimator, "regularize", tracer.wrap_span(estimator.regularize, "regularize")),
        (cli, "deserialize", tracer.wrap_span(cli.deserialize, "load")),
        (cli, "estimate", tracer.wrap_span(cli.estimate, "estimate")),
        (refdata, "fit_laplacian", tracer.wrap_leaf(refdata.fit_laplacian, "fit")),
        (refdata, "dctsim", dctsim_proxy),
        (packed_cls, "from_items", staticmethod(from_items)),
    ]
    saved = [(obj, name, vars(obj)[name]) for obj, name, _ in rebinds]
    for obj, name, value in rebinds:
        setattr(obj, name, value)
    try:
        yield tracer
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


# ---------------------------------------------------------------------------
# Aggregation over a span list (dicts as written by Tracer.dump).
# ---------------------------------------------------------------------------


def self_ns(span: dict, children: list[dict]) -> int:
    """Duration minus what child spans and leaf calls cover."""
    covered = sum(c["end"] - c["start"] for c in children)
    covered += sum(leaf["ns"] for leaf in span["leaves"].values())
    return span["end"] - span["start"] - covered


def summarize(spans: list[dict], requests: set[str] | None = None) -> dict:
    """Per-name totals: span count, duration, self time and leaf sums.

    Only spans of the given request ids count when requests is set.
    """
    chosen = [s for s in spans if requests is None or s["request"] in requests]
    children: dict[int, list[dict]] = {}
    for s in chosen:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, dict] = {}
    for s in chosen:
        agg = out.setdefault(s["name"], {"count": 0, "ns": 0, "self_ns": 0, "attrs": {}})
        agg["count"] += 1
        agg["ns"] += s["end"] - s["start"]
        agg["self_ns"] += self_ns(s, children.get(s["id"], []))
        for key, value in s["attrs"].items():
            if isinstance(value, (int, float)):
                agg["attrs"][key] = agg["attrs"].get(key, 0) + value
        for name, leaf in s["leaves"].items():
            lagg = out.setdefault(
                f"leaf:{name}", {"count": 0, "ns": 0, "self_ns": 0, "attrs": {}}
            )
            for key, value in leaf.items():
                if key in ("count", "ns"):
                    lagg[key] += value
                else:
                    lagg["attrs"][key] = lagg["attrs"].get(key, 0) + value
            lagg["self_ns"] = lagg["ns"]
    return out
