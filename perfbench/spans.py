"""In-memory spans around evoknn's public functions, installed from outside.

A hook replaces one module attribute (the name a caller resolves, e.g.
``evoknn.cli.evolve``) with a wrapper for the duration of one operation and
restores it afterwards; nothing under ``src/`` is edited.  A hook whose
attribute no longer exists is skipped, and every metric fed only by hooks
that recorded no span reads ``None``: a refactor that stops calling a
wrapped function shows up as an absent number, never as a zero.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

SPARSE_MAX_NF = 8  # knn calls and PCA fits with at most this many features are "sparse"


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    # before(args, kwargs, attrs, fn) may add keyword arguments and record
    # attrs; after(args, kwargs, attrs) records attrs once the call returned
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_load(args, kwargs, attrs):
    attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _after_write_csv(args, kwargs, attrs):
    attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_svg(args, kwargs, attrs):
    attrs["bytes"] = os.path.getsize(args[0])


def _after_knn(args, kwargs, attrs):
    train = _arg(args, kwargs, 0, "train")
    test = _arg(args, kwargs, 1, "test")
    attrs["nf"] = _arg(args, kwargs, 3, "mask").active_count
    attrs["pairs"] = train.n_samples * test.n_samples


def _after_pca(args, kwargs, attrs):
    data = _arg(args, kwargs, 0, "d")
    mask = args[1] if len(args) > 1 else kwargs.get("mask")
    attrs["nf"] = data.feature_count if mask is None else mask.active_count


def _before_evolve(args, kwargs, attrs, fn):
    cfg = _arg(args, kwargs, 2, "cfg")
    attrs["pop"], attrs["elite"] = cfg.population_size, cfg.elite_count
    if "on_generation" not in inspect.signature(fn).parameters:
        return
    stamps = attrs["generation_at"] = []
    chained = kwargs.get("on_generation")

    def on_generation(stats):
        stamps.append(perf_counter())
        if chained is not None:
            chained(stats)

    kwargs["on_generation"] = on_generation


HOOKS = (
    Hook("dataset", "evoknn.cli", "load_csv", after=_after_load),
    Hook("dataset", "evoknn.cli", "write_csv", after=_after_write_csv),
    Hook("synth", "evoknn.cli", "generate"),
    Hook("synth", "evoknn.cli", "generate_pool"),
    Hook("ga", "evoknn.cli", "evolve", before=_before_evolve),
    Hook("ga", "evoknn.cli", "exhaustive_best"),
    Hook("ga", "evoknn.ga", "fitness"),
    Hook("knn", "evoknn.ga", "recognition_rate", after=_after_knn),
    Hook("pca", "evoknn.cli", "fit_pca2", after=_after_pca),
    Hook("pca", "evoknn.cli", "project_rows"),
    Hook("plot", "evoknn.cli", "write_svg_scatter", after=_after_svg),
)

# the one counter an untraced run keeps: distinct masks scored by the GA
COUNT_HOOKS = (Hook("ga", "evoknn.ga", "fitness"),)


@contextmanager
def patched(hooks, wrap):
    """Replace each hook's attribute by ``wrap(hook, fn)``; restore on exit."""
    saved = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                continue
            fn = getattr(module, hook.attr, None)
            if fn is None:
                continue
            saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, wrap(hook, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Tracer:
    """Spans of the operations run while its hooks are installed.

    Each span is [layer, name, start, end, parent index, op id, attrs]; the
    parent is the innermost open span, so self time is a span's duration
    minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, layer: str, name: str, attrs: Optional[dict] = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [layer, name, perf_counter(), 0.0, parent, self.op, {} if attrs is None else attrs]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record[6]
        finally:
            self._open.pop()
            record[3] = perf_counter()

    def _wrap(self, hook: Hook, fn):
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if hook.before is not None:
                _safely(hook.before, args, kwargs, attrs, fn)
            with self.span(hook.layer, hook.attr, attrs):
                result = fn(*args, **kwargs)
            if hook.after is not None:
                _safely(hook.after, args, kwargs, attrs)
            return result

        return wrapper

    def installed(self):
        return patched(HOOKS, self._wrap)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["op", "index", "parent", "layer", "name", "start_s", "end_s"])
            for index, (layer, name, start, end, parent, op, _) in enumerate(self.spans):
                out.writerow([op, index, parent, layer, name, repr(start), repr(end)])


def _safely(fn, *args):
    # a hook that cannot read a refactored signature records nothing rather
    # than failing the operation it observes
    try:
        fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
        pass


class CallCounter:
    """Counts calls through COUNT_HOOKS without timing them."""

    def __init__(self):
        self.calls = 0

    def installed(self):
        return patched(COUNT_HOOKS, self._wrap)

    def _wrap(self, hook, fn):
        def wrapper(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return wrapper


# ------------------------------------------------------------ layer metrics


def _pct(values: list[float], q: int) -> Optional[float]:
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _ratio(num, den) -> Optional[float]:
    return num / den if num is not None and den else None


def _nonzero(value):
    return value if value else None


def op_metrics(spans: list[list], op: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced operation (``None`` where absent)."""
    mine = {i: s for i, s in enumerate(spans) if s[5] == op}
    children: dict[int, float] = {}
    for s in mine.values():
        if s[4] in mine:
            children[s[4]] = children.get(s[4], 0.0) + (s[3] - s[2])

    def dur(i):
        return mine[i][3] - mine[i][2]

    def layer_spans(layer, name=None):
        return [i for i, s in mine.items() if s[0] == layer and (name is None or s[1] == name)]

    def self_s(layer):
        ids = layer_spans(layer)
        return sum(dur(i) - children.get(i, 0.0) for i in ids) if ids else None

    def busy_s(layer, name=None):
        # outermost spans of the layer only, so nested calls are not counted twice
        ids = [i for i in layer_spans(layer, name) if mine.get(mine[i][4], [None])[0] != layer]
        return sum(dur(i) for i in ids) if ids else None

    def under(name, ancestor):
        count = 0
        for i in layer_spans("ga", name):
            p = mine[i][4]
            while p in mine and mine[p][1] != ancestor:
                p = mine[p][4]
            count += p in mine
        return count

    knn = [mine[i] for i in layer_spans("knn")]
    nf_pairs = [(s[6]["nf"], s[6]["pairs"]) for s in knn if "nf" in s[6]]
    evolves = [mine[i][6] for i in layer_spans("ga", "evolve")]
    stamps = [e["generation_at"] for e in evolves if "generation_at" in e]
    generations = sum(len(t) - 1 for t in stamps) if stamps else None
    bred = (sum(e["pop"] + (len(e["generation_at"]) - 1) * (e["pop"] - e["elite"])
                for e in evolves if "generation_at" in e and "pop" in e) or None)
    fresh = _nonzero(under("fitness", "evolve")) if evolves else None
    loads = [mine[i] for i in layer_spans("dataset", "load_csv")]
    writes = [mine[i] for i in layer_spans("dataset", "write_csv")]
    load_bytes = _nonzero(sum(s[6].get("bytes", 0) for s in loads))
    write_bytes = _nonzero(sum(s[6].get("bytes", 0) for s in writes))
    svgs = [mine[i] for i in layer_spans("plot")]
    knn_busy = busy_s("knn")
    return {
        "cli.self_s": self_s("cli"),
        "knn.calls": _nonzero(len(knn)),
        "knn.busy_s": knn_busy,
        "knn.share": _ratio(knn_busy, wall_s),
        "knn.distance_flop": _nonzero(sum(3 * pairs * nf for nf, pairs in nf_pairs)),
        "knn.bytes_computed": _nonzero(sum(8 * pairs * nf for nf, pairs in nf_pairs)),
        "ga.generations": generations,
        "ga.bred": bred,
        "ga.fresh_evals": fresh,
        "ga.cache_hit_rate": (1.0 - fresh / bred) if fresh and bred else None,
        "ga.subsets": _nonzero(under("fitness", "exhaustive_best")),
        "ga.self_s": self_s("ga"),
        "dataset.load_s": busy_s("dataset", "load_csv"),
        "dataset.load_mb_per_s": _ratio(load_bytes and load_bytes / 1e6,
                                        busy_s("dataset", "load_csv")),
        "dataset.write_s": busy_s("dataset", "write_csv"),
        "dataset.write_mb_per_s": _ratio(write_bytes and write_bytes / 1e6,
                                         busy_s("dataset", "write_csv")),
        "dataset.bytes_read": load_bytes,
        "dataset.bytes_written": write_bytes,
        "dataset.self_s": self_s("dataset"),
        "synth.generate_s": busy_s("synth"),
        "pca.fit_s.dense": _median(mine[i][3] - mine[i][2] for i in layer_spans("pca", "fit_pca2")
                                   if mine[i][6].get("nf", 0) > SPARSE_MAX_NF),
        "pca.fit_s.sparse": _median(mine[i][3] - mine[i][2] for i in layer_spans("pca", "fit_pca2")
                                    if 0 < mine[i][6].get("nf", 0) <= SPARSE_MAX_NF),
        "pca.self_s": self_s("pca"),
        "plot.svg_s": busy_s("plot"),
        "plot.svg_bytes": _nonzero(sum(s[6].get("bytes", 0) for s in svgs)),
        "plot.self_s": self_s("plot"),
    }


def pooled_metrics(spans: list[list]) -> dict:
    """Latency percentiles pooled over every traced operation of a run."""
    knn_ms = [(s[3] - s[2]) * 1e3 for s in spans if s[0] == "knn"]
    sparse = [(s[3] - s[2]) * 1e3 for s in spans
              if s[0] == "knn" and 0 < s[6].get("nf", 0) <= SPARSE_MAX_NF]
    dense = [(s[3] - s[2]) * 1e3 for s in spans
             if s[0] == "knn" and s[6].get("nf", 0) > SPARSE_MAX_NF]
    gen_ms = []
    for s in spans:
        stamps = s[6].get("generation_at") if s[1] == "evolve" else None
        if stamps:
            gen_ms += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    return {
        "knn.call_ms.p50": _pct(knn_ms, 50),
        "knn.call_ms.p99": _pct(knn_ms, 99),
        "knn.call_ms.sparse.p50": _pct(sparse, 50),
        "knn.call_ms.dense.p50": _pct(dense, 50),
        "ga.gen_ms.p50": _pct(gen_ms, 50),
        "ga.gen_ms.p90": _pct(gen_ms, 90),
    }


def run_metrics(spans: list[list], op_walls: dict[int, float]) -> dict:
    """Median over traced operations of each per-op metric, plus pooled percentiles."""
    per_op = [op_metrics(spans, op, wall) for op, wall in op_walls.items()]
    merged = {key: _median(m[key] for m in per_op) for key in per_op[0]} if per_op else {}
    merged.update(pooled_metrics([s for s in spans if s[5] in op_walls]))
    return merged
