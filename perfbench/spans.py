"""In-process tracer for the traced benchmark run.

`install(tracer)` wraps the functions of each andlib module at the
name its caller looks up (a function imported by name is patched in the
importing module; a method is patched on its class). Every wrapped call
pushes a frame; on return its duration is added to the enclosing frame, so
self time is a call's duration minus the part its traced children cover.

Coarse boundaries (one call per command, block or fit) keep a span each:
name, start, end and the index of the enclosing span, held in memory until
the run ends. Boundaries crossed once per pair or per tree only aggregate
time and count, which keeps the tracer's cost per call small.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

SPAN = "span"
AGG = "agg"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.longest: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.values: dict[str, object] = {}
        self.active: Counter[str] = Counter()
        # open frames: [name, start, child seconds, span index or -1,
        #               index of the nearest enclosing span or -1]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _push(self, name: str, keep_span: bool) -> list:
        start = self.clock()
        enclosing = -1
        if self._stack:
            top = self._stack[-1]
            enclosing = top[3] if top[3] >= 0 else top[4]
        index = -1
        if keep_span:
            index = len(self.spans)
            self.spans.append([name, start, None, enclosing])
        frame = [name, start, 0.0, index, enclosing]
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def _pop(self, frame: list) -> float:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name = frame[0]
        self.active[name] -= 1
        duration = end - frame[1]
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        self.total[name] += duration
        self.self_time[name] += duration - frame[2]
        self.calls[name] += 1
        if duration > self.longest[name]:
            self.longest[name] = duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    # -- patching ----------------------------------------------------------

    def wrap(self, targets, name: str, kind: str = SPAN, after=None, skip_inside=None):
        """Replace ``attr`` on every ``(owner, attr)`` in ``targets`` by one
        wrapper. ``after(args, kwargs, result)`` records counts;
        ``skip_inside`` names a boundary under which calls pass untraced."""
        owner0, attr0 = targets[0]
        original = getattr(owner0, attr0)
        tracer = self
        keep_span = kind == SPAN

        def wrapper(*args, **kwargs):
            if skip_inside is not None and tracer.active[skip_inside]:
                return original(*args, **kwargs)
            frame = tracer._push(name, keep_span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr0)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        for owner, attr in targets:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same object as {attr0}")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def closed_spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
            if e is not None
        ]


def _p99(sizes: list[int]) -> int:
    """Nearest-rank 99th percentile."""
    ordered = sorted(sizes)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


def install(tracer: Tracer) -> None:
    """Wrap andlib's public functions for one traced run."""
    from andlib import blocking, cli, cluster, corpus, features, gbt, metrics, model, pipeline

    c = tracer.counts

    def fit_after(args, kwargs, result):
        c["gbt.fit_rows"] += len(args[0])
        c["gbt.trees_fit"] += len(result.trees)

    tracer.wrap(
        [(gbt, "fit_boosted_trees"), (model, "fit_boosted_trees")],
        "gbt.fit",
        after=fit_after,
    )

    def predict_after(args, kwargs, result):
        c["gbt.tree_predict_rows"] += len(result)

    tracer.wrap(
        [(gbt.Tree, "predict")],
        "gbt.tree_predict",
        AGG,
        after=predict_after,
        skip_inside="gbt.fit",
    )

    def sample_after(args, kwargs, result):
        split = args[1] if len(args) > 1 else kwargs["split"]
        c[f"model.{split}_pairs"] += len(result)

    tracer.wrap(
        [(model, "sample_pairs"), (pipeline, "sample_pairs")],
        "model.sample_pairs",
        after=sample_after,
    )

    def ens_after(args, kwargs, result):
        c["model.predict_rows"] += len(result)

    tracer.wrap(
        [(model.EnsembleClassifier, "predict_from_features")],
        "model.predict",
        AGG,
        after=ens_after,
    )
    tracer.wrap([(features.SignatureProfile, "__init__")], "features.profile", AGG)
    tracer.wrap([(features.ProfileIndex, "pair_values")], "features.pair", AGG)
    tracer.wrap([(features, "_compute_features")], "features.compute", AGG)
    tracer.wrap(
        [(features, "featurize_pairs"), (model, "featurize_pairs")],
        "features.featurize_pairs",
    )

    def dm_after(args, kwargs, result):
        n = len(result.block.members)
        c["cluster.pairs_scored"] += n * (n - 1) // 2
        c["cluster.veto_pairs"] += int(result.veto.sum()) // 2

    tracer.wrap([(cluster, "distance_matrix")], "cluster.distance_matrix", after=dm_after)
    tracer.wrap([(cluster, "_cluster_one")], "cluster.block")

    def hac_after(args, kwargs, result):
        c["cluster.merges"] += len(result)
        if tracer.active["cluster.tune_eps"]:
            c["cluster.tune_eps_hac_calls"] += 1

    tracer.wrap([(cluster, "hac_merge_order")], "cluster.hac", after=hac_after)
    tracer.wrap([(cluster, "tune_eps")], "cluster.tune_eps")
    tracer.wrap([(cluster, "cluster_corpus")], "pipeline.cluster")
    tracer.wrap([(pipeline, "train_pipeline")], "pipeline.train")

    def blocks_after(args, kwargs, result):
        sizes = [len(b) for b in result]
        tracer.values["blocking.block_sizes"] = sizes
        c["blocking.blocks"] = max(c["blocking.blocks"], len(sizes))

    tracer.wrap([(blocking, "build_blocks")], "blocking.build_blocks", after=blocks_after)

    for attr in ("load_dataset", "load_partition", "load_name_counts"):
        tracer.wrap([(corpus, attr), (cli, attr)], "corpus.load")
    for attr in ("save_dataset", "save_partition", "save_name_counts"):
        tracer.wrap([(corpus, attr), (cli, attr)], "corpus.save")
    tracer.wrap([(pipeline, "evaluate_partition")], "metrics.eval")
    tracer.wrap([(metrics, "b3")], "metrics.b3")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run (all but the trace.* entries,
    which the harness fills in from wall times measured outside)."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    sizes = tracer.values.get("blocking.block_sizes") or [0]
    requests = n["features.pair"]
    predict_calls = n["gbt.tree_predict"]
    return {
        "gbt.fit_s": t["gbt.fit"],
        "gbt.fit_calls": n["gbt.fit"],
        "gbt.fit_rows": c["gbt.fit_rows"],
        "gbt.trees_fit": c["gbt.trees_fit"],
        "gbt.tree_predict_s": t["gbt.tree_predict"],
        "gbt.tree_predict_calls": predict_calls,
        "gbt.rows_per_tree_predict_call": (
            c["gbt.tree_predict_rows"] / predict_calls if predict_calls else 0.0
        ),
        "model.sample_pairs_s": t["model.sample_pairs"],
        "model.train_pairs": c["model.train_pairs"],
        "model.val_pairs": c["model.val_pairs"],
        "model.predict_s": t["model.predict"],
        "model.predict_calls": n["model.predict"],
        "model.predict_rows": c["model.predict_rows"],
        "features.profile_s": t["features.profile"],
        "features.profiles_built": n["features.profile"],
        "features.pair_s": t["features.pair"],
        "features.pair_requests": requests,
        "features.pairs_computed": n["features.compute"],
        "features.pair_cache_hit_ratio": (
            1.0 - n["features.compute"] / requests if requests else 0.0
        ),
        "features.featurize_pairs_s": t["features.featurize_pairs"],
        "cluster.distance_matrix_s": s["cluster.distance_matrix"],
        "cluster.pairs_scored": c["cluster.pairs_scored"],
        "cluster.veto_pairs": c["cluster.veto_pairs"],
        "cluster.block_max_ms": 1000.0 * tracer.longest["cluster.block"],
        "cluster.hac_s": t["cluster.hac"],
        "cluster.hac_calls": n["cluster.hac"],
        "cluster.merges": c["cluster.merges"],
        "cluster.tune_eps_s": t["cluster.tune_eps"],
        "cluster.tune_eps_hac_calls": c["cluster.tune_eps_hac_calls"],
        "blocking.build_blocks_s": t["blocking.build_blocks"],
        "blocking.build_blocks_calls": n["blocking.build_blocks"],
        "blocking.blocks": c["blocking.blocks"],
        "blocking.block_max": max(sizes),
        "blocking.block_p99": _p99(sizes),
        "corpus.load_s": t["corpus.load"],
        "corpus.save_s": t["corpus.save"],
        "metrics.eval_s": t["metrics.eval"],
        "metrics.b3_calls": n["metrics.b3"],
        "pipeline.train_s": t["pipeline.train"],
        "pipeline.cluster_s": t["pipeline.cluster"],
        "trace.spans": len(tracer.spans),
    }
