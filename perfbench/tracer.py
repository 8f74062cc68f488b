"""Span and counter recorder for the traced benchmark run.

Every wrap point patches one public function of ``lanebev`` at the module
attribute its callers look up at call time (``model.extract_features``, not
``backbone.extract_features``, because ``model`` imports the name).  Nothing
under ``src/`` changes.  Spans are kept in memory and written out at the end.

Each span records (name, parent, item, start, end).  An *item* is one
training epoch (a ``trainer.train`` call) or one inference scene (a
``model.predict_scene`` call); a top-level call opens a new item while the
window is open.  A layer's self time is its
spans' durations minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from lanebev import bev_encoder, dataset, evaluation, heads, lane_decoder, model, tensor, trainer

# (span name, module, attribute).  A name may appear more than once when
# callers reach the same layer through different module bindings.
SPAN_POINTS = (
    ("trainer", trainer, "train"),
    ("model", trainer, "scene_loss"),
    ("model", model, "forward_frame"),
    ("model", model, "predict_scene"),
    ("backbone", model, "extract_features"),
    ("bev_encoder", model, "encode"),
    ("bev_encoder.tsa", bev_encoder, "temporal_self_attention"),
    ("bev_encoder.sca", bev_encoder, "spatial_cross_attention"),
    ("lane_decoder", model, "decode"),
    ("heads.outputs", model, "head_outputs"),
    ("heads.outputs", heads, "head_outputs"),
    ("heads.predict", model, "predict"),
    ("heads.loss", model, "total_loss"),
    ("heads.matching", heads, "cost_matrix"),
    ("heads.matching", heads, "hungarian_match"),
    ("tensor.backward", tensor.Tape, "backward"),
    ("trainer.optimizer", trainer, "clip_global_norm"),
    ("trainer.optimizer", trainer, "adam_step"),
    ("trainer.checkpoint_save", trainer, "save_checkpoint"),
    ("trainer.checkpoint_load", trainer, "load_checkpoint"),
    ("evaluation", evaluation, "evaluate"),
    ("dataset.load", dataset, "load_dataset"),
)

# spans that begin a new item (an epoch or a scene) when called at top level
ITEM_ROOTS = ("trainer", "model")

# counts that must repeat exactly between passes over the same inputs
EXACT_PREFIXES = ("tensor.tape_ops", "deform.", "bev_encoder.sca.queries_")


class Tracer:
    """Wraps lanebev's public functions in place and records spans and
    counts while ``active``."""

    def __init__(self):
        self.active = False
        self.window = False      # items are numbered only inside the timed window
        self.item = None
        self.n_items = 0
        self.spans = []          # [name, parent index, item, start, end]
        self.stack = []
        self.counts = defaultdict(Counter)    # item -> key -> count
        self.seconds = defaultdict(Counter)   # item -> key -> seconds (backward ops)
        self.deform_depth = 0
        self.points = []         # every wrap point, as module.attribute
        self.fired = set()       # wrap points called at least once while active
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for name, owner, attr in SPAN_POINTS:
            self._patch(owner, attr, functools.partial(self._span_wrapper, name))
        self._patch(bev_encoder, "projected_references", self._hits_wrapper)
        self._patch(bev_encoder, "deformable_attention", self._deform_wrapper)
        self._patch(lane_decoder, "deformable_attention", self._deform_wrapper)
        self._patch(tensor, "bilinear_sample", self._bilinear_wrapper)
        self._patch(tensor.Tape, "_record", self._record_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, make_wrapper):
        point = f"{owner.__name__}.{attr}"
        self.points.append(point)
        original = getattr(owner, attr, None)
        if original is None:
            return               # gone from the program: reported as missing
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(point, original))

    def missing(self):
        """Wrap points that never fired while tracing was active."""
        return sorted(p for p in self.points if p not in self.fired)

    def _span_wrapper(self, name, point, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.fired.add(point)
            if tracer.window and not tracer.stack and name in ITEM_ROOTS:
                tracer.item = tracer.n_items
                tracer.n_items += 1
            tracer.count(name + ".calls")
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            record = [name, parent, tracer.item, time.perf_counter(), None]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                record[4] = time.perf_counter()
        return wrapper

    def _current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _hits_wrapper(self, point, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            refs, hits = fn(*args, **kwargs)
            if not tracer.active:
                return refs, hits
            tracer.fired.add(point)
            if tracer._current() == "bev_encoder.sca":
                tracer.count("bev_encoder.sca.queries_hit", sum(int(m.sum()) for m in hits))
            return refs, hits
        return wrapper

    def _deform_wrapper(self, point, fn):
        tracer = self

        def wrapper(queries, *args, **kwargs):
            if not tracer.active:
                return fn(queries, *args, **kwargs)
            tracer.fired.add(point)
            tracer.count("deform.calls")
            if tracer._current() == "bev_encoder.sca":
                tracer.count("bev_encoder.sca.queries_attended", queries.shape[0])
            tracer.deform_depth += 1
            try:
                return fn(queries, *args, **kwargs)
            finally:
                tracer.deform_depth -= 1
        return wrapper

    def _bilinear_wrapper(self, point, fn):
        tracer = self

        def wrapper(value_map, points, *args, **kwargs):
            if tracer.active:
                tracer.fired.add(point)
                if tracer.deform_depth:
                    tracer.count("deform.bilinear_calls")
                    tracer.count("deform.samples", points.shape[0])
            return fn(value_map, points, *args, **kwargs)
        return wrapper

    def _record_wrapper(self, point, fn):
        tracer = self

        def wrapper(tape, backward_fn, *args, **kwargs):
            if not tracer.active:
                return fn(tape, backward_fn, *args, **kwargs)
            tracer.fired.add(point)
            op = backward_fn.__qualname__.split(".<locals>")[0]
            tracer.count("tensor.tape_ops")
            tracer.count("tensor.tape_ops." + op)
            key = "tensor.backward." + op

            def timed():
                t0 = time.perf_counter()
                backward_fn()
                tracer.seconds[tracer.item][key] += time.perf_counter() - t0
            return fn(tape, timed, *args, **kwargs)
        return wrapper

    def count(self, key, n=1):
        self.counts[self.item][key] += n

    # -- aggregation ------------------------------------------------------

    def self_seconds(self, window_only):
        """name -> (self seconds, calls) over the spans of the window's items
        (window_only) or over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, parent, item, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, parent, item, start, end) in enumerate(self.spans):
            if window_only and item is None:
                continue
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return out

    def item_totals(self, items):
        """Sum of counts and backward-op seconds over the given items."""
        counts, seconds = Counter(), Counter()
        for item in items:
            counts.update(self.counts.get(item, {}))
            seconds.update(self.seconds.get(item, {}))
        return counts, seconds

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, parent, item, start, end in self.spans:
                f.write(json.dumps({"name": name, "parent": parent, "item": item,
                                    "start": start, "end": end}) + "\n")


def exact_counts(counts):
    return {k: v for k, v in sorted(counts.items())
            if k.endswith(".calls") or k.startswith(EXACT_PREFIXES)}
