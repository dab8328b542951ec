"""Span tracing from outside the program.

The traced run replaces module-level functions of the ``wafersense`` package
with timing wrappers, in the module that looks each name up at call time
(``fit`` calls ``wafersense.train.forward_batch``, ``predict_bucket`` calls
``wafersense.evaluate.forward_batch``). Every call becomes a span with a
name, a start, an end and the span that caused it; spans stay in memory
until the run ends. A name that a refactor removed is recorded as missing
and the run goes on without it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# (module that looks the name up, attribute, span name)
TRACED = (
    ("wafersense.cli", "cmd_preprocess", "cli.preprocess"),
    ("wafersense.cli", "cmd_train", "cli.train"),
    ("wafersense.cli", "cmd_evaluate", "cli.evaluate"),
    ("wafersense.ingest", "load_table", "ingest.load_table"),
    ("wafersense.ingest", "dedupe", "ingest.dedupe"),
    ("wafersense.ingest", "parse_sensor_table", "ingest.parse_sensor_table"),
    ("wafersense.ingest", "parse_metrology_table", "ingest.parse_metrology_table"),
    ("wafersense.ingest", "assemble_wafers", "ingest.assemble_wafers"),
    ("wafersense.preprocess", "fit_pipeline", "preprocess.fit_pipeline"),
    ("wafersense.preprocess", "build_buckets", "preprocess.build_buckets"),
    ("wafersense.preprocess", "save_bucket", "preprocess.save_bucket"),
    ("wafersense.preprocess", "write_manifest", "preprocess.write_manifest"),
    ("wafersense.preprocess", "load_split", "preprocess.load_split"),
    ("wafersense.normgroups", "build_groups", "normgroups.build_groups"),
    ("wafersense.cli", "fit", "train.fit"),
    ("wafersense.cli", "make_train_buckets", "train.make_train_buckets"),
    ("wafersense.cli", "load_checkpoint", "nn.load_checkpoint"),
    ("wafersense.cli", "save_checkpoint", "nn.save_checkpoint"),
    ("wafersense.train", "iter_epoch_batches", "train.iter_epoch_batches"),
    ("wafersense.train", "forward_batch", "nn.forward_batch"),
    ("wafersense.train", "backward_batch", "nn.backward_batch"),
    ("wafersense.train", "adam_step", "train.adam_step"),
    ("wafersense.train", "dataset_loss", "train.dataset_loss"),
    ("wafersense.evaluate", "predict_bucket", "evaluate.predict_bucket"),
    ("wafersense.evaluate", "forward_batch", "nn.forward_batch"),
    ("wafersense.evaluate", "denormalize_bucket", "evaluate.denormalize_bucket"),
    ("wafersense.evaluate", "grouping_report", "evaluate.grouping_report"),
    ("wafersense.evaluate", "label_fail_arrays", "evaluate.label_fail_arrays"),
    ("wafersense.evaluate", "recall_fpr_sweep", "evaluate.recall_fpr_sweep"),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "round", "epoch")

    def __init__(self, sid, parent, name, start, rnd, epoch):
        self.id, self.parent, self.name = sid, parent, name
        self.start, self.end, self.round, self.epoch = start, start, rnd, epoch

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "round": self.round}


def _bind(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


def count_subnormal_m(state) -> int | None:
    """Subnormal entries of the Adam first moment held by ``state``.

    The moment is found under the name ``m`` (attribute or key); whatever it
    holds (one array, a dict of arrays, a list, an object) is searched for
    floating arrays. None when no such array can be found.
    """
    m = state.get("m") if isinstance(state, dict) else getattr(state, "m", None)
    arrays = [a for a in _arrays(m, set()) if np.issubdtype(a.dtype, np.floating)]
    if not arrays:
        return None
    total = 0
    for a in arrays:
        tiny = np.finfo(a.dtype).tiny
        total += int(np.count_nonzero((a != 0) & (np.abs(a) < tiny)))
    return total


def _arrays(obj, seen):
    if obj is None or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v, seen)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from _arrays(v, seen)


class Tracer:
    """Installs the wrappers, records spans and per-call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.round = 0
        self.epoch = 0           # epoch within the current fit, from iter_epoch_batches calls
        self.adam_state = None   # last optimiser state passed to adam_step
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # span recording

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, 0.0, self.round, self.epoch)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        observe = getattr(self, "_observe_" + hook, None)
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if before:
                    before()
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    self._close(span)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if before:
                    before()
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if observe:
                    observe(fn, args, kwargs, result, span)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    # counters read from arguments and results

    def _before_train_fit(self):
        self.epoch = 0

    def _before_train_iter_epoch_batches(self):
        self.epoch += 1
        self.counts["train.epochs"] += 1

    def _observe_train_adam_step(self, fn, args, kwargs, result, span):
        self.counts["train.steps"] += 1
        state = _bind(fn, args, kwargs).get("state")
        if state is None:
            state = next((a for a in args if hasattr(a, "m")), None)
        self.adam_state = state

    def _observe_nn_forward_batch(self, fn, args, kwargs, result, span):
        self.counts["nn.forward_batch.calls"] += 1
        bound = _bind(fn, args, kwargs)
        if bound.get("want_trace", True) is False and hasattr(bound.get("steps"), "__len__"):
            self.counts["nn.forward_batch.notrace_rows"] += len(bound["steps"])
            self.counts["nn.forward_batch.notrace_s"] += span.end - span.start

    def _observe_ingest_load_table(self, fn, args, kwargs, result, span):
        self.counts["ingest.rows_read"] += len(getattr(result, "rows", ()))

    def _observe_ingest_dedupe(self, fn, args, kwargs, result, span):
        before = getattr(args[0] if args else None, "rows", ())
        self.counts["ingest.duplicate_rows_dropped"] += len(before) - len(getattr(result, "rows", ()))

    def _observe_preprocess_build_buckets(self, fn, args, kwargs, result, span):
        if isinstance(result, dict):
            self.counts["preprocess.rows_joined"] += sum(len(b) for b in result.values())

    def _observe_evaluate_grouping_report(self, fn, args, kwargs, result, span):
        pairs = args[0] if args else None
        if hasattr(pairs, "__len__"):
            self.counts["evaluate.rows_graded"] += len(pairs)

    def _observe_evaluate_recall_fpr_sweep(self, fn, args, kwargs, result, span):
        y_hat = args[0] if args else None
        if hasattr(y_hat, "__len__"):
            self.counts["evaluate.rows_graded"] += len(y_hat)

    # reports

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.id] for s in self.spans]

    def summary(self, rounds: int, round_seconds: float) -> dict[str, dict]:
        """Per span name: calls, total and self seconds per round, and their
        shares of a traced round's wall time."""
        acc = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            a = acc[span.name]
            a[0] += 1
            a[1] += span.end - span.start
            a[2] += own
        return {name: {"calls": n / rounds, "total_s": t / rounds, "self_s": o / rounds,
                       "share_total": t / rounds / round_seconds,
                       "share_self": o / rounds / round_seconds}
                for name, (n, t, o) in sorted(acc.items())}

    def layer_metrics(self, rounds: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer figures over ``rounds`` traced rounds, plus the names not reached.

        ``.ms`` figures are per call, ``.s`` figures per round (``dataset_loss``
        per epoch), counts per round.
        """
        total = defaultdict(float)
        self_total = defaultdict(float)
        calls = defaultdict(int)
        adam = {"epoch1": [0.0, 0], "later": [0.0, 0]}
        for span, own in zip(self.spans, self.self_times()):
            dur = span.end - span.start
            total[span.name] += dur
            self_total[span.name] += own
            calls[span.name] += 1
            if span.name == "train.adam_step":
                acc = adam["epoch1" if span.epoch <= 1 else "later"]
                acc[0] += dur
                acc[1] += 1

        out: dict[str, float] = {}
        not_reached: list[str] = []

        def put(metric, value, reached):
            out[metric] = float(value) if reached else 0.0
            if not reached:
                not_reached.append(metric)

        def per_call_ms(metric, span_name, own=False):
            n = calls[span_name]
            t = (self_total if own else total)[span_name]
            put(metric, 1000.0 * t / n if n else 0.0, n > 0)

        def per_round_s(metric, span_name, own=False):
            t = (self_total if own else total)[span_name]
            put(metric, t / rounds, calls[span_name] > 0)

        for name in ("nn.forward_batch", "nn.backward_batch", "nn.load_checkpoint",
                     "nn.save_checkpoint", "train.adam_step", "train.iter_epoch_batches",
                     "preprocess.load_split", "evaluate.denormalize_bucket",
                     "evaluate.grouping_report", "evaluate.label_fail_arrays",
                     "evaluate.recall_fpr_sweep"):
            per_call_ms(name + ".ms", name)
        per_call_ms("evaluate.predict_bucket.self_ms", "evaluate.predict_bucket", own=True)
        for key in ("epoch1", "later"):
            t, n = adam[key]
            put(f"train.adam_step.ms.{key}", 1000.0 * t / n if n else 0.0, n > 0)
        n = calls["train.dataset_loss"]
        put("train.dataset_loss.s", total["train.dataset_loss"] / n if n else 0.0, n > 0)
        for name in ("train.make_train_buckets", "ingest.load_table",
                     "ingest.parse_sensor_table", "ingest.parse_metrology_table",
                     "ingest.dedupe", "ingest.assemble_wafers", "preprocess.fit_pipeline",
                     "preprocess.build_buckets", "preprocess.save_bucket",
                     "preprocess.write_manifest", "normgroups.build_groups"):
            per_round_s(name + ".s", name)
        for stage in ("preprocess", "train", "evaluate"):
            per_round_s(f"cli.{stage}.self_s", f"cli.{stage}", own=True)

        rows, secs = (self.counts["nn.forward_batch.notrace_rows"],
                      self.counts["nn.forward_batch.notrace_s"])
        put("nn.forward_batch.rows_per_s", rows / secs if secs else 0.0, secs > 0)
        for name, span_name in (("nn.forward_batch.calls", "nn.forward_batch"),
                                ("train.steps", "train.adam_step"),
                                ("train.epochs", "train.iter_epoch_batches"),
                                ("evaluate.rows_graded", "evaluate.grouping_report"),
                                ("ingest.rows_read", "ingest.load_table"),
                                ("ingest.duplicate_rows_dropped", "ingest.dedupe"),
                                ("preprocess.rows_joined", "preprocess.build_buckets")):
            reached = calls[span_name] > 0 or (name == "evaluate.rows_graded"
                                               and calls["evaluate.recall_fpr_sweep"] > 0)
            put(name, self.counts[name] / rounds, reached)
        subnormal = count_subnormal_m(self.adam_state) if self.adam_state is not None else None
        put("train.adam_step.subnormal_m", subnormal or 0, subnormal is not None)
        return out, not_reached
