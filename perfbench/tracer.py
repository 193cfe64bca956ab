"""Span tracer that times calls into bookpred's public functions from outside
the package.

Each target function is wrapped once, and every reference to that same
function object in the ``bookpred.*`` module namespaces is replaced by the
wrapper. Replacing only the defining module would miss calls made through
names bound with ``from .x import y`` (``pipeline`` calls
``segment_sentences`` and ``encode_hashed_bow`` that way).

Spans are kept in memory as ``[name, start, end, parent, op, amount]`` lists
and written out by the caller when the run ends. ``amount`` is the work a
call was handed (characters, sentences, bytes), recorded at the boundary so
that rates are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path


def _first_len(args, kwargs):
    return len(args[0]) if args else 0


def _file_size(args, kwargs):
    return os.path.getsize(args[0]) if args else 0


# (module, function, amount-of-work function or None). Per-token helpers
# (tokenize_words, count_syllables, _hash64) are left out on purpose: at tens
# of thousands of calls per book a wrapper would distort what it measures.
TARGETS = [
    ("textstats", "segment_sentences", _first_len),  # characters
    ("textstats", "counts_from_sentences", None),
    ("textstats", "compute_counts", None),
    ("readability", "fres", None),
    ("readability", "fkg", None),
    ("readability", "smog", None),
    ("readability", "cli_index", None),
    ("readability", "ari", None),
    ("readability", "readability_vector", None),
    ("readability", "fit_scaler", None),
    ("readability", "apply_scaler", None),
    ("corpus", "load_corpus", None),
    ("corpus", "split_train_val", None),
    ("corpus", "select_section", None),
    ("embedding", "encode_hashed_bow", _first_len),  # sentences
    ("embedding", "load_embeddings", _file_size),  # bytes
    ("embedding", "write_embeddings", None),
    ("embedding", "chunk_average", None),
    ("embedding", "book_average", None),
    ("net", "init_params", None),
    ("net", "forward", None),
    ("net", "loss", None),
    ("net", "backward", None),
    ("net", "adam_step", None),
    ("net", "predict", None),
    ("net", "readability_output_gradient", None),
    ("net", "save_checkpoint", None),
    ("net", "load_checkpoint", None),
    ("metrics", "confusion_counts", None),
    ("metrics", "class_f1", None),
    ("metrics", "weighted_f1", None),
    ("pipeline", "featurize_book", None),
    ("pipeline", "featurize_corpus", None),
    ("pipeline", "train", None),
    ("pipeline", "predict_corpus", None),
    ("pipeline", "report_from_predictions", None),
    ("pipeline", "attribute_readability", None),
    ("pipeline", "feature_meta", None),
    ("pipeline", "config_from_feature_meta", None),
    ("synth", "make_token_corpus", None),
    ("synth", "make_readability_corpus", None),
    ("cli", "main", None),
]

NAME, START, END, PARENT, OP, AMOUNT = range(6)


class Tracer:
    """Records nested spans for calls into the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bookpred" or n.startswith("bookpred."))]
        self.wrapped, self.absent = [], []
        for module_name, func_name, amount in self.targets:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"bookpred.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, amount)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
            self.wrapped.append(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, fn, amount):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = amount(args, kwargs) if amount is not None else 0
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, work])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][START] = start
                spans[idx][END] = end

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, op: str, amount: float = 0):
        """A span opened by the benchmark itself (one per CLI operation)."""
        previous = self.op
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op, amount])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][START] = start
            self.spans[idx][END] = end
            self.op = previous

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "amount": s[AMOUNT]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so a span's children never overlap each other
    and their durations add up to the part of the parent they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_spans(spans: list[list], tolerance: float = 1e-9) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval,
    or a negative self time. An empty list means the tree is sound."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} ends before it starts")
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if s[START] < parent[START] - tolerance or s[END] > parent[END] + tolerance:
                problems.append(f"span {i} {s[NAME]} lies outside parent {p} {parent[NAME]}")
    for i, t in enumerate(self_times(spans)):
        if t < -tolerance:
            problems.append(f"span {i} {spans[i][NAME]} has negative self time {t}")
    return problems
