"""Span tracing of ustatkit from outside the package.

`Tracer.install()` wraps each layer's public functions wherever a ustatkit
module binds them (e.g. `ustatkit.harness.prefix_values` and
`ustatkit.ustat.prefix_values` get the same wrapper), so the program's
own code is untouched.  Each call records a span (name, start, end,
parent, thread, work) in a per-thread list; `Tracer.dump()` writes them
all when the run ends and `derive()` turns a dump into the per-layer
metrics.

Self time is the part of a span's interval in which it is the innermost
span of its thread.  While worker threads run the items of a parallel
map, each instant is shared equally among the threads busy at that
instant and the waiting map span gets none of it, so the self times of
all spans add up to the root span's duration at any thread count.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from math import comb
from time import perf_counter

import numpy as np

ROOT = "cli.main"
MAP = "parallel.map"
ITEM = "parallel.item"


# Work counters map a call's (args, kwargs, result) to the work it did.

def _summands(args, kwargs, result):
    h, sample = args[0], args[1]
    n = args[2] if len(args) > 2 and args[2] is not None else kwargs.get("N")
    return comb(len(sample) if n is None else int(n), h.arity)


def _result_size(args, kwargs, result):
    return np.asarray(result).size


def _pairs(args, kwargs, result):
    path = args[0]
    n = path.n if hasattr(path, "n") else len(path) - 1
    return n * (n + 1) // 2


def _ranks_drawn(args, kwargs, result):
    return result.size


def _ranks_given(args, kwargs, result):
    return np.asarray(args[0]).size


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# (span name, defining module, function, work counter or None)
FUNCTIONS = [
    ("ustat.prefix_values", "ustatkit.ustat", "prefix_values", _summands),
    ("ustat.ranked_term_sum", "ustatkit.ustat", "ranked_term_sum", None),
    ("kernels.evaluate_batch", "ustatkit.kernels", "evaluate_batch", _result_size),
    ("kernels.stream", "ustatkit.kernels", "stream", None),
    ("holder.holder_norm", "ustatkit.holder", "holder_norm", _pairs),
    ("holder.dyadic", "ustatkit.holder", "calibrate_epsilon", None),
    ("holder.dyadic", "ustatkit.holder", "dyadic_increment_exceedance", None),
    ("incomplete.draw_design", "ustatkit.incomplete", "draw_design", _ranks_drawn),
    ("incomplete.incomplete_ustat", "ustatkit.incomplete", "incomplete_ustat", None),
    ("combinatorics.unrank_many", "ustatkit.combinatorics", "unrank_many", _ranks_given),
    ("hoeffding.check_degeneracy", "ustatkit.hoeffding", "check_degeneracy", None),
    ("hoeffding.project_degenerate_level", "ustatkit.hoeffding",
     "project_degenerate_level", None),
    ("tails.conditional_moment_tail", "ustatkit.tails", "conditional_moment_tail", None),
    ("tails.norm_moment", "ustatkit.tails", "norm_moment", None),
    ("tails.tail_integral", "ustatkit.tails", "tail_integral", None),
    ("harness.run_experiment", "ustatkit.harness", "run_experiment", None),
    ("cli.write", "ustatkit.cli", "_write_json", _bytes_written),
    ("cli.write", "ustatkit.cli", "_write_csv", _bytes_written),
]

# methods are wrapped on their class, which every caller goes through
METHODS = [
    ("kernels.sample", "ustatkit.kernels", "Distribution", "sample", _result_size),
    ("spaces.norms", "ustatkit.spaces", "BanachSpaceDescriptor", "norms", None),
]


def _rebind(original, wrapper) -> None:
    """Point every ustatkit module attribute bound to `original` at `wrapper`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "ustatkit" or mod_name.startswith("ustatkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


class Tracer:
    """Records spans in memory; the thread that creates it is thread 0."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[list] = []  # per-thread span lists
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._thread_state()

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                tid = len(self._threads)
                self._threads.append([])
            state = self._local.state = (tid, self._threads[tid], [])
        return state

    def _call(self, name_id, fn, args, kwargs, work, parent=None):
        tid, spans, stack = self._thread_state()
        idx = len(spans)
        spans.append(None)
        if parent is None and stack:
            parent = stack[-1]
        stack.append((tid, idx))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name_id, start, end, parent, 0.0)
        if work is not None:
            spans[idx] = (name_id, start, end, parent, float(work(args, kwargs, result)))
        return result

    def traced(self, name: str, fn, work=None):
        """fn wrapped so that every call records a span called `name`."""
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            return self._call(name_id, fn, args, kwargs, work)

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_parallel_map(self, fn):
        """parallel_map wrapped: one map span, one item span per index.

        Items name the map span as parent, also when a worker thread runs them.
        """
        map_id, item_id = self._name_id(MAP), self._name_id(ITEM)

        def parallel_map(item_fn, count, threads=None):
            tid, spans, _ = self._thread_state()
            parent = (tid, len(spans))  # the slot the map span is about to take

            def item(i):
                return self._call(item_id, item_fn, (i,), {}, None, parent)

            return self._call(map_id, fn, (item, count, threads), {},
                              lambda a, k, r: count)

        parallel_map.__wrapped__ = fn
        return parallel_map

    def install(self) -> None:
        """Wrap every traced function and method of an imported ustatkit."""
        for name, mod_name, attr, work in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            _rebind(original, self.traced(name, original, work))
        for name, mod_name, cls_name, attr, work in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, attr, self.traced(name, getattr(cls, attr), work))
        original = importlib.import_module("ustatkit._parallel").parallel_map
        _rebind(original, self.traced_parallel_map(original))

    def root(self, fn, *args):
        """Run fn(*args) as the root span."""
        return self._call(self._name_id(ROOT), fn, args, {}, None)

    def dump(self, path: str) -> None:
        """Write every recorded span to an .npz file."""
        rows = [(tid, idx, span) for tid, spans in enumerate(self._threads)
                for idx, span in enumerate(spans)]
        if any(span is None for _, _, span in rows):
            raise RuntimeError("a traced call is still open")
        row_of = {(tid, idx): row for row, (tid, idx, _) in enumerate(rows)}
        np.savez(
            path,
            names=np.array(self._names),
            name=np.array([s[0] for _, _, s in rows], dtype=np.int32),
            thread=np.array([tid for tid, _, _ in rows], dtype=np.int32),
            start=np.array([s[1] for _, _, s in rows]),
            end=np.array([s[2] for _, _, s in rows]),
            parent=np.array([-1 if s[3] is None else row_of[s[3]] for _, _, s in rows],
                            dtype=np.int64),
            work=np.array([s[4] for _, _, s in rows]),
        )


# ---------------------------------------------------------------------------
# analysis


def self_times(name, thread, start, end, names) -> np.ndarray:
    """Self time of every span, shared across threads as the module says."""
    n_spans = name.size
    seg_from, seg_to, seg_span, seg_thread = [], [], [], []
    # per thread, spans are stored in start order and nest properly, so one
    # stack pass cuts each thread's time into innermost-span segments
    starts, ends = start.tolist(), end.tolist()
    for tid in np.unique(thread):
        rows = np.nonzero(thread == tid)[0]
        stack: list[int] = []
        cursor = 0.0
        for row in rows.tolist() + [None]:
            t = np.inf if row is None else starts[row]
            while stack and ends[stack[-1]] <= t:
                top = stack.pop()
                seg_from.append(cursor)
                seg_to.append(ends[top])
                seg_span.append(top)
                cursor = ends[top]
            if row is None:
                break
            if stack:
                seg_from.append(cursor)
                seg_to.append(t)
                seg_span.append(stack[-1])
            cursor = t
            stack.append(row)
        seg_thread.extend([tid] * (len(seg_span) - len(seg_thread)))
    seg_from = np.array(seg_from)
    seg_to = np.array(seg_to)
    seg_span = np.array(seg_span, dtype=np.int64)
    seg_thread = np.array(seg_thread)
    keep = seg_to > seg_from
    seg_from, seg_to, seg_span, seg_thread = (
        seg_from[keep], seg_to[keep], seg_span[keep], seg_thread[keep])

    out = np.zeros(n_spans)
    threads = np.unique(seg_thread)
    if threads.size <= 1:
        np.add.at(out, seg_span, seg_to - seg_from)
        return out

    # elementary intervals between all segment boundaries
    bounds = np.unique(np.concatenate([seg_from, seg_to]))
    lo, hi = bounds[:-1], bounds[1:]
    owners = np.full((threads.size, lo.size), -1, dtype=np.int64)
    for k, tid in enumerate(threads):
        mine = np.nonzero(seg_thread == tid)[0]
        order = mine[np.argsort(seg_from[mine])]
        pos = np.searchsorted(seg_from[order], lo, side="right") - 1
        ok = pos >= 0
        cand = order[np.where(ok, pos, 0)]
        ok &= seg_to[cand] >= hi
        owners[k] = np.where(ok, seg_span[cand], -1)
    active = owners >= 0
    # a map span waiting on its workers yields the instant to them
    map_id = names.index(MAP) if MAP in names else -1
    waiting = active & (name[np.where(active, owners, 0)] == map_id)
    others = active.sum(axis=0) - waiting.sum(axis=0)
    active &= ~(waiting & (others > 0))
    share = (hi - lo) / np.maximum(active.sum(axis=0), 1)
    for k in range(threads.size):
        sel = active[k]
        np.add.at(out, owners[k, sel], share[sel])
    return out


def derive(path: str) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    data = np.load(path)
    names = data["names"].tolist()
    name, thread = data["name"], data["thread"]
    start, end, parent, work = data["start"], data["end"], data["parent"], data["work"]
    dur = end - start
    own = self_times(name, thread, start, end, names)

    def sel(span: str) -> np.ndarray:
        return name == names.index(span) if span in names else np.zeros(name.size, bool)

    def calls(span):
        return float(sel(span).sum()), "count"

    def incl(span):
        return float(dur[sel(span)].sum()), "s"

    def self_s(span):
        return float(own[sel(span)].sum()), "s"

    def work_of(span):
        return float(work[sel(span)].sum()), "count"

    under_rts = sel("combinatorics.unrank_many") & (parent >= 0)
    under_rts[under_rts] = sel("ustat.ranked_term_sum")[parent[under_rts]]
    map_s = incl(MAP)[0]
    item_s = incl(ITEM)[0]
    wall = incl(ROOT)[0]
    metrics = {
        "ustat.prefix_values.calls": calls("ustat.prefix_values"),
        "ustat.prefix_values.s": incl("ustat.prefix_values"),
        "ustat.prefix_values.self_s": self_s("ustat.prefix_values"),
        "ustat.prefix_values.summands": work_of("ustat.prefix_values"),
        "ustat.ranked_term_sum.calls": calls("ustat.ranked_term_sum"),
        "ustat.ranked_term_sum.s": incl("ustat.ranked_term_sum"),
        "ustat.ranked_term_sum.terms": (float(work[under_rts].sum()), "count"),
        "kernels.evaluate_batch.calls": calls("kernels.evaluate_batch"),
        "kernels.evaluate_batch.s": incl("kernels.evaluate_batch"),
        "kernels.evals": work_of("kernels.evaluate_batch"),
        "kernels.stream.calls": calls("kernels.stream"),
        "kernels.stream.s": incl("kernels.stream"),
        "kernels.sample.s": incl("kernels.sample"),
        "kernels.sample.draws": work_of("kernels.sample"),
        "holder.holder_norm.calls": calls("holder.holder_norm"),
        "holder.holder_norm.s": incl("holder.holder_norm"),
        "holder.holder_norm.pairs": work_of("holder.holder_norm"),
        "holder.dyadic.s": incl("holder.dyadic"),
        "incomplete.draw_design.calls": calls("incomplete.draw_design"),
        "incomplete.draw_design.s": incl("incomplete.draw_design"),
        "incomplete.draw_design.self_s": self_s("incomplete.draw_design"),
        "incomplete.draw_design.ranks": work_of("incomplete.draw_design"),
        "incomplete.incomplete_ustat.s": incl("incomplete.incomplete_ustat"),
        "combinatorics.unrank_many.calls": calls("combinatorics.unrank_many"),
        "combinatorics.unrank_many.s": incl("combinatorics.unrank_many"),
        "combinatorics.unrank_many.ranks": work_of("combinatorics.unrank_many"),
        "hoeffding.check_degeneracy.calls": calls("hoeffding.check_degeneracy"),
        "hoeffding.check_degeneracy.s": incl("hoeffding.check_degeneracy"),
        "hoeffding.project_degenerate_level.s": incl("hoeffding.project_degenerate_level"),
        "tails.conditional_moment_tail.calls": calls("tails.conditional_moment_tail"),
        "tails.conditional_moment_tail.s": incl("tails.conditional_moment_tail"),
        "tails.norm_moment.s": incl("tails.norm_moment"),
        "tails.tail_integral.calls": calls("tails.tail_integral"),
        "tails.tail_integral.s": incl("tails.tail_integral"),
        "spaces.norms.calls": calls("spaces.norms"),
        "spaces.norms.s": incl("spaces.norms"),
        "parallel.map.s": (map_s, "s"),
        "parallel.items": work_of(MAP),
        "parallel.item_s": (item_s, "s"),
        "parallel.overlap": (item_s / map_s if map_s > 0 else 0.0, "ratio"),
        "harness.run_experiment.s": incl("harness.run_experiment"),
        "harness.self_s": self_s("harness.run_experiment"),
        "cli.write.s": incl("cli.write"),
        "cli.write.bytes": (work_of("cli.write")[0], "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_s": (float(own.sum()), "s"),
        "trace.spans": (float(name.size), "count"),
    }
    return metrics
