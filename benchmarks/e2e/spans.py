"""In-memory span recorder for the traced runs, plus the merge step.

The benchmark measures the program from outside: it replaces public
callables with thin wrappers that time each call (``perf_counter_ns``,
a system-wide monotonic clock on Linux, so spans from several
processes share one time axis).  Two wrapper kinds exist:

* **full spans** record ``(name, start, end, id, parent, pid, tid,
  request id, child time)`` for every call — layer boundaries that run
  a few thousand times per run at most;
* **leaf spans** wrap the per-episode hot calls (rollout, learn,
  pricing).  They only add to a per-name call count and total, and
  charge their duration to the enclosing span, because one record per
  episode would cost more than the work being measured.

Self time is a span's duration minus the part its children cover.
Spans stay in memory and are appended to ``<trace_dir>/spans-<pid>.jsonl``
after each top-level job span, when the buffer grows large, and at exit;
:func:`write_outputs` merges the files into a Chrome trace and a
per-name table.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import threading
import time
from itertools import count
from pathlib import Path

from .harness import timing_summary

_clock = time.perf_counter_ns

#: Buffered span records before a flush to disk.
FLUSH_EVERY = 4096


class Recorder:
    """Collects spans for one process (fork-safe: a forked child drops
    the parent's unflushed buffer and writes its own file)."""

    def __init__(self, trace_dir: str | Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._ids = count(1)
        self._spans: list[list] = []
        self._aggs: dict[str, list[int]] = {}
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)
        atexit.register(self.flush)

    def _after_fork(self) -> None:
        self._spans.clear()
        for agg in self._aggs.values():
            agg[0] = agg[1] = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [[0, 0, None]]
        return stack

    # -- wrappers ------------------------------------------------------------

    def full(self, fn, name: str, reqid_of=None, flush_after: bool = False):
        """Wrap ``fn`` so each call records one span."""
        spans, ids, stack_of = self._spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            reqid = reqid_of(args) if reqid_of is not None else parent[2]
            frame = [next(ids), 0, reqid]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent[1] += end - start
                spans.append(
                    [name, start, end, frame[0], parent[0], threading.get_ident(),
                     reqid, frame[1]]
                )
                if (flush_after and len(stack) == 1) or len(spans) >= FLUSH_EVERY:
                    self.flush()

        return wrapper

    def leaf(self, fn, name: str):
        """Wrap a hot leaf: count and total only, charged to the parent."""
        agg = self._aggs.setdefault(name, [0, 0])
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                agg[0] += 1
                agg[1] += duration
                stack_of()[-1][1] += duration

        return wrapper

    # -- output --------------------------------------------------------------

    def flush(self) -> None:
        """Append buffered spans and leaf totals to this process's file."""
        with self._lock:
            # Delete exactly what was copied: other threads may append
            # between the two statements.
            spans = self._spans[:]
            del self._spans[: len(spans)]
            aggs = {n: (a[0], a[1]) for n, a in self._aggs.items() if a[0]}
            for agg in self._aggs.values():
                agg[0] = agg[1] = 0
            pid = os.getpid()
            lines = [json.dumps([pid, *span]) for span in spans]
            lines += [
                json.dumps({"agg": name, "calls": calls, "ns": ns})
                for name, (calls, ns) in aggs.items()
            ]
            if not lines:
                return
            with open(self.trace_dir / f"spans-{pid}.jsonl", "a") as out:
                out.write("\n".join(lines) + "\n")


def _resolve(path: str):
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object."""
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def patch(recorder: Recorder, name: str, owners: list[str], attr: str,
          kind: str = "full", **options) -> None:
    """Replace ``attr`` on every owner with ONE wrapper of the first
    owner's callable (one object, so pickling by reference still works
    for functions shipped to process pools)."""
    first = _resolve(owners[0])
    raw = first.__dict__[attr] if isinstance(first, type) else getattr(first, attr)
    wrap_kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if wrap_kind else raw
    wrapped = (
        recorder.leaf(fn, name) if kind == "leaf" else recorder.full(fn, name, **options)
    )
    if wrap_kind:
        wrapped = wrap_kind(wrapped)
    for owner in owners:
        setattr(_resolve(owner), attr, wrapped)


# -- merge ---------------------------------------------------------------------


def read_spans(trace_dir: str | Path) -> tuple[list[list], dict]:
    """All span records and summed leaf totals ``{name: [calls, ns]}``
    of a trace directory."""
    spans, aggs = [], {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if isinstance(item, list):
                spans.append(item)
            else:
                total = aggs.setdefault(item["agg"], [0, 0])
                total[0] += item["calls"]
                total[1] += item["ns"]
    return spans, aggs


def layer_table(spans: list[list], aggs: dict, wall_s: float) -> dict:
    """Per span name: calls, total and self seconds, self share of
    ``wall_s`` (summed over processes) and the call-time summary."""
    table: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for _pid, name, start, end, _id, _parent, _tid, _req, child in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child) / 1e9
        durations.setdefault(name, []).append((end - start) / 1e9)
    for name, (calls, ns) in aggs.items():
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["total_s"] += ns / 1e9
        row["self_s"] += ns / 1e9
    for name, row in table.items():
        row["self_share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        row["time"] = timing_summary(durations.get(name, []))
    return table


def chrome_trace(spans: list[list]) -> dict:
    """The span records as a Chrome-trace (``chrome://tracing``) document."""
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": start / 1e3,
            "dur": (end - start) / 1e3,
            "pid": pid,
            "tid": tid,
            "args": {"id": span_id, "parent": parent, "request": reqid},
        }
        for pid, name, start, end, span_id, parent, tid, reqid, _child in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_table(table: dict) -> str:
    """The per-layer self-time table as aligned text."""
    header = f"{'span':40} {'calls':>9} {'self s':>9} {'share':>7}  call time"
    lines = [header, "-" * len(header)]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        t = row["time"]
        if not t["n"]:
            when = "aggregated"
        elif t["pct"] == 50.0:
            when = f"p50 {t['median'] * 1e3:.3f} ms (n={t['n']})"
        else:
            when = (
                f"p50 {t['median'] * 1e3:.3f} ms, p{t['pct']:g} {t['tail'] * 1e3:.3f} ms"
                f" (n={t['n']})"
            )
        lines.append(
            f"{name:40} {row['calls']:>9} {row['self_s']:>9.3f} "
            f"{row['self_share']:>7.3f}  {when}"
        )
    return "\n".join(lines)


def write_outputs(trace_dir: str | Path, wall_s: float) -> dict:
    """Merge a trace directory into ``trace.json`` and ``layers.txt``;
    returns the per-name table."""
    trace_dir = Path(trace_dir)
    spans, aggs = read_spans(trace_dir)
    table = layer_table(spans, aggs, wall_s)
    (trace_dir / "trace.json").write_text(json.dumps(chrome_trace(spans)))
    (trace_dir / "layers.txt").write_text(render_table(table) + "\n")
    return table
