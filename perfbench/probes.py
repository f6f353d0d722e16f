"""Measurement helpers for the benchmark: an in-memory span tracer, a
process-tree RSS sampler, and order-independent table digests."""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written once at
    exit. A disabled tracer records nothing, so the untraced run pays only
    the cost of entering a no-op context manager."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span_id = len(self.spans)
        rec = {"id": span_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(span_id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                d = s["end"] - s["start"] - child[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + d
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; the ppid follows its ")"
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry.name))
    return kids


def tree_pids(root: int) -> list[int]:
    """``root`` and all its descendants (Ray's GCS, raylet and workers
    descend from the driver process)."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def tree_rss_bytes(root: int) -> int:
    """Sum of VmRSS over ``root``'s process tree. Shared pages count once
    per process that maps them."""
    total = 0
    page = os.sysconf("SC_PAGE_SIZE")
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            continue
    return total


def wait_gone(pids, timeout_s: float) -> None:
    """Wait until every pid has exited; SIGKILL what is left at the
    deadline and wait for that too."""
    deadline = time.monotonic() + timeout_s
    left = set(pids)
    while left:
        left = {p for p in left if os.path.exists(f"/proc/{p}")
                and not _is_zombie(p)}
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.05)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return True
    return stat[stat.rindex(")") + 2] == "Z"


class RssSampler:
    """Background thread recording the peak process-tree RSS."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        pid = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(pid))
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss_bytes(os.getpid()))


def row_hashes(table: pa.Table, columns) -> np.ndarray:
    """One uint64 per row over ``columns`` (values, not positions)."""
    df = table.select(list(columns)).to_pandas()
    return pd.util.hash_pandas_object(df, index=False).to_numpy()


def digest(hashes: np.ndarray) -> tuple[int, int]:
    """Order-independent multiset digest: (row count, sum of row hashes
    mod 2**64)."""
    return len(hashes), int(hashes.sum(dtype=np.uint64))
