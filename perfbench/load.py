"""Load generators and span bookkeeping shared by workloads and probes."""

from __future__ import annotations

import queue
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving import InferenceEngine

TICKET_TIMEOUT_S = 30.0
DRAIN_EVERY = 512


def percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1e3


# ----------------------------------------------------------------------
# Span bookkeeping for traced serving runs
# ----------------------------------------------------------------------
class SpanTally:
    """Folds drained spans into the per-layer serving figures."""

    def __init__(self) -> None:
        self.queue_wait: List[float] = []
        self.batches = 0.0  # each request adds 1 / its batch's size
        self.rebuild: List[float] = []
        self.request: Dict[str, float] = {}
        self.phases: Dict[str, float] = defaultdict(float)

    def add(self, spans) -> None:
        for span in spans:
            duration = span["duration_s"]
            if duration is None:
                continue
            name, tags, trace = span["name"], span["tags"], span["trace_id"]
            if name == "request":
                self.request[trace] = duration
            elif name in ("queue_wait", "rebuild", "compute"):
                self.phases[trace] += duration
                if name == "queue_wait":
                    self.queue_wait.append(duration)
                    self.batches += 1.0 / tags["batch_size"]
                elif name == "rebuild" and not tags.get("shared"):
                    self.rebuild.append(duration)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out = {}
        if self.rebuild:
            out["rebuild.layer_weight_ms"] = (
                statistics.median(self.rebuild) * 1e3, "ms")
        if self.queue_wait:
            out["batching.queue_wait_ms_p50"] = (
                statistics.median(self.queue_wait) * 1e3, "ms")
            out["batching.batch_size_mean"] = (
                len(self.queue_wait) / self.batches, "count")
        transit = [
            latency - self.phases[trace]
            for trace, latency in self.request.items()
            if trace in self.phases
        ]
        if transit:
            out["procpool.transit_ms_p50"] = (statistics.median(transit) * 1e3, "ms")
        return out


def rebuild_counters(engine: InferenceEngine) -> Tuple[int, int, int, int]:
    stats = engine.rebuild.stats
    return stats.hits, stats.misses, stats.rebuilds, engine.stats.batch_count


def rebuild_metrics(counters) -> Dict[str, Tuple[float, str]]:
    """Hit ratio and rebuilds per batch from summed counter deltas."""
    hits, misses, rebuilds, batches = (int(c) for c in counters)
    return {
        "rebuild.hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "rebuild.rebuilds_per_batch": (rebuilds / max(1, batches), "count"),
    }


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
@dataclass
class Load:
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)
    rows: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    start: float = 0.0
    seconds: float = 0.0

    def timed(self) -> List[float]:
        """Latencies of requests that completed inside the timed window
        (the drain after it is checked but not timed)."""
        end = self.start + self.seconds
        return [lat for lat, done in zip(self.latencies, self.finished) if done < end]

    def span(self) -> float:
        """Seconds from the window's start to its last timed completion."""
        end = self.start + self.seconds
        return max(done for done in self.finished if done < end) - self.start


def closed_loop(
    engine: InferenceEngine,
    pool: np.ndarray,
    rng: np.random.Generator,
    seconds: Optional[float],
    outstanding: int,
    requests: Optional[int] = None,
    on_progress: Optional[Callable[[], None]] = None,
) -> Load:
    """Keep ``outstanding`` requests in flight until the deadline (or
    until ``requests`` were sent), then drain.  Each request is timed
    from submit to the worker completing its ticket."""
    load = Load()
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    inflight: Dict[int, Tuple[int, float]] = {}

    def complete(ticket) -> None:
        done.put((ticket, time.perf_counter()))

    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    def submit() -> None:
        index = int(rng.integers(len(pool)))
        load.attempted += 1
        sent = time.perf_counter()
        try:
            ticket = engine.submit(pool[index])
        except Exception:
            load.failed += 1
            return
        inflight[ticket.request_id] = (index, sent)
        ticket.add_done_callback(complete)

    def more() -> bool:
        if requests is not None:
            return load.attempted < requests
        return time.perf_counter() < deadline

    for _ in range(outstanding):
        if more():
            submit()
    load.start, load.seconds = start, seconds or 0.0
    completions = 0
    while inflight:
        try:
            ticket, finished = done.get(timeout=TICKET_TIMEOUT_S)
        except queue.Empty:
            load.failed += len(inflight)  # timed out: each counts as failed
            break
        completions += 1
        index, sent = inflight.pop(ticket.request_id)
        try:
            row = ticket.result(timeout=0)
        except Exception:
            load.failed += 1
        else:
            load.latencies.append(finished - sent)
            load.finished.append(finished)
            load.rows.append((index, row))
        if on_progress is not None and completions % DRAIN_EVERY == 0:
            on_progress()
        if more():
            submit()
    return load


def offline_loop(
    engine: InferenceEngine,
    pool: np.ndarray,
    batches: List[np.ndarray],
    seconds: float,
    on_progress: Optional[Callable[[], None]] = None,
) -> Load:
    """Run pre-formed batches through ``predict`` until the deadline."""
    load = Load()
    start = time.perf_counter()
    load.start, load.seconds = start, seconds
    deadline = start + seconds
    step = 0
    while time.perf_counter() < deadline:
        indices = batches[step % len(batches)]
        step += 1
        load.attempted += len(indices)
        sent = time.perf_counter()
        try:
            out = engine.predict(pool[indices])
        except Exception:
            load.failed += len(indices)
            continue
        finished = time.perf_counter()
        for index, row in zip(indices, out):
            load.latencies.append(finished - sent)
            load.finished.append(finished)
            load.rows.append((int(index), row))
        if on_progress is not None and step % (DRAIN_EVERY // 8) == 0:
            on_progress()
    return load
