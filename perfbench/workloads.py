"""The four benchmark workloads.

A serving run is ``ROUNDS`` rounds of (set up, drive load from the
calling thread for ``seconds / ROUNDS``); a retrain-publish run sets up
``SETUPS`` times, then runs whole alternating rounds until the time is
spent.  Every output is checked outside the timed windows.  Untraced
runs return the end-to-end metrics; traced runs attach an
:class:`~repro.observability.Observability` handle to the engine and
return the per-layer metrics (see ``probe.py``).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.codecs import get_codec
from repro.core import SmartExchangeModel
from repro.core.reshape import from_matrices
from repro.datasets.synthetic import make_classification
from repro.nn.train import iterate_minibatches
from repro.observability import Observability
from repro.serving import (
    ArtifactStore,
    InferenceEngine,
    ModelRegistry,
    StaticBatchPolicy,
)

import bundle as B
import probe
from load import (
    SpanTally,
    closed_loop,
    offline_loop,
    percentile_ms,
    rebuild_counters,
    rebuild_metrics,
)

ROUNDS = 8
SETUPS = 5
BATCH = 8
MAX_WAIT_S = 0.002
OUTSTANDING = 32
POOL_PER_CLASS = 4  # 40 distinct request images
WARMUP_REQUESTS = 2 * OUTSTANDING
WARMUP_BATCHES = 2
OFFLINE_BATCHES = 64  # pre-formed batches, cycled
SPAN_CAPACITY = 1 << 16

RETRAIN_WIDTH = 0.125
RETRAIN_CLASSES = 8
RETRAIN_PER_CLASS = 8  # 64 training images: 8 steps per epoch
RETRAIN_BATCH = 8
RETRAIN_LR = 0.01


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb(extra_pids=()) -> float:
    """This process's peak RSS plus the live peak of ``extra_pids``."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def traced_note(e2e: Dict[str, Tuple[float, str]]) -> str:
    """End-to-end figures of a traced run, for the tracing overhead."""
    return "traced end-to-end: " + ", ".join(
        f"{name} {value:.4g}" for name, (value, _) in e2e.items())


def request_pool(seed: int) -> np.ndarray:
    data = make_classification(
        "perfbench-requests", B.NUM_CLASSES, B.IMAGE_SIZE,
        train_per_class=POOL_PER_CLASS, test_per_class=1, seed=seed,
    )
    return data.train_images


# ----------------------------------------------------------------------
# Serving workloads: warm-thread, rebuild-on-read, warm-process
# ----------------------------------------------------------------------
@dataclass
class ServingSetup:
    dense: nn.Module
    bundle: B.PublishedBundle
    engine: InferenceEngine
    seconds: float
    place_ms: float = 0.0
    start_ms: float = 0.0

    def close(self) -> None:
        try:
            self.engine.close()
        finally:
            self.bundle.registry.close()  # also unlinks the arena it placed
            shutil.rmtree(self.bundle.store.root, ignore_errors=True)


def setup_serving(
    workload: str,
    seed: int,
    workdir: str,
    pool: np.ndarray,
    observability: Optional[Observability],
) -> ServingSetup:
    start = time.perf_counter()
    dense = B.build_model(seed)
    bundle = B.publish_mixed(dense, tempfile.mkdtemp(dir=workdir), "vgg11")
    handle = bundle.handle
    engine = InferenceEngine(
        B.build_model(seed + 1),  # weights must come from the bundle
        handle,
        policy=StaticBatchPolicy(max_batch_size=BATCH, max_wait_s=MAX_WAIT_S),
        cache_bytes=(
            handle.total_dense_bytes // 2 if workload == "rebuild-on-read" else None
        ),
        observability=observability,
    )
    setup = ServingSetup(dense, bundle, engine, 0.0)
    warm_rng = np.random.default_rng(seed + 1)
    if workload == "rebuild-on-read":
        for _ in range(WARMUP_BATCHES):
            engine.predict(pool[warm_rng.integers(len(pool), size=BATCH)])
    else:
        if workload == "warm-thread":
            engine.rebuild.warm()
            engine.start(workers=nproc())
        else:
            t0 = time.perf_counter()
            arena = bundle.registry.arena(handle.name, handle.version)
            t1 = time.perf_counter()
            engine.start(workers=1, backend="process", arena=arena)
            setup.start_ms = (time.perf_counter() - t1) * 1e3
            setup.place_ms = (t1 - t0) * 1e3
        closed_loop(engine, pool, warm_rng, None, OUTSTANDING, WARMUP_REQUESTS)
    setup.seconds = time.perf_counter() - start
    return setup


def run_serving(workload: str, seed: int, seconds: float, trace: bool,
                workdir: str, rounds: int = ROUNDS) -> Result:
    """``rounds`` rounds of (set up, measure ``seconds / rounds``).

    Spreading set-ups and timed windows over the whole run and taking
    medians over rounds limits how far a few seconds of host slowdown
    move the result.
    """
    pool = request_pool(seed)
    rng = np.random.default_rng(seed)
    batches = [rng.integers(len(pool), size=BATCH) for _ in range(OFFLINE_BATCHES)]
    obs = Observability(trace_capacity=SPAN_CAPACITY) if trace else None
    tally = SpanTally()
    progress = (lambda: tally.add(obs.collector.drain())) if trace else None
    timings: Dict[str, list] = defaultdict(list)
    result = Result()
    reference = None
    latencies: List[float] = []
    counters = np.zeros(4, dtype=np.int64)
    rss = 0.0
    current: Optional[ServingSetup] = None
    try:
        for round_index in range(rounds):
            current = setup_serving(workload, seed, workdir, pool, obs)
            timings["setup_s"].append(current.seconds)
            timings["publish_s"].append(current.bundle.publish_s)
            timings["bundle_bytes"].append(current.bundle.bundle_bytes)
            timings["artifacts.publish_ms"].append(current.bundle.publish_ms)
            timings["artifacts.verify_ms"].append(current.bundle.verify_ms)
            timings["registry.get_ms"].append(current.bundle.get_ms)
            timings["procpool.start_ms"].append(current.start_ms)
            timings["arena.place_ms"].append(current.place_ms)
            engine = current.engine
            if obs is not None:
                obs.collector.drain()
            before = rebuild_counters(engine)
            if workload == "rebuild-on-read":
                load = offline_loop(engine, pool, batches, seconds / rounds,
                                    progress)
            else:
                load = closed_loop(engine, pool, rng, seconds / rounds,
                                   OUTSTANDING, on_progress=progress)
            counters += np.subtract(rebuild_counters(engine), before)
            rss = max(rss, peak_rss_mb(engine.worker_pids()))
            if progress is not None:
                progress()

            # Checks, outside the timed window.  Publishing is
            # deterministic, so one reference serves every round.
            if reference is None:
                reference = B.reference_forward(
                    current.dense, current.bundle.reference_weights, pool
                )
            result.attempted += load.attempted
            mismatched = sum(
                B.row_mismatch(row, reference[index]) for index, row in load.rows
            )
            result.failed += load.failed + mismatched
            decoded = {n: engine.rebuild.layer_weight(n)
                       for n in current.bundle.handle.layer_codecs}
            violations = B.property_violations(current.bundle.handle, decoded)
            if mismatched:
                violations.append(f"{mismatched} outputs differ from the reference")
            timed = load.timed()
            if timed:
                timings["rate"].append(len(timed) / load.span())
                timings["p50"].append(float(np.percentile(timed, 50)) * 1e3)
                latencies += timed
            else:
                violations.append("no request completed in the timed window")
            result.notes += [f"round {round_index}: {v}" for v in violations]
            result.correct &= not violations
            if round_index < rounds - 1 or not trace:
                current.close()
                current = None
                gc.collect()
        if not result.correct:
            return result

        p95 = float(np.percentile(latencies, 95)) * 1e3
        tail_batches = sum(1 for x in latencies if x * 1e3 > p95) / BATCH
        result.notes.append(
            "set-up s: " + " ".join(f"{t:.3f}" for t in timings["setup_s"])
            + "; publish s: " + " ".join(f"{t:.3f}" for t in timings["publish_s"])
            + "; rps: " + " ".join(f"{t:.1f}" for t in timings["rate"])
            + "; p50 ms: " + " ".join(f"{t:.1f}" for t in timings["p50"])
        )
        result.notes.append(
            f"{len(latencies)} timed requests in {counters[3]} batches; "
            f"about {tail_batches:.0f} batches beyond p95"
        )
        e2e = {
            "throughput_rps": (statistics.median(timings["rate"]), "1/s"),
            "latency_p50_ms": (statistics.median(timings["p50"]), "ms"),
            "latency_p95_ms": (p95, "ms"),
            "setup_s": (statistics.median(timings["setup_s"]), "s"),
            "peak_rss_mb": (rss, "MB"),
            "publish_s": (statistics.median(timings["publish_s"]), "s"),
            "bundle_bytes": (float(timings["bundle_bytes"][-1]), "bytes"),
        }
        if not trace:
            result.metrics = e2e
            return result
        result.notes.append(traced_note(e2e))
        traffic = tally.metrics()
        traffic.update(rebuild_metrics(counters))
        setup_layers = ["artifacts.publish_ms", "artifacts.verify_ms",
                        "registry.get_ms"]
        if workload == "warm-process":
            setup_layers += ["procpool.start_ms", "arena.place_ms"]
        for name in setup_layers:
            traffic[name] = (statistics.median(timings[name]), "ms")
        current.engine.stop()
        result.metrics = probe.all_layers(
            current.dense, current.bundle.handle, pool, skip=traffic
        )
        result.metrics.update(traffic)
        return result
    finally:
        if current is not None:
            current.close()


# ----------------------------------------------------------------------
# retrain-publish: one SmartExchange alternating round per operation
# ----------------------------------------------------------------------
@dataclass
class RetrainSetup:
    model: nn.Module
    wrapper: SmartExchangeModel
    optimizer: nn.SGD
    images: np.ndarray
    labels: np.ndarray
    store: ArtifactStore
    registry: ModelRegistry
    seconds: float

    def close(self) -> None:
        self.registry.close()
        shutil.rmtree(self.store.root, ignore_errors=True)


def train_step(setup: RetrainSetup, images, labels) -> Tuple[float, float]:
    """One SGD step; returns (step seconds, backward seconds)."""
    start = time.perf_counter()
    setup.optimizer.zero_grad()
    loss = nn.cross_entropy(setup.model(nn.Tensor(images)), labels)
    before_backward = time.perf_counter()
    loss.backward()
    after_backward = time.perf_counter()
    setup.optimizer.step()
    return time.perf_counter() - start, after_backward - before_backward


def setup_retrain(seed: int, workdir: str) -> RetrainSetup:
    start = time.perf_counter()
    data = make_classification(
        "perfbench-retrain", RETRAIN_CLASSES, B.IMAGE_SIZE,
        train_per_class=RETRAIN_PER_CLASS, test_per_class=1, seed=seed,
    )
    model = B.build_model(seed, width=RETRAIN_WIDTH)
    store = ArtifactStore(tempfile.mkdtemp(dir=workdir))
    setup = RetrainSetup(
        model=model,
        wrapper=SmartExchangeModel(model, B.SE_CONFIG, model_name="retrain"),
        optimizer=nn.SGD(model.parameters(), lr=RETRAIN_LR, momentum=0.9),
        images=data.train_images,
        labels=data.train_labels,
        store=store,
        registry=ModelRegistry(store),
        seconds=0.0,
    )
    # Lazy set-up (first-call allocations) finishes before timing.
    model.train()
    train_step(setup, data.train_images[:RETRAIN_BATCH],
               data.train_labels[:RETRAIN_BATCH])
    setup.seconds = time.perf_counter() - start
    return setup


def basis_quantization_bound(layer) -> np.ndarray:
    """Elementwise bound on |projected - stored| from the 8-bit basis:
    each basis entry moves by at most half its quantization step."""
    matrices = []
    for d in layer.decompositions:
        half_step = np.abs(d.basis).max() / (2 ** (B.SE_CONFIG.b_bits - 1) - 1) / 2
        matrices.append(np.abs(d.coefficient) @ np.full(d.basis.shape, half_step))
    return from_matrices(matrices, layer.plan)


def retrain_round(setup: RetrainSetup, rng, stats: Dict[str, list]) -> List[str]:
    """Train one epoch, project, publish, verify, load; return problems."""
    model = setup.model
    model.train()
    for images, labels in iterate_minibatches(
        setup.images, setup.labels, RETRAIN_BATCH, rng
    ):
        step, backward = train_step(setup, images, labels)
        stats["step"].append(step)
        stats["backward"].append(backward)
        stats["samples"].append(len(labels))
    model.eval()
    t0 = time.perf_counter()
    report = setup.wrapper.project()
    t1 = time.perf_counter()
    manifest = setup.store.publish(report, B.SE_CONFIG, name="retrain", model=model)
    t2 = time.perf_counter()
    setup.store.verify("retrain", manifest.version)
    t3 = time.perf_counter()
    handle = setup.registry.get("retrain", manifest.version)
    t4 = time.perf_counter()
    stats["publish_s"].append(t4 - t0)
    stats["project_s"].append(t1 - t0)
    stats["publish_ms"].append((t2 - t1) * 1e3)
    stats["verify_ms"].append((t3 - t2) * 1e3)
    stats["get_ms"].append((t4 - t3) * 1e3)
    stats["bundle_bytes"].append(manifest.bundle_bytes)

    # Checks, outside the timed window.
    problems = B.property_violations(handle, {})
    modules = dict(B.weight_layers(model))
    for layer in report.layers:
        payload = handle.payloads[layer.name]
        reloaded = get_codec(payload.codec).decode(payload).reshape(
            modules[layer.name].weight.shape
        )
        projected = modules[layer.name].weight.data
        bound = basis_quantization_bound(layer).reshape(projected.shape)
        if np.any(np.abs(reloaded - projected) > bound + 1e-12):
            problems.append(f"{layer.name}: reloaded weight != projected weight")
    if not manifest.bundle_bytes < manifest.dense_bytes:
        problems.append(
            f"bundle {manifest.bundle_bytes} B not below dense "
            f"{manifest.dense_bytes} B"
        )
    setup.registry.unload("retrain", manifest.version)
    handle.close()
    return problems


def run_retrain(seed: int, seconds: float, trace: bool, workdir: str,
                setups: int = SETUPS) -> Result:
    setup_times = []
    current: Optional[RetrainSetup] = None
    try:
        for _ in range(setups):
            if current is not None:
                current.close()
                gc.collect()
            current = setup_retrain(seed, workdir)
            setup_times.append(current.seconds)
        rng = np.random.default_rng(seed)
        stats: Dict[str, list] = defaultdict(list)
        result = Result()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            result.attempted += 1
            try:
                problems = retrain_round(current, rng, stats)
            except Exception as error:  # a failed round is counted, not fatal
                problems = [f"round raised {type(error).__name__}: {error}"]
            if problems:
                result.failed += 1
                result.correct = False
                result.notes += problems
        rss = peak_rss_mb()
        steps = stats["step"]
        result.notes.append(
            f"{result.attempted} rounds, {len(steps)} train steps; publish s: "
            + " ".join(f"{t:.3f}" for t in stats["publish_s"])
            + "; set-up s: " + " ".join(f"{t:.3f}" for t in setup_times)
        )
        if not stats["publish_s"]:
            result.correct = False
            return result
        e2e = {
            "throughput_rps": (sum(stats["samples"]) / sum(steps), "1/s"),
            "latency_p50_ms": (percentile_ms(steps, 50), "ms"),
            "latency_p95_ms": (percentile_ms(steps, 95), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MB"),
            "publish_s": (statistics.median(stats["publish_s"]), "s"),
            "bundle_bytes": (float(stats["bundle_bytes"][-1]), "bytes"),
        }
        if not trace:
            result.metrics = e2e
            return result
        result.notes.append(traced_note(e2e))
        traffic = {
            "nn.train_step_ms": (statistics.median(steps) * 1e3, "ms"),
            "nn.backward_ms": (statistics.median(stats["backward"]) * 1e3, "ms"),
            "core.project_s": (statistics.median(stats["project_s"]), "s"),
            "artifacts.publish_ms": (statistics.median(stats["publish_ms"]), "ms"),
            "artifacts.verify_ms": (statistics.median(stats["verify_ms"]), "ms"),
            "registry.get_ms": (statistics.median(stats["get_ms"]), "ms"),
        }
        # The serving-side layers are probed on a mixed-codec bundle of
        # the retrained model.
        pool = request_pool(seed)
        published = B.publish_mixed(
            current.model, tempfile.mkdtemp(dir=workdir), "retrained"
        )
        try:
            result.metrics = probe.all_layers(
                current.model, published.handle, pool, skip=traffic
            )
        finally:
            published.registry.close()
            shutil.rmtree(published.store.root, ignore_errors=True)
        result.metrics.update(traffic)
        return result
    finally:
        if current is not None:
            current.close()


SERVING_WORKLOADS = ("warm-thread", "rebuild-on-read", "warm-process")
WORKLOADS = SERVING_WORKLOADS + ("retrain-publish",)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        smoke: bool = False) -> Result:
    """Run one workload; ``smoke`` cuts it to a single set-up."""
    if workload == "retrain-publish":
        return run_retrain(seed, seconds, trace, workdir, 1 if smoke else SETUPS)
    return run_serving(workload, seed, seconds, trace, workdir,
                       1 if smoke else ROUNDS)
