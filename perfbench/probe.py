"""Per-layer probes for traced runs.

Each probe times calls into one layer's public functions, from here,
on the workload's own model and bundle.  A workload's traced traffic
supplies the per-layer figures it exercises itself; ``all_layers`` fills
in the rest, so every traced run reports every per-layer metric.  The
program itself gains no instrumentation.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from typing import Dict, Mapping, Tuple

import numpy as np

from repro import nn
from repro.codecs import get_codec
from repro.core import SmartExchangeModel
from repro.nn import functional as F
from repro.observability import Observability
from repro.serving import (
    CompressedModelHandle,
    InferenceEngine,
    SharedPayloadArena,
    StaticBatchPolicy,
)

import bundle as B
from load import SpanTally, closed_loop, rebuild_counters, rebuild_metrics

REPEATS = 5
PROBE_BATCH = 8
PROBE_OUTSTANDING = 16
PROBE_REQUESTS = 256
PROBE_REBUILD_BATCHES = 8

Metrics = Dict[str, Tuple[float, str]]


def _median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def codec_decode(handle: CompressedModelHandle) -> Metrics:
    """Decode time of each codec's layers in the bundle, summed."""
    by_codec: Dict[str, list] = {codec: [] for codec in B.CODECS}
    for layer, codec in handle.layer_codecs.items():
        by_codec[codec].append(handle.payloads[layer])

    def decode_all(payloads) -> None:
        for payload in payloads:
            get_codec(payload.codec).decode(payload)

    return {
        f"codecs.{codec}.decode_ms": (_median_ms(lambda: decode_all(p)), "ms")
        for codec, p in by_codec.items()
    }


def layer_inputs(model: nn.Module, x: np.ndarray) -> Dict[str, np.ndarray]:
    """The input each conv / linear layer of a VGG sees for batch ``x``."""
    names = {id(module): name for name, module in model.named_modules()}
    inputs = {}
    for layer in model.features:
        if isinstance(layer, nn.Conv2d):
            inputs[names[id(layer)]] = x
        x = layer(x).data
    x = model.flatten(model.pool(nn.Tensor(x))).data
    for layer in model.classifier:
        if isinstance(layer, nn.Linear):
            inputs[names[id(layer)]] = x
        x = layer(x).data
    return inputs


def forward(model: nn.Module, batch: np.ndarray) -> Metrics:
    model.eval()
    out: Metrics = {
        "nn.forward_ms": (_median_ms(lambda: model(batch)), "ms"),
    }
    modules = dict(B.weight_layers(model))
    inputs = layer_inputs(model, batch)
    for name, x in inputs.items():
        module = modules[name]
        out[f"nn.{name}.forward_ms"] = (_median_ms(lambda: module(x)), "ms")
    # The conv with the most multiply-accumulates per sample (first on ties).
    largest = max(
        (name for name in inputs if isinstance(modules[name], nn.Conv2d)),
        key=lambda name: modules[name].weight.data.size
        * inputs[name].shape[2] * inputs[name].shape[3],
    )
    conv, x = modules[largest], inputs[largest]
    k = conv.kernel_size
    out["functional.im2col_ms"] = (
        _median_ms(lambda: F.im2col(x, k, k, conv.stride, conv.padding)), "ms")
    out["functional.conv2d_ms"] = (
        _median_ms(lambda: F.conv2d(nn.Tensor(x), conv.weight, None,
                                    conv.stride, conv.padding)), "ms")
    tracemalloc.start()
    try:
        model(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["nn.forward_alloc_peak_mb"] = (peak / 2**20, "MB")
    return out


def train(model: nn.Module, batch: np.ndarray) -> Metrics:
    """SGD steps on a copy of ``model`` with seeded labels."""
    model = model.clone()
    model.train()
    optimizer = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)
    labels = np.random.default_rng(0).integers(B.NUM_CLASSES, size=len(batch))
    steps, backwards = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        optimizer.zero_grad()
        loss = nn.cross_entropy(model(nn.Tensor(batch)), labels)
        mid = time.perf_counter()
        loss.backward()
        backwards.append(time.perf_counter() - mid)
        optimizer.step()
        steps.append(time.perf_counter() - start)
    return {
        "nn.train_step_ms": (statistics.median(steps) * 1e3, "ms"),
        "nn.backward_ms": (statistics.median(backwards) * 1e3, "ms"),
    }


def project(model: nn.Module) -> Metrics:
    wrapper = SmartExchangeModel(model.clone(), B.SE_CONFIG)
    start = time.perf_counter()
    wrapper.project()
    return {"core.project_s": (time.perf_counter() - start, "s")}


def process_serving(
    model: nn.Module, handle: CompressedModelHandle, pool: np.ndarray
) -> Metrics:
    """A short closed loop on a one-worker process pool."""
    obs = Observability(trace_capacity=1 << 14)
    engine = InferenceEngine(
        model.clone(), handle,
        policy=StaticBatchPolicy(max_batch_size=PROBE_BATCH, max_wait_s=0.002),
        observability=obs,
    )
    start = time.perf_counter()
    arena = SharedPayloadArena.from_payloads(handle.payloads, key=handle.key)
    placed = time.perf_counter()
    try:
        engine.start(workers=1, backend="process", arena=arena)
        started = time.perf_counter()
        rng = np.random.default_rng(1)
        try:
            closed_loop(engine, pool, rng, None, PROBE_OUTSTANDING,
                        requests=PROBE_REQUESTS)
        finally:
            engine.close()
    finally:
        arena.close()
    tally = SpanTally()
    tally.add(obs.collector.drain())
    out = tally.metrics()
    out.pop("rebuild.layer_weight_ms", None)
    out["procpool.start_ms"] = ((started - placed) * 1e3, "ms")
    out["arena.place_ms"] = ((placed - start) * 1e3, "ms")
    return out


def rebuild_on_read(
    model: nn.Module, handle: CompressedModelHandle, pool: np.ndarray
) -> Metrics:
    """Offline batches through a dense cache of half the bundle."""
    obs = Observability(trace_capacity=1 << 14)
    engine = InferenceEngine(
        model.clone(), handle,
        cache_bytes=handle.total_dense_bytes // 2,
        observability=obs,
    )
    rng = np.random.default_rng(2)
    try:
        engine.predict(pool[rng.integers(len(pool), size=PROBE_BATCH)])
        obs.collector.drain()
        before = rebuild_counters(engine)
        for _ in range(PROBE_REBUILD_BATCHES):
            engine.predict(pool[rng.integers(len(pool), size=PROBE_BATCH)])
        after = rebuild_counters(engine)
    finally:
        engine.close()
    tally = SpanTally()
    tally.add(obs.collector.drain())
    out = tally.metrics()
    out.update(rebuild_metrics(np.subtract(after, before)))
    return out


def all_layers(
    model: nn.Module,
    handle: CompressedModelHandle,
    pool: np.ndarray,
    skip: Mapping[str, Tuple[float, str]],
) -> Metrics:
    """Every per-layer metric the workload's traffic did not supply."""
    batch = pool[:PROBE_BATCH]
    # Each probe runs unless the traffic already supplied its key metric.
    probes = (
        ("codecs.smartexchange.decode_ms", lambda: codec_decode(handle)),
        ("nn.forward_ms", lambda: forward(model, batch)),
        ("nn.train_step_ms", lambda: train(model, batch)),
        ("core.project_s", lambda: project(model)),
        ("procpool.start_ms", lambda: process_serving(model, handle, pool)),
        ("rebuild.hit_ratio", lambda: rebuild_on_read(model, handle, pool)),
    )
    out: Metrics = {}
    for key, run in probes:
        if key not in skip:
            out.update(run())
    return out
