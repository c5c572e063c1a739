"""The benchmark's model, its mixed-codec bundle, and the checks on it.

Everything the serving workloads need to know about *what* is served
lives here: the VGG-11-BN skeleton, which codec stores which layer, how
the bundle is published, and the two kinds of correctness check:

- a plain-NumPy reference forward (sliding-window convolution, eval-mode
  BN, ReLU, pooling, linear) that shares no code with ``repro.nn``, run
  on weights taken from the compression side: ``repro.core``'s
  decomposition for smartexchange layers and the ``repro.compression``
  quantizers for quant layers, never from codec decode;
- properties the method guarantees, checked on the weights the serving
  stack decodes (power-of-two ``Ce`` and ``quant-pow2`` values, e4m3
  ``quant-fp8`` values).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro import nn
from repro.codecs import LayerPayload, SmartExchangeCodec, get_codec
from repro.compression import FP8Quantizer, LinearQuantizer, Pow2Quantizer
from repro.core import SmartExchangeConfig, compress_conv_weight
from repro.core.reshape import from_matrices
from repro.core.serialize import (
    decode_coefficient_codes,
    dequantize_basis,
    quantize_basis,
    unpack_nibbles,
)
from repro.nn.models.vgg import vgg11
from repro.serving import ArtifactStore, CompressedModelHandle, ModelRegistry

WIDTH = 0.25
IMAGE_SIZE = 32
NUM_CLASSES = 10
SE_CONFIG = SmartExchangeConfig(max_iterations=6, target_row_sparsity=0.5)

# Conv layers cycle through these codecs in order; every linear layer is
# stored as quant-linear.  Half the convs (including the first and the
# largest) use the paper's codec, so decode cost is dominated by it.
CONV_CODECS = ("smartexchange", "quant-pow2", "smartexchange", "quant-fp8")
LINEAR_CODEC = "quant-linear"
CODECS = ("smartexchange", "quant-pow2", "quant-fp8", "quant-linear")

# Served rows must match the reference within this share of the row's
# largest |logit|.  Both sides compute in float64, so only summation
# order differs (~1e-15); a wrong weight moves logits far more.
OUTPUT_RTOL = 1e-7


def build_model(seed: int, width: float = WIDTH) -> nn.Module:
    """VGG-11-BN with seeded weights and seeded eval-mode BN statistics.

    Non-trivial BN statistics make the reference check cover the
    bundle's residual (non-encoded) state as well as the weights.
    """
    model = vgg11(num_classes=NUM_CLASSES, width_mult=width, seed=seed)
    rng = np.random.default_rng(seed + 7919)
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            c = module.num_features
            module.gamma.data[...] = rng.uniform(0.8, 1.2, c)
            module.beta.data[...] = rng.normal(0.0, 0.1, c)
            module.running_mean[...] = rng.normal(0.0, 0.1, c)
            module.running_var[...] = rng.uniform(0.5, 1.5, c)
    model.eval()
    return model


def weight_layers(model: nn.Module) -> List[Tuple[str, nn.Module]]:
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, (nn.Conv2d, nn.Linear))
    ]


def codec_assignment(model: nn.Module) -> Dict[str, str]:
    assignment = {}
    convs = 0
    for name, module in weight_layers(model):
        if isinstance(module, nn.Conv2d):
            assignment[name] = CONV_CODECS[convs % len(CONV_CODECS)]
            convs += 1
        else:
            assignment[name] = LINEAR_CODEC
    return assignment


def encode_layer(
    codec: str, weight: np.ndarray
) -> Tuple[LayerPayload, np.ndarray]:
    """Encode one weight; return its payload and its reference weight.

    The reference comes from the compression side: for smartexchange,
    ``Ce @ B`` from ``repro.core``'s decomposition with the basis put
    through the 8-bit quantizer of ``repro.core.serialize`` (the stored
    basis precision); for quant codecs, the matching
    ``repro.compression`` quantizer applied to the dense weight.
    """
    if codec == "smartexchange":
        compression = compress_conv_weight(weight, SE_CONFIG)
        payload = SmartExchangeCodec(SE_CONFIG).payload_from_compression(
            compression, SE_CONFIG
        )
        matrices = [
            d.coefficient
            @ dequantize_basis(*quantize_basis(d.basis, SE_CONFIG.b_bits))
            for d in compression.decompositions
        ]
        return payload, from_matrices(matrices, compression.plan)
    quantizer = {
        "quant-pow2": Pow2Quantizer(4),
        "quant-fp8": FP8Quantizer(),
        "quant-linear": LinearQuantizer(8),
    }[codec]
    return get_codec(codec).encode(weight), quantizer.quantize(weight)


@dataclass
class PublishedBundle:
    """One published, verified, loaded bundle plus its reference weights."""

    store: ArtifactStore
    registry: ModelRegistry
    handle: CompressedModelHandle
    reference_weights: Dict[str, np.ndarray]
    publish_s: float
    publish_ms: float
    verify_ms: float
    get_ms: float

    @property
    def bundle_bytes(self) -> int:
        return self.handle.manifest.bundle_bytes


def publish_mixed(model: nn.Module, root, name: str) -> PublishedBundle:
    """Encode ``model`` with the mixed codec assignment and publish it.

    ``publish_s`` runs from the dense model to a verified, loadable
    bundle: encode every layer, publish, verify checksums, load through
    the registry.
    """
    start = time.perf_counter()
    payloads: Dict[str, LayerPayload] = {}
    references: Dict[str, np.ndarray] = {}
    assignment = codec_assignment(model)
    for layer, module in weight_layers(model):
        payloads[layer], references[layer] = encode_layer(
            assignment[layer], module.weight.data
        )
    store = ArtifactStore(root)
    t0 = time.perf_counter()
    manifest = store.publish_payloads(payloads, name=name, model=model)
    t1 = time.perf_counter()
    store.verify(name, manifest.version)
    t2 = time.perf_counter()
    registry = ModelRegistry(store)
    handle = registry.get(name, manifest.version)
    t3 = time.perf_counter()
    return PublishedBundle(
        store=store,
        registry=registry,
        handle=handle,
        reference_weights=references,
        publish_s=t3 - start,
        publish_ms=(t1 - t0) * 1e3,
        verify_ms=(t2 - t1) * 1e3,
        get_ms=(t3 - t2) * 1e3,
    )


# ----------------------------------------------------------------------
# Reference forward: plain NumPy, no repro.nn code.
# ----------------------------------------------------------------------
def _conv(x: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Stride-1 convolution as a sum of shifted windows, one per tap."""
    n, _, h, wd = x.shape
    m, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    out = np.zeros((n, m, oh, ow))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + oh, j : j + ow]
            out += np.einsum("nchw,mc->nmhw", window, w[:, :, i, j])
    return out


def reference_forward(
    model: nn.Module, weights: Mapping[str, np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Logits of the VGG ``model`` with ``weights`` swapped in.

    ``model`` supplies only structure, BN statistics and biases.
    """
    names = {id(module): name for name, module in model.named_modules()}

    def run(layers, x):
        for layer in layers:
            if isinstance(layer, nn.Conv2d):
                if layer.stride != 1 or layer.groups != 1:
                    raise ValueError("reference handles stride-1 dense convs")
                x = _conv(x, weights[names[id(layer)]], layer.padding)
            elif isinstance(layer, nn.BatchNorm2d):
                scale = layer.gamma.data / np.sqrt(layer.running_var + layer.eps)
                shift = layer.beta.data - layer.running_mean * scale
                x = x * scale[None, :, None, None] + shift[None, :, None, None]
            elif isinstance(layer, nn.ReLU):
                x = np.maximum(x, 0.0)
            elif isinstance(layer, nn.MaxPool2d):
                n, c, h, w = x.shape
                x = x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
            elif isinstance(layer, nn.Linear):
                x = x @ weights[names[id(layer)]].T + layer.bias.data
            else:
                raise TypeError(f"reference has no rule for {layer!r}")
        return x

    x = run(model.features, np.asarray(x, dtype=np.float64))
    x = x.mean(axis=(2, 3))
    return run(model.classifier, x)


def row_mismatch(row: np.ndarray, reference: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(reference).max()))
    return bool(np.abs(np.asarray(row) - reference).max() > OUTPUT_RTOL * scale)


# ----------------------------------------------------------------------
# Method properties, checked on decoded weights.
# ----------------------------------------------------------------------
def is_pow2_or_zero(values: np.ndarray) -> bool:
    mantissa, _ = np.frexp(np.abs(values))
    return bool(np.all((values == 0) | (mantissa == 0.5)))


def is_e4m3(values: np.ndarray) -> bool:
    """Sign, 4-bit exponent in [-7, 7], 3-bit mantissa, plus subnormals
    ``m * 2**-10`` (the grid ``repro.compression.FP8Quantizer`` snaps to)."""
    mag = np.abs(values)
    mantissa, exponent = np.frexp(mag)  # mag = mantissa * 2**exponent
    unbiased = exponent - 1  # mag = (2 * mantissa) * 2**unbiased
    normal = (unbiased >= -7) & (unbiased <= 7) & (mantissa * 16 % 1 == 0)
    subnormal = (mag * 2.0**10 % 1 == 0) & (mag * 2.0**10 < 8)
    return bool(np.all((mag == 0) | normal | subnormal))


def smartexchange_coefficients(payload: LayerPayload) -> List[np.ndarray]:
    """The ``Ce`` matrices stored in a smartexchange payload."""
    out = []
    for j, meta in enumerate(payload.meta["matrices"]):
        rows, cols = meta["rows"], meta["cols"]
        alive = np.unpackbits(payload.arrays[f"m{j}.index"])[:rows].astype(bool)
        codes = unpack_nibbles(payload.arrays[f"m{j}.codes"], int(alive.sum()) * cols)
        ce = np.zeros((rows, cols))
        ce[alive] = decode_coefficient_codes(
            codes.reshape(-1, cols), meta["p_min"]
        )
        out.append(ce)
    return out


def property_violations(
    handle: CompressedModelHandle, decoded: Mapping[str, np.ndarray]
) -> List[str]:
    """Layers whose stored or decoded values break the method's grid."""
    bad = []
    for layer, codec in handle.layer_codecs.items():
        if codec == "smartexchange":
            if not all(
                is_pow2_or_zero(ce)
                for ce in smartexchange_coefficients(handle.payloads[layer])
            ):
                bad.append(f"{layer}: Ce not 0 or +-2^k")
        elif codec == "quant-pow2" and not is_pow2_or_zero(decoded[layer]):
            bad.append(f"{layer}: quant-pow2 weight not 0 or +-2^k")
        elif codec == "quant-fp8" and not is_e4m3(decoded[layer]):
            bad.append(f"{layer}: quant-fp8 weight not e4m3")
    return bad
