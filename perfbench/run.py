"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload warm-thread --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of standard output is always the JSON result.
``--self-test`` instead runs every serving workload at smoke size, once
clean and once with one decoded weight corrupted, and exits non-zero
unless the clean runs pass their checks and the corrupted runs fail them.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def host_facts() -> str:
    """CPU count, numpy and BLAS build, and the BLAS threads in effect."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        with contextlib.suppress(OSError):  # e.g. a "(deleted)" mapping
            getter = getattr(
                ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    return (f"host: {len(os.sched_getaffinity(0))} CPUs, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']}, BLAS threads {threads}, "
            f"thread variables {env or 'unset'}")


def _emit(result) -> None:
    print(host_facts())
    for note in result.notes:
        print(note)
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(result.metrics.items())
        },
    }))


def self_test(workdir: str) -> int:
    """Smoke runs: clean must pass, a corrupted decoded weight must fail."""
    import numpy as np

    from repro.codecs import SmartExchangeCodec, register_codec

    import workloads

    class CorruptedSmartExchange(SmartExchangeCodec):
        """Decodes correctly, then flips the sign of the largest weight."""

        def decode(self, payload):
            weight = super().decode(payload).copy()
            weight.flat[np.argmax(np.abs(weight))] *= -1.0
            return weight

    ok = True
    for workload in workloads.SERVING_WORKLOADS:
        for corrupt in (False, True):
            register_codec(
                "smartexchange",
                CorruptedSmartExchange if corrupt else SmartExchangeCodec,
                replace=True,
            )
            result = workloads.run(workload, seed=0, seconds=1.0, trace=False,
                                   workdir=workdir, smoke=True)
            expected = not corrupt
            passed = result.correct and result.failed == 0
            verdict = "ok" if passed == expected else "UNEXPECTED"
            ok &= passed == expected
            print(f"{workload:16s} corrupted={corrupt!s:5s} correct="
                  f"{result.correct!s:5s} failed={result.failed}/"
                  f"{result.attempted}  {verdict}")
    register_codec("smartexchange", SmartExchangeCodec, replace=True)
    return 0 if ok else 1


def _stop_resource_tracker() -> None:
    """Shared-memory arenas start multiprocessing's resource tracker
    process; stop it and wait for it, so a run leaves no process."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if not args.self_test and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # Scratch files (bundles) stay inside the checkout.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=scratch)
    try:
        if args.self_test:
            return self_test(workdir)
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it
        _stop_resource_tracker()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
