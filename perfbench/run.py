"""Serving benchmark on the paper-config ST-HybridNet image.

Run from the repository root::

    python3 perfbench/run.py --workload kws-streams --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the workload with tracing off and reports every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` measures it twice for
half the time each (tracing off, then on) and reports every per-layer
metric.  The last line of standard output is the JSON result; the lines
before it give sample counts, outcomes by reason and provenance.  The exit
code is 0 only when every checked output matched the reference.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-batch256", "kws-streams")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: per-layer metric prefixes a workload never reaches; they read 0 there
BYPASSED = {
    "offline-batch256": ("cluster.", "frontend.", "trace.", "shm.", "streams.", "loadgen."),
    "kws-streams": (),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS thread per process, fixed before NumPy loads; workers inherit it.

    The cluster workloads run three processes on the CPUs, where threaded
    BLAS only oversubscribes them: on 2 CPUs one MFCC window took 8 ms with
    two OpenBLAS threads and 1.3 ms with one.  Every workload uses the same
    setting so that per-layer timings compare across workloads.
    """
    for name in BLAS_ENV:
        os.environ[name] = "1"


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``ClusterRouter.stop`` joins its workers; this catches any it left, and
    then multiprocessing's resource tracker, which shared memory and the
    ``spawn`` start method bring up and which would otherwise outlive this
    process until it notices its closed pipe.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def collect(measured, specs, bypassed):
    """Every metric named in ``specs``, in order, with its unit.

    A metric the workload did not measure is an error, except a per-layer
    metric of a layer the workload bypasses, which reads 0.
    """
    names = {spec["name"] for spec in specs}
    unknown = set(measured) - names
    if unknown:
        raise RuntimeError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {}
    for spec in specs:
        name = spec["name"]
        if name in measured:
            value = measured[name]
        elif name.startswith(bypassed):
            value = 0.0
        else:
            raise RuntimeError(f"metric {name} was not measured")
        result[name] = {"value": float(value), "unit": spec["unit"]}
    return result


def main(argv=None) -> int:
    # a terminated run still unwinds, so the router and the tracker are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(parse_args(argv))
    finally:
        stop_children()


def measure(args: argparse.Namespace) -> int:
    pin_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro  # the program under test, from this checkout only
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    import layers
    import workloads
    from common import host_steal_s, paper_image_bytes, provenance
    from repro.deploy.image import ModelImage

    steal_start = host_steal_s()
    blob = paper_image_bytes()
    image = ModelImage.from_bytes(blob)
    ctx = workloads.WorkloadContext(blob, image, args.seed)
    run = {
        "offline-batch256": workloads.offline_batch256,
        "kws-streams": workloads.kws_streams,
    }[args.workload]

    if args.trace:
        plain = run(ctx, args.seconds / 2, traced=False)
        traced = run(ctx, args.seconds / 2, traced=True)
        passes = [plain, traced]
        measured = {**plain.layers, **traced.layers, **layers.layer_metrics(blob, args.seed)}
        measured["telemetry.trace_overhead_pct"] = 100.0 * (
            traced.metrics["latency_p50_ms"] / plain.metrics["latency_p50_ms"] - 1.0
        )
        specs = spec["per_layer"]
    else:
        passes = [run(ctx, args.seconds, traced=False)]
        measured = dict(passes[0].metrics)
        specs = spec["end_to_end"]

    outcomes = passes[0].outcomes
    for extra in passes[1:]:
        outcomes = outcomes.merge(extra.outcomes)
    if args.trace:
        measured["error_rate"] = outcomes.error_rate
    metrics = collect(measured, specs, BYPASSED[args.workload])

    for number, result in enumerate(passes):
        label = ("untraced", "traced")[number] if args.trace else "measured"
        for note in result.notes:
            print(f"[{args.workload} {label}] {note}")
        print(f"[{args.workload} {label}] {result.outcomes.describe()}")
    print(f"[{args.workload}] error_rate {outcomes.error_rate:.6f}")
    record = provenance(args.seed, blob, image, BLAS_ENV, host_steal_s() - steal_start)
    print("provenance " + json.dumps(record, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    correct = outcomes.failures["wrong_output"] == 0
    if not correct:
        print(f"perfbench: {outcomes.failures['wrong_output']} outputs differ from the reference",
              file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
