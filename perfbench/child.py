"""One measuring process of the benchmark; prints one JSON object.

    python3 perfbench/child.py MODE --workload NAME --seed N [--seconds S]

Modes:

* ``setup``: time ``import limbflow`` plus input generation once, with
  the reference loop just before and just after. numpy is imported
  first, outside the timed part, because the reference loop needs it.
* ``measure``: build the inputs and run one warm-up pass, after which
  the peak RSS is read, so the reference loop never sets it. Then
  alternate the reference loop and untraced passes until ``--seconds``
  have passed (at least ``MIN_PASSES`` passes) and report every pass.
* ``trace``: alternate untraced and traced passes for ``--seconds`` and
  report per-layer metrics.

The parent runs one child at a time and sets the thread counts of the
numeric libraries to 1, so each child loads one CPU.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import refloop

MIN_PASSES = 3
# Imports and scene generation are interpreter work.
SETUP_MEMORY_SHARE = 0.0


def _setup(args) -> dict:
    before = refloop.reference_loop()
    t0 = time.perf_counter()
    import workloads

    workloads.build_inputs(workloads.WORKLOADS[args.workload], args.seed)
    raw = time.perf_counter() - t0
    after = refloop.reference_loop()
    return {
        "raw_s": raw,
        "corrected_s": refloop.corrected(raw, before, after, SETUP_MEMORY_SHARE),
        "ref_before": before,
        "ref_after": after,
    }


def _keep_going(n_passes: int, elapsed: float, seconds: float) -> bool:
    # A pass far slower than planned may stop the run early, so that a
    # regression still ends in time.
    return elapsed < seconds or (n_passes < MIN_PASSES and elapsed < 2 * seconds)


class _Checks:
    """Running tally of checked operations across passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failures += result.failures
        if result.digest is not None:
            # Each pass is also an operation whose output must repeat.
            self.attempted += 1
            if self.digest is None:
                self.digest = result.digest
            elif result.digest != self.digest:
                self.failures.append("tracked annotations differ between passes")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "tracked_sha256": self.digest,
        }


def _measure(args) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(workload, args.seed)
    checks = _Checks()
    warmup = workloads.run_pass(workload, inputs)
    checks.add(warmup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs = [refloop.reference_loop()]
    passes = []
    start = time.perf_counter()
    while _keep_going(len(passes), time.perf_counter() - start, args.seconds):
        result = workloads.run_pass(workload, inputs)
        refs.append(refloop.reference_loop())
        checks.add(result)
        passes.append(
            {
                "raw_s": result.elapsed_s,
                "corrected_s": refloop.corrected(
                    result.elapsed_s, refs[-2], refs[-1], workload.memory_share
                ),
            }
        )
    quality = {}
    if warmup.mota is not None:
        quality = {"mota": warmup.mota, "id_switches": warmup.id_switches}
    return {
        "warmup_raw_s": warmup.elapsed_s,
        "passes": passes,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        **quality,
        **checks.summary(),
    }


def _trace(args) -> dict:
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.build_inputs(workload, args.seed)
    checks = _Checks()
    tracer = spans.Tracer()
    untraced: list[float] = []
    traced: list[dict] = []
    missing: list[str] = []
    start = time.perf_counter()
    while _keep_going(len(traced), time.perf_counter() - start, args.seconds):
        result = workloads.run_pass(workload, inputs)
        checks.add(result)
        untraced.append(result.elapsed_s)
        tracer.reset()
        with tracer.installed(layers.SITES) as missing:
            result = workloads.run_pass(workload, inputs)
        checks.add(result)
        traced.append({"raw_s": result.elapsed_s, **layers.pass_metrics(tracer.spans, result.elapsed_s)})

    for name in layers.EXACT_METRICS:
        values = {t[name] for t in traced if name in t}
        if len(values) > 1:
            checks.failures.append(f"{name} differs between traced passes: {sorted(values)}")
    # Counts are equal across passes (checked above); times are medians.
    metrics = {
        name: traced[0][name] if name in layers.EXACT_METRICS else statistics.median(t[name] for t in traced)
        for name in traced[0]
    }
    metrics["trace_overhead_s"] = metrics.pop("raw_s") - statistics.median(untraced)
    metrics["trace.missing_sites"] = len(missing)
    return {
        "metrics": metrics,
        "missing_sites": missing,
        "untraced_raw_s": untraced,
        "traced_raw_s": [t["raw_s"] for t in traced],
        **checks.summary(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    run = {"setup": _setup, "measure": _measure, "trace": _trace}[args.mode]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
