"""limbflow benchmark: time, memory and correctness of tracking and encoding.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports limbflow from ``src/``.
Workloads are described in ``workloads.py`` and ``BENCHMARK.json``.

With ``--trace 0`` it reports the end-to-end metrics:

* ``wall_s``: median over the run's passes of one pass over the input
  set, each pass scaled for machine drift by the reference loop of
  ``refloop.py`` run just before and after it. A warm-up pass comes
  first and is checked but not timed.
* ``peak_rss_mb``: peak resident set of the measuring process after
  its first pass.
* ``setup_s``: median over ``SETUP_CHILDREN`` fresh processes of
  ``import limbflow`` plus input generation, drift-corrected the same way.

With ``--trace 1`` it reports per-layer metrics from a separate run that
wraps the calls into each layer (``layers.py``).

Every output is checked; a failed check counts as a failed operation.
The line before the result is a JSON run record: raw and corrected pass
times, reference-loop times, the SHA-256 of the tracked annotations, MOTA
and ID switches, and metadata (``src/`` line count, numpy and BLAS build,
CPU count, seed). Children run one at a time, single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(root / "src"),
    )
    return env


def _run_child(root: Path, mode: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metadata(root: Path, seed: int) -> dict:
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "src_lines": src_lines,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _end_to_end(root: Path, args) -> tuple[dict, dict]:
    setups = [_run_child(root, "setup", args) for _ in range(SETUP_CHILDREN)]
    run = _run_child(root, "measure", args)
    values = {
        "wall_s": statistics.median(p["corrected_s"] for p in run["passes"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(s["corrected_s"] for s in setups),
    }
    record = {
        "raw_wall_s": statistics.median(p["raw_s"] for p in run["passes"]),
        "raw_setup_s": statistics.median(s["raw_s"] for s in setups),
        "warmup_raw_s": run["warmup_raw_s"],
        "passes": run["passes"],
        "refs": run["refs"],
        "setups": setups,
        **{k: run[k] for k in ("mota", "id_switches") if k in run},
    }
    return values, {**record, **_checks(run)}


def _checks(child: dict) -> dict:
    return {k: child[k] for k in ("attempted", "failed", "failures", "tracked_sha256")}


def _traced(root: Path, args) -> tuple[dict, dict]:
    run = _run_child(root, "trace", args)
    record = {k: run[k] for k in ("missing_sites", "untraced_raw_s", "traced_raw_s")}
    return run["metrics"], {**record, **_checks(run)}


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if not (root / "src" / "limbflow" / "__init__.py").is_file():
            raise BenchError(f"no limbflow package under {root / 'src'}; run from the repository root")
        measure = _traced if args.trace else _end_to_end
        values, record = measure(root, args)
    except (OSError, ValueError, BenchError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    record = {"workload": args.workload, "trace": args.trace, **record,
              "meta": _metadata(root, args.seed)}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
