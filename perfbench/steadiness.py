"""Check that the benchmark is steady: many seeds, one or more sets.

    python3 perfbench/steadiness.py --workloads crowd-hd,long-seq \\
        --seeds 0-9 --sets 2 [--seconds 20] [--traced-seed 0] [--out runs.json]

Runs ``run.py`` once per (set, workload, seed), one run at a time, from
the repository root. For each set and end-to-end metric it prints the
median, the quartiles and the spread (inter-quartile range over median,
from ``statistics.quantiles(values, n=4)``), with the spread of the raw,
uncorrected pass times beside ``wall_s``. Across sets it prints how far
each median moved, and checks that the tracked SHA-256, MOTA and ID
switches of every seed repeat exactly. With ``--traced-seed`` it makes
two traced runs of that seed per workload and checks that every count
repeats. Exits 1 if any run failed a check or any output did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers

RUN = str(Path(__file__).resolve().parent / "run.py")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    return {**json.loads(out[-2])["record"], "result": json.loads(out[-1])}


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarize(runs: list[dict]) -> dict:
    """Quartiles of every end-to-end metric, plus raw pass times."""
    names = list(runs[0]["result"]["metrics"])
    table = {n: _quartiles([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
    table["raw_wall_s"] = _quartiles([r["raw_wall_s"] for r in runs])
    table["raw_setup_s"] = _quartiles([r["raw_setup_s"] for r in runs])
    return table


def _identity(run: dict) -> tuple:
    return (run.get("tracked_sha256"), run.get("mota"), run.get("id_switches"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = _seeds(args.seeds)
    problems: list[str] = []

    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            runs[w].append([_run(w, seed, args.seconds, 0) for seed in seeds])

    report: dict = {}
    for w in workloads:
        sets = [summarize(r) for r in runs[w]]
        report[w] = {"sets": sets}
        for i, table in enumerate(sets):
            print(f"{w} set {i + 1}:")
            for name, q in table.items():
                print(f"  {name:12s} median {q['median']:10.4f}  q1 {q['q1']:10.4f}  "
                      f"q3 {q['q3']:10.4f}  spread {q['spread']:6.3f}")
        for name in sets[0]:
            shifts = [t[name]["median"] / sets[0][name]["median"] - 1 for t in sets[1:]]
            if shifts:
                print(f"  {name:12s} median shift vs set 1: " + " ".join(f"{x:+.3f}" for x in shifts))
        for i, seed in enumerate(seeds):
            ids = {_identity(r[i]) for r in runs[w]}
            if len(ids) > 1:
                problems.append(f"{w} seed {seed}: outputs differ between sets: {ids}")
            for r in runs[w]:
                if r[i]["failed"]:
                    problems.append(f"{w} seed {seed}: {r[i]['failures']}")
        report[w]["identity"] = {seed: _identity(runs[w][0][i]) for i, seed in enumerate(seeds)}

        if args.traced_seed is not None:
            traced = [_run(w, args.traced_seed, args.seconds, 1) for _ in range(2)]
            report[w]["traced"] = [t["result"]["metrics"] for t in traced]
            for name in layers.EXACT_METRICS:
                values = {t["result"]["metrics"][name]["value"] for t in traced}
                if len(values) > 1:
                    problems.append(f"{w} traced seed {args.traced_seed}: {name} differs: {values}")
            for t in traced:
                if t["missing_sites"] or t["failed"]:
                    problems.append(f"{w} traced: missing {t['missing_sites']}, {t['failures']}")

    if args.out:
        Path(args.out).write_text(json.dumps({"report": report, "runs": runs}, indent=1))
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
