"""Run the benchmark over several seeds and summarise it per workload.

    python3 bench/record.py --seeds 1-10 [--workloads realize,sweep,cli]
                            [--seconds 20] [--traced] [--out FILE]

For each workload and seed this runs bench/run.py once untraced, and with
--traced one traced run on the first seed.  It prints, per workload, every
end-to-end metric's median, quartiles and spread (the quartile distance as
a share of the median, the figure BENCHMARK.json's bounds are judged
against) and the failed fraction.  With --out it writes every run and the
summary as JSON, with the commit, Python version and CPU count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """One run.py run: its meta line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    names = runs[0]["result"]["metrics"]
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": names[name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["failed_frac"] = {"unit": "ratio", "pooled": failed / attempted}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default="realize,sweep,cli")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write all runs and the summary to this JSON file")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['meta']['ops']} ops, "
                  f"wall {runs[-1]['meta']['wall_s']} s", file=sys.stderr)
        entry = {"runs": runs, "summary": summarise(runs, bounds)}
        if args.traced:
            entry["traced"] = run_once(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = entry
        print(f"\n{workload} ({len(seeds)} seeds, {seconds:g} s each)")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, row in entry["summary"].items():
            if name == "failed_frac":
                print(f"  {name:<14} {row['pooled']:>12.4f}  (all runs pooled)")
                continue
            spread = f"{row['spread']:.3f}" if row["spread"] is not None else "-"
            bound = f"{row['bound']:.2f}" if row["bound"] is not None else "-"
            print(f"  {name:<14} {row['median']:>12.4f} {row['q1']:>12.4f} {row['q3']:>12.4f} "
                  f"{spread:>8} {bound:>6}  {row['unit']}")
    first = next(iter(report["workloads"].values()))["runs"][0]["meta"]
    report.update(commit=first["commit"], python=first["python"], nproc=first["nproc"])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
