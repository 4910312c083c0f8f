"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

For every workload it checks that
- one untraced round prints every end-to-end metric that BENCHMARK.json
  names, and one traced round every per-layer metric, with no failed op;
- two runs with the same seed give the same output digest;
- an answer corrupted on purpose is caught: failed goes above 0.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from record import run_once

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = run_once(workload, SEED, 1, trace, "--rounds", "1")
    return out["meta"], out["result"]


def corrupted_run(workload: str):
    """One round in-process, with the first op's answer replaced by a wrong one."""
    sys.path.insert(0, str(HERE))
    import run as bench

    cf = bench.load_cfkit()
    wl = bench.make_workload(cf, workload, SEED)
    execute = wl.execute
    calls = []

    def corrupt(op):
        result = execute(op)
        calls.append(op)
        if len(calls) > 1:
            return result
        if workload == "cli":
            code, out, err = result
            return code + 1, out, err
        if workload == "realize":
            return result + (cf.morphisms.identity_map(op.group),)
        if op.kind == "enumerate":
            stray = cf.formula.RoleAssignment(op.group, {"x": 0, "y": 1, "a": 2, "b": 3})
            return result + ((stray, 0),)
        if op.kind == "fraction":
            return result[:-1] + [not result[-1]]
        return result[:-1]

    wl.execute = corrupt
    try:
        return bench.run_loop(wl, seconds=0, rounds=1)
    finally:
        wl.close()


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in config["end_to_end"]}
    layers = {m["name"] for m in config["per_layer"]}
    for workload in (w["name"] for w in config["workloads"]):
        meta, result = run(workload, 0)
        assert result["correct"] and result["failed"] == 0, (workload, meta)
        assert set(result["metrics"]) == e2e, (workload, sorted(result["metrics"]))
        again, _ = run(workload, 0)
        assert again["digest"] == meta["digest"], f"{workload}: same seed, different digest"
        _, traced = run(workload, 1)
        assert traced["correct"], workload
        assert set(traced["metrics"]) == layers, (workload, sorted(set(traced["metrics"]) ^ layers))
        out = corrupted_run(workload)
        assert out.failed >= 1 and out.failed / out.attempted > 0, f"{workload}: corruption missed"
        print(f"{workload}: ok ({meta['ops']} ops, digest {meta['digest'][:12]}, "
              f"corrupted answer caught: {out.failures[0][:80]!r})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
