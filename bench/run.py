"""cfkit benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload realize --seed 1 --seconds 20 --trace 0

Workloads (see bench/workloads.json for why each exists):
  realize  single realization queries, about one in five on a fresh group
  sweep    batch jobs: assignment enumeration, fraction-rule and chain sweeps
  cli      one `python -m cfkit` subprocess per op

Each workload is a closed loop with one caller.  Inputs come from --seed
only.  Ops run in whole rounds until --seconds of op time have passed and
at least MIN_OPS ops are done; every op's output is checked by an oracle
that does not use the library's answer, and a failed check or an unexpected
exception counts as a failed op without stopping the loop.

Times are CPU time: the benchmark thread's, plus that of the op's child
process in cli.  Every op is CPU-bound (nothing waits on a disk, socket or
lock), so on an idle machine this equals wall time; on a shared VM it leaves
out the time the process was not scheduled.  CPU time still drifts with the
neighbours' load, so each time is also scaled by the speed of a reference
loop measured around it (see speed.py); the raw CPU figures are in the meta
line.

--trace 0 prints the end-to-end metrics.  setup_s is the median over
SETUP_PROBES fresh processes of the CPU time each spends from its start
until its inputs are ready (interpreter start, import, catalog() and input
generation; the symmetry search is not warmed), scaled the same way.  --trace 1 runs a fixed number of rounds with spans recorded around
every call into cfkit, then the same rounds untraced, and prints per-layer
metrics plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("realize", "sweep", "cli")
MIN_OPS = 200
SETUP_PROBES = 7
CLI_PROBES = 5
# Stop taking new ops this long after the process started, so a run always
# ends inside three minutes even on a badly regressed build.
WALL_LIMIT_S = 140
STARTED = time.monotonic()


def load_cfkit():
    """Import cfkit from this checkout's src/, and nothing else."""
    if not (SRC / "cfkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cfkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfkit
    import cfkit.cli

    if Path(cfkit.__file__).resolve().parent != SRC / "cfkit":
        raise SystemExit(f"bench: imported cfkit from {cfkit.__file__}, not {SRC}")
    return cfkit


def make_workload(cf, name: str, seed: int, in_process: bool = False):
    module = importlib.import_module("wl_" + name)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    return module.Workload(cf, seed, workdir, in_process)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Set-up and subprocess probes.


def probe_setup(workload: str, seed: int) -> list[float]:
    """CPU seconds fresh processes spend from their start until inputs are ready."""
    samples = []
    factors = [speed.in_child()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, stdin=subprocess.DEVNULL, timeout=60,
        )
        word, _, seconds = proc.stdout.decode().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SystemExit(f"bench: set-up probe failed\n{proc.stderr.decode()}")
        samples.append(float(seconds))
        factors.append(speed.in_child())
    return speed.scale(samples, list(enumerate(factors)))


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_command(argv: list[str]) -> float:
    """Median CPU seconds of a short child process, from start to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CLI_PROBES):
        before = children_cpu()
        subprocess.run(argv, env=env, cwd=str(ROOT), check=True, stdin=subprocess.DEVNULL)
        samples.append(children_cpu() - before)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# The closed loop.


class Outcome:
    def __init__(self):
        self.raw: list[float] = []
        # (op index, speed factor): the machine speed around the ops
        self.speed_samples: list[tuple[int, float]] = []
        self.latencies: list[float] = []
        self.peak_kb = 0
        self.items = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def timed(self) -> float:
        return sum(self.latencies)


def run_loop(wl, seconds: float, rounds: int | None, tracer=None) -> Outcome:
    """Whole rounds until `rounds` are done, or until `seconds` of op time
    and MIN_OPS ops are reached."""
    out = Outcome()
    deadline = STARTED + WALL_LIMIT_S
    r = 0
    raw_timed = since_sample = 0.0
    out.speed_samples.append((0, wl.speed_factor()))
    while time.monotonic() < deadline:
        for op in wl.round(r):
            if tracer:
                tracer.begin_op(op.kind)
            error = None
            t0 = wl.clock()
            try:
                result = wl.execute(op)
            except Exception as exc:  # an op that raises counts as failed
                result = None
                error = f"{op.kind}: {type(exc).__name__}: {exc}"
            elapsed = wl.clock() - t0
            if tracer:
                tracer.end_op()
            out.raw.append(elapsed)
            raw_timed += elapsed
            since_sample += elapsed
            if since_sample >= speed.EVERY_S:
                out.speed_samples.append((out.attempted, wl.speed_factor()))
                since_sample = 0.0
            out.items += op.items
            if error is None:
                try:
                    error = wl.check(op, result)
                    out.digest.update(wl.fingerprint(op, result))
                except Exception as exc:  # a garbled answer can break an oracle
                    error = f"{op.kind}: oracle raised {type(exc).__name__}: {exc}"
            if error is not None:
                out.failed += 1
                out.failures.append(error)
            if time.monotonic() > deadline:
                break
        r += 1
        out.rounds = r
        if r == wl.rss_rounds:
            # Read here, not at the end, so the peak does not grow with the
            # number of rounds a faster build fits into the run.
            out.peak_kb = peak_rss_kb(wl)
        if rounds is not None:
            if r >= rounds:
                break
        elif raw_timed >= seconds and out.attempted >= MIN_OPS:
            break
    out.speed_samples.append((out.attempted, wl.speed_factor()))
    out.latencies = speed.scale(out.raw, out.speed_samples)
    out.peak_kb = out.peak_kb or peak_rss_kb(wl)
    return out


def peak_rss_kb(wl) -> int:
    """Peak RSS of this process and, in cli, of the op children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, getattr(wl, "children_maxrss_kb", 0))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(wl, out: Outcome, setup: list[float]) -> dict:
    timed = out.timed
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (out.attempted / timed, "1/s"),
        "op_p50_ms": (statistics.median(out.latencies) * 1e3, "ms"),
        "op_p95_ms": (percentile(out.latencies, 95) * 1e3, "ms"),
        "items_per_s": (out.items / timed, "1/s"),
        "peak_rss_mb": (out.peak_kb / 1024, "MB"),
    }


def per_layer(tracer, wl, traced: Outcome, plain: Outcome) -> dict:
    from tracer import COLD, RENDER_SPANS, WARM

    s = tracer.summary()

    def get(name, field="calls"):
        return s.get(name, {}).get(field, 0)

    candidates = get("formula.PartialMap.agrees_with")
    interpreter = probe_command([sys.executable, "-c", "pass"])
    imported = probe_command([sys.executable, "-c", "import cfkit.cli"])
    metrics = {
        "groups.build_group.calls": (get("groups.build_group"), "count"),
        "groups.build_group.ms": (get("groups.build_group", "ms"), "ms"),
        "groups.inverse_of.calls": (get("groups.inverse_of"), "count"),
        "groups.inverse_of.ms": (get("groups.inverse_of", "ms"), "ms"),
        "groups.element_order.calls": (get("groups.element_order"), "count"),
        "groups.structure_flags.calls": (get("groups.structure_flags"), "count"),
        "groups.structure_flags.ms": (get("groups.structure_flags", "ms"), "ms"),
        "morphisms.enumerate_symmetries.calls": (get(COLD) + get(WARM), "count"),
        "morphisms.enumerate_symmetries.cold_ms": (get(COLD, "ms"), "ms"),
        "morphisms.enumerate_symmetries.warm_ms": (get(WARM, "ms"), "ms"),
        "morphisms.classify_map.calls": (get("morphisms.classify_map"), "count"),
        "morphisms.maps_returned": (tracer.maps_returned, "count"),
        "morphisms.symmetry_group.ms": (get("morphisms.symmetry_group", "ms"), "ms"),
        "formula.realizations.calls": (get("formula.realizations"), "count"),
        "formula.realizations.self_ms": (get("formula.realizations", "self_ms"), "ms"),
        "formula.enumerate_assignments.self_ms": (
            get("formula.enumerate_assignments", "self_ms"), "ms"),
        "formula.candidates_tested": (candidates, "count"),
        "formula.matches": (tracer.matches, "count"),
        "formula.match_ratio": (tracer.matches / candidates if candidates else 0.0, "ratio"),
        "formula.induced_partial_map.calls": (get("formula.induced_partial_map"), "count"),
        "formula.iterate_chain.calls": (get("formula.iterate_chain"), "count"),
        "formula.iterate_chain.ms": (get("formula.iterate_chain", "ms"), "ms"),
        "formula.verify_fraction_rule.calls": (get("formula.verify_fraction_rule"), "count"),
        "formula.verify_fraction_rule.ms": (get("formula.verify_fraction_rule", "ms"), "ms"),
        "dsl.parse_group_file.ms": (get("dsl.parse_group_file", "ms"), "ms"),
        "dsl.parse_formula.calls": (get("dsl.parse_formula"), "count"),
        "dsl.parse_formula.ms": (get("dsl.parse_formula", "ms"), "ms"),
        "dsl.render_formula.ms": (get("dsl.render_formula", "ms"), "ms"),
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "cli.main_ms": (get("cli.main", "ms"), "ms"),
        "cli.render_ms": (sum(get(name, "ms") for name in RENDER_SPANS), "ms"),
        "cli.stdout_bytes": (getattr(wl, "stdout_bytes", 0), "bytes"),
        "trace.ops": (traced.attempted, "count"),
        "trace.spans": (len(tracer.start_col), "count"),
        "trace.traced_ms": (traced.timed * 1e3, "ms"),
        "trace.untraced_ms": (plain.timed * 1e3, "ms"),
        "trace.overhead_pct": ((traced.timed / plain.timed - 1) * 100, "%"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cf = load_cfkit()
    if args.setup_probe:
        wl = make_workload(cf, args.workload, args.seed)
        wl.round(0)
        print("ready", time.process_time(), flush=True)
        wl.close()
        return 0

    setup = probe_setup(args.workload, args.seed) if args.trace == 0 else []
    wl = make_workload(cf, args.workload, args.seed, in_process=bool(args.trace))
    try:
        if args.trace == 0:
            out = run_loop(wl, args.seconds, args.rounds)
            metrics = end_to_end(wl, out, setup)
        else:
            from tracer import Tracer

            tracer = Tracer(cf)
            rounds = args.rounds or wl.trace_rounds
            tracer.install()
            try:
                out = run_loop(wl, args.seconds, rounds, tracer)
            finally:
                tracer.uninstall()
            plain = run_loop(wl, args.seconds, out.rounds)
            metrics = per_layer(tracer, wl, out, plain)
            tracer.write(WORK / f"spans-{args.workload}.bin")
    finally:
        wl.close()

    lat = out.latencies
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "rounds": out.rounds,
        "ops": out.attempted,
        "failed": out.failed,
        "failed_frac": out.failed / out.attempted,
        "percentile_samples": len(lat),
        "samples_above_p95": sum(1 for x in lat if x > percentile(lat, 95)) if len(lat) > 1 else 0,
        "timed_s": round(out.timed, 4),
        "raw_cpu_s": round(sum(out.raw), 4),
        "raw_op_p50_ms": round(statistics.median(out.raw) * 1e3, 4),
        "speed_samples": len(out.speed_samples),
        "speed_factor": round(statistics.median(f for _, f in out.speed_samples), 4),
        "wall_s": round(time.monotonic() - STARTED, 2),
        "setup_samples_s": [round(x, 4) for x in setup],
        "digest": out.digest.hexdigest(),
    }
    for failure in out.failures[:20]:
        print("FAILED", failure)
    print("meta", json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.4f} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
