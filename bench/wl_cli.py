"""cli: one `python -m cfkit` subprocess per op, one child at a time.

The latency users see here is mostly interpreter start, import, argparse
and rendering, which the library workloads never time.  Each round holds one
op of every kind below in a seeded order, with seeded groups, variants,
assignments, text or --json mode and step counts; parameters come from small
sets, so later rounds repeat earlier commands and the oracle checks that a
repeat prints byte-identical stdout.

In a traced run the same ops call cfkit.cli.main(argv) in-process, so the
library spans can be recorded; the subprocess cost is measured separately
(cli.interpreter_ms, cli.import_ms).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

import algebra
import speed
from truth import Truth

CHILD_TIMEOUT_S = 60
SMALL_GROUPS = ("q8", "klein", "c5", "c6", "c7", "c8", "ea2-2", "ea2-3")
# Order 4 only, so a cf-enumerate op always evaluates six assignments.
ENUM_GROUPS = ("klein", "c4", "ea2-2")
BOTH = (False, True)
COMMUTATIVE = ("klein", "c6", "c9", "c10", "c12", "ea2-3")
Q8_MAPS = ("id", "inv", "lambda", "sigma", "tau")
KEYS = {
    "demo": {
        "q8_axioms", "lambda", "sigma", "tau", "tau_after_sigma_equals_lambda",
        "classic_realization", "dual_realization", "symmetry_census", "ok",
    },
    "check-group": {"name", "order", "identity", "commutative", "exponent_two", "valid"},
    "classify-map": {"source", "target", "images", "kind", "bijective"},
    "symmetries": {"group", "include_anti", "count", "maps"},
    "symmetry-group": {
        "group", "order", "automorphisms", "anti_automorphisms", "labels", "cited_order",
    },
    "generated-subgroup": {
        "group", "maps", "symmetry_group_order", "subgroup_order", "elements",
    },
    "cf-check": {
        "group", "variant", "formula", "assignment", "allow_anti", "count", "realizations",
    },
    "cf-enumerate": {"group", "variant", "allow_anti", "pins", "total", "assignments"},
    "cf-orbit": {"variant", "formula", "steps", "symbolic_period", "element_period"},
    "fraction-rule": {"group", "checked", "holds", "witness"},
}


class Command:
    __slots__ = ("kind", "items", "argv", "json", "expect")

    def __init__(self, kind, argv, json_mode=False, items=0, **expect):
        self.kind = kind
        self.items = items
        self.argv = argv + (["--json"] if json_mode else [])
        self.json = json_mode
        # What the oracle knows about the answer: "code" (exit code), or the
        # inputs it needs to work the answer out itself.
        self.expect = expect


def _assign_text(G, values) -> str:
    return ",".join(f"{r}={G.elements[v]}" for r, v in zip(algebra.ROLES, values))


class Workload:
    speed_factor = staticmethod(speed.in_child)
    trace_rounds = 2
    rss_rounds = 10

    def __init__(self, cf, seed: int, workdir, in_process: bool):
        self.cf = cf
        self.seed = seed
        self.in_process = in_process
        self.catalog = cf.groups.catalog()
        self.truth = Truth(cf)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for name, labels, table in algebra.large_groups():
            path = workdir / f"{name}.json"
            path.write_text(algebra.group_file(name, labels, table))
            self.files.append((str(path), table, labels))
        broken = workdir / "truncated.json"
        broken.write_text(algebra.group_file(*algebra.cyclic(6))[:-40])
        name, labels, table = algebra.cyclic(5)
        skewed = [list(row) for row in table]
        skewed[1][1], skewed[1][2] = skewed[1][2], skewed[1][1]
        nonassoc = workdir / "non-associative.json"
        nonassoc.write_text(algebra.group_file(name, labels, skewed))
        self.malformed = [str(broken), str(nonassoc)]
        src = os.path.dirname(os.path.dirname(cf.__file__))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.cwd = os.path.dirname(src)
        self.stdout_cache: dict[tuple, bytes] = {}
        self.stdout_bytes = 0
        self.children_maxrss_kb = 0
        self.children_cpu = 0.0

    # -- inputs ------------------------------------------------------------

    def round(self, r: int) -> list[Command]:
        rng = random.Random(f"cli:{self.seed}:{r}")
        cat = self.catalog

        def cycle(key: str, choices):
            # Each parameter steps through its choices once per round from a
            # seeded start, so every run has the same mix of commands.
            start = random.Random(f"cli:{self.seed}:{key}").randrange(840)
            return choices[(r + start) % len(choices)]

        ops = [Command("demo", ["demo"], cycle("demo-json", BOTH))]
        small = [f for f in self.files if len(f[1]) == 32]
        large = [f for f in self.files if len(f[1]) == 64]
        for path, table, labels in (cycle("file32", small), cycle("file64", large)):
            ops.append(Command("check-group", ["check-group", "--file", path], cycle("file-json", BOTH),
                               table=table, labels=labels))
        json_mode = cycle("classify-json", BOTH)
        G = cat[cycle("classify-group", ("q8", "klein", "c5", "c6"))]
        if G.name == "q8":
            ops.append(Command("classify-map", ["classify-map", "--group", "q8", "--map",
                                                cycle("q8-map", Q8_MAPS)], json_mode))
        else:
            images = list(range(G.order))
            rng.shuffle(images)
            text = ",".join(G.elements[v] for v in images)
            ops.append(Command("classify-map", ["classify-map", "--group", G.name, f"--images={text}"],
                               json_mode, group=G, images=tuple(images)))
        for name in ("q8", "ea2-3"):
            ops.append(Command("symmetries", ["symmetries", "--group", name, "--anti"], True,
                               group=cat[name]))
        ops.append(Command("symmetry-group", ["symmetry-group", "--group", "q8"], cycle("symmetry-group-json", BOTH)))
        maps = rng.sample(("lambda", "sigma", "tau", "inv"), rng.randint(1, 3))
        ops.append(Command("generated-subgroup", ["generated-subgroup", "--maps", ",".join(maps)],
                           cycle("subgroup-json", BOTH)))
        G = cat[cycle("check-group", SMALL_GROUPS)]
        values = tuple(rng.sample(range(G.order), 4))
        anti = cycle("check-anti", BOTH)
        variant = cycle("check-variant", ("classic", "dual", "mosko", "custom"))
        if variant == "custom":
            rule = algebra.random_rule(rng)
            how = ["--formula", algebra.formula_text(rule)]
        else:
            rule, how = algebra.RULES[variant], ["--variant", variant]
        ops.append(Command("cf-check", ["cf-check", "--group", G.name, *how,
                                        f"--assign={_assign_text(G, values)}"]
                           + (["--anti"] if anti else []), cycle("check-json", BOTH), items=1,
                           group=G, values=values, rule=rule, anti=anti))
        G = cat[cycle("enumerate-group", ENUM_GROUPS)]
        variant = cycle("enumerate-variant", ("classic", "dual", "mosko"))
        x = rng.randrange(G.order)
        anti = cycle("enumerate-anti", BOTH)
        ops.append(Command("cf-enumerate", ["cf-enumerate", "--group", G.name, "--variant", variant,
                                            f"--pin=x={G.elements[x]}"]
                           + (["--anti"] if anti else []), cycle("enumerate-json", BOTH),
                           items=(G.order - 1) * (G.order - 2) * (G.order - 3),
                           group=G, x=x, rule=algebra.RULES[variant], anti=anti))
        # One of the two orbits tracks values each round, so items per round
        # stay fixed.
        tracked = cycle("orbit-tracked", (0, 1))
        for which, steps in enumerate((cycle("orbit-short", (3, 4, 5, 6, 7, 8)), cycle("orbit-long", (800, 1600, 3200)))):
            variant = cycle(f"orbit-variant{which}", ("classic", "dual", "mosko"))
            argv = ["cf-orbit", "--variant", variant, "--steps", str(steps)]
            expect = {"rule": algebra.RULES[variant], "steps": steps}
            if which == tracked:
                G = cat[cycle("orbit-group", SMALL_GROUPS)]
                values = tuple(rng.sample(range(G.order), 4))
                argv += ["--group", G.name, f"--assign={_assign_text(G, values)}"]
                expect.update(group=G, values=values)
            ops.append(Command("cf-orbit", argv, steps > 8 or cycle("orbit-json", BOTH),
                               items=int(which == tracked), **expect))
        G = cat[cycle("fraction-group", COMMUTATIVE)]
        values = tuple(rng.randrange(G.order) for _ in range(4))
        ops.append(Command("fraction-rule", ["fraction-rule", "--group", G.name,
                                             f"--assign={_assign_text(G, values)}"],
                           cycle("fraction-json", BOTH), items=1))
        ops.append(Command("unknown-group", ["check-group", "--group", f"g{rng.randrange(100)}"], code=2))
        ops.append(Command("malformed-file", ["check-group", "--file", cycle("malformed", self.malformed)], code=2))
        ops.append(Command("too-many-symmetries", ["symmetry-group", "--group", "ea2-3"], code=2))
        rng.shuffle(ops)
        return ops

    # -- ops ---------------------------------------------------------------

    def clock(self) -> float:
        """CPU seconds of this thread plus every op child reaped so far."""
        return time.thread_time() + self.children_cpu

    def execute(self, op: Command):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cf.cli.main(op.argv)
            return code, out.getvalue().encode(), err.getvalue().encode()
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "cfkit", *op.argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env, cwd=self.cwd,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        self.children_maxrss_kb = max(self.children_maxrss_kb, usage.ru_maxrss)
        self.children_cpu += usage.ru_utime + usage.ru_stime
        return child.returncode, out_path.read_bytes(), err_path.read_bytes()

    # -- oracles -----------------------------------------------------------

    def check(self, op: Command, result) -> str | None:
        code, out, err = result
        self.stdout_bytes += len(out)
        key = tuple(op.argv)
        if self.stdout_cache.setdefault(key, out) != out:
            return f"{op.kind}: repeated command printed different stdout"
        if "code" in op.expect:
            if code != op.expect["code"] or out or not err.startswith(b"error:"):
                return f"{op.kind}: exit {code}, expected {op.expect['code']} with an error line"
            return None
        if not out:
            return f"{op.kind}: empty stdout (exit {code}, stderr {err[:200]!r})"
        text = out.decode()
        payload = None
        if op.json:
            try:
                payload = json.loads(text)
            except ValueError:
                return f"{op.kind}: --json output does not parse"
            keys = KEYS[op.argv[0]]
            if op.argv[0] == "symmetry-group":
                keys = keys if op.argv[2] == "q8" else keys - {"cited_order"}
            if set(payload) != keys:
                return f"{op.kind}: JSON keys {sorted(payload)}"
        want_code, problem = getattr(self, "_check_" + op.kind.replace("-", "_"))(op, payload, text)
        if problem:
            return f"{op.kind}: {problem}"
        if code != want_code:
            return f"{op.kind}: exit {code}, expected {want_code}"
        return None

    def _check_demo(self, op, payload, text):
        ok = payload["ok"] if payload else "FAIL" not in text and len(text.splitlines()) == 8
        return 0, None if ok else "showcase reports a failure"

    def _check_check_group(self, op, payload, text):
        table, labels = op.expect["table"], op.expect["labels"]
        e = algebra.identity_of(table)
        want = {
            "order": len(table),
            "identity": labels[e],
            "commutative": algebra.is_commutative(table),
            "exponent_two": algebra.exponent_two(table, e),
        }
        if payload is not None:
            got = {k: payload[k] for k in want}
        else:
            lines = text.splitlines()
            got = dict(want) if lines[1:] == [
                f"identity: {want['identity']}",
                f"commutative: {want['commutative']}",
                f"exponent two: {want['exponent_two']}",
            ] and f"(order {want['order']})" in lines[0] else {}
        return 0, None if got == want else f"facts {got}, expected {want}"

    def _check_classify_map(self, op, payload, text):
        if "images" not in op.expect:
            ok = payload["kind"] in ("hom", "anti") if payload else text.startswith("kind: ")
            return 0, None if ok else "named q8 map not classified as a symmetry"
        G = op.expect["group"]
        kind = algebra.kind_of(G.table, op.expect["images"])
        got = payload["kind"] if payload else text.splitlines()[0].removeprefix("kind: ")
        return 0, None if got == kind else f"kind {got}, expected {kind}"

    def _check_symmetries(self, op, payload, text):
        want = len(self.truth.symmetries(op.expect["group"], anti=True))
        return 0, None if payload["count"] == want == len(payload["maps"]) else f"count {payload['count']}, expected {want}"

    def _check_symmetry_group(self, op, payload, text):
        q8 = self.catalog["q8"]
        autos = len(self.truth.symmetries(q8, anti=False))
        total = len(self.truth.symmetries(q8, anti=True))
        if payload is not None:
            got = (payload["order"], payload["automorphisms"], payload["anti_automorphisms"])
            return 0, None if got == (total, autos, total - autos) else f"orders {got}"
        head = f"order {total} ({autos} automorphisms, {total - autos} purely reversing)"
        return 0, None if head in text else "wrong orders in the summary line"

    def _check_generated_subgroup(self, op, payload, text):
        total = len(self.truth.symmetries(self.catalog["q8"], anti=True))
        if payload is not None:
            ok = payload["symmetry_group_order"] == total and total % payload["subgroup_order"] == 0
        else:
            ok = f" of {total}" in text.splitlines()[0]
        return 0, None if ok else "subgroup order does not divide the symmetry group order"

    def _check_cf_check(self, op, payload, text):
        G, rule = op.expect["group"], op.expect["rule"]
        facts = self.truth.facts(G)
        pairs = algebra.induced_pairs(rule, dict(zip(algebra.ROLES, op.expect["values"])), facts.inv)
        want = self.truth.count(G, op.expect["anti"], pairs)
        got = payload["count"] if payload else int(text.splitlines()[2].removeprefix("realizations: "))
        return (0 if want else 1), None if got == want else f"{got} realizations, expected {want}"

    def _check_cf_enumerate(self, op, payload, text):
        G, rule, x = op.expect["group"], op.expect["rule"], op.expect["x"]
        facts = self.truth.facts(G)
        want = 0
        for y, a, b in itertools.permutations([g for g in range(G.order) if g != x], 3):
            pairs = algebra.induced_pairs(rule, dict(zip(algebra.ROLES, (x, y, a, b))), facts.inv)
            want += self.truth.count(G, op.expect["anti"], pairs) > 0
        got = payload["total"] if payload else int(text.split(" ", 1)[0])
        return (0 if want else 1), None if got == want else f"{got} assignments, expected {want}"

    def _check_cf_orbit(self, op, payload, text):
        rule, steps = op.expect["rule"], op.expect["steps"]
        symbolic = algebra.symbolic_period(rule)
        element = None
        if "group" in op.expect:
            G = op.expect["group"]
            inv = self.truth.facts(G).inv
            element = algebra.orbit_period(
                lambda v: algebra.advance(rule, v, inv), op.expect["values"], G.order ** 4
            )
        if payload is not None:
            got = (len(payload["steps"]) - 1, payload["symbolic_period"], payload["element_period"])
        else:
            lines = text.splitlines()
            tail = lines[-1] if element is not None else None
            got = (
                len(lines) - (4 if element is not None else 3),
                int(lines[-2 if element is not None else -1].removeprefix("symbolic period: ")),
                int(tail.removeprefix("element period: ")) if tail else None,
            )
        want = (steps, symbolic, element)
        return 0, None if got == want else f"(steps, periods) {got}, expected {want}"

    def _check_fraction_rule(self, op, payload, text):
        ok = (payload["holds"] is True and payload["checked"] == 1) if payload else " holds " in text
        return 0, None if ok else "fraction rule reported false on a commutative group"

    def fingerprint(self, op: Command, result) -> bytes:
        code, out, _ = result
        argv = [os.path.basename(a) if a.startswith(str(self.workdir)) else a for a in op.argv]
        return repr((argv, code)).encode() + out

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()
