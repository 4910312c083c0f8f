"""sweep: seeded batch jobs over many assignments.  One op is one job.

Jobs reuse one symmetry list for thousands of partial maps and re-run
groups.inverse_of and structure_flags in tight loops, so a change that wins
on single queries but loses on repeated matching shows here.  Every round
holds the same set of jobs (one per kind and group).  Enumeration jobs cycle
through the variants, and inside a chain job the variant and chain length
cycle over the tuples, from seeded starting points, so every run has the
same mix; the seed picks those offsets, the pins and the x slice of each
job, and shuffles the order.

- enumerate: enumerate_assignments with anti-maps allowed, unpinned on q8,
  ea2-3 and c8; pinned on c16 and the six built order-16 groups (x pinned,
  and y too where there are more than 32 symmetries, to keep a job under
  100 ms).  Anti stays on so that each job costs the same in every round:
  toggling it doubles a job on a non-commutative group and reorders the
  slowest jobs, which made op_p95_ms swing by 10% between seeds.
- fraction: verify_fraction_rule over all (y, a, b) for one x, on every
  commutative catalog group of order <= 12.  x advances by one per round,
  so a run of n rounds covers every 4-tuple of an order-n group.
- chain: iterate_chain (2 to 8 steps) with an assignment over all (y, a, b)
  for one x, on every catalog group of order <= 8, x advancing the same way.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import algebra
import speed
from truth import Truth, expected_aut_order

BUILTINS = ("classic", "dual", "mosko")
SAMPLE = 8


class Job:
    __slots__ = ("kind", "items", "group", "variant", "pins", "x", "plan")

    def __init__(self, kind, group, items, variant=None, pins=None, x=0, plan=()):
        self.kind = kind
        self.items = items
        self.group = group
        self.variant = variant
        self.pins = pins or {}
        self.x = x
        # chain jobs: (y, a, b, variant, steps) for each chain in the slice
        self.plan = plan


class Workload:
    clock = staticmethod(time.thread_time)
    speed_factor = staticmethod(speed.in_process)
    trace_rounds = 2
    rss_rounds = 8

    def __init__(self, cf, seed: int, workdir, in_process: bool):
        self.cf = cf
        self.seed = seed
        cat = cf.groups.catalog()
        build = cf.groups.build_group
        self.free = [cat["q8"], cat["ea2-3"], cat["c8"]]
        self.pinned = [cat["c16"]] + [
            build(name, labels, table, 0) for name, labels, table in algebra.order16_groups()
        ]
        self.fraction_groups = [
            G for G in cat.values() if G.order <= 12 and algebra.is_commutative(G.table)
        ]
        self.chain_groups = [G for G in cat.values() if G.order <= 8]
        rng = random.Random(f"sweep:{seed}")
        self.pin_counts = {
            G.name: 1 if expected_aut_order(G.name) * (1 if algebra.is_commutative(G.table) else 2) <= 32
            else 2
            for G in self.pinned
        }
        # Where each job's cycles of x, variant and chain length start.
        self.offsets = {G.name: rng.randrange(840) for G in (*cat.values(), *self.pinned)}
        self.truth = Truth(cf)

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"sweep:{self.seed}:{r}")
        jobs = []
        for G in self.free:
            variant = BUILTINS[(self.offsets[G.name] + r) % 3]
            jobs.append(Job("enumerate", G, math.perm(G.order, 4), variant))
        for G in self.pinned:
            variant = BUILTINS[(self.offsets[G.name] + r) % 3]
            k = self.pin_counts[G.name]
            pins = dict(zip(algebra.ROLES, rng.sample(range(G.order), k)))
            jobs.append(Job("enumerate", G, math.perm(G.order - k, 4 - k), variant, pins=pins))
        for G in self.fraction_groups:
            x = (self.offsets[G.name] + r) % G.order
            jobs.append(Job("fraction", G, G.order ** 3, x=x))
        for G in self.chain_groups:
            start = self.offsets[G.name]
            n = range(G.order)
            plan = [
                (y, a, b, BUILTINS[(start + k) % 3], 2 + (start + k) % 7)
                for k, (y, a, b) in enumerate(itertools.product(n, n, n))
            ]
            jobs.append(Job("chain", G, G.order ** 3, x=(start + r) % G.order, plan=plan))
        rng.shuffle(jobs)
        return jobs

    # -- ops ---------------------------------------------------------------

    def execute(self, job: Job):
        formula = self.cf.formula
        G = job.group
        if job.kind == "enumerate":
            return formula.enumerate_assignments(
                G, formula.variant_by_name(job.variant), allow_anti=True, constraints=job.pins
            )
        make = formula.RoleAssignment
        n = range(G.order)
        x = job.x
        if job.kind == "fraction":
            verify = formula.verify_fraction_rule
            return [
                verify(G, make(G, {"x": x, "y": y, "a": a, "b": b}, allow_repeats=True))
                for y, a, b in itertools.product(n, n, n)
            ]
        variants = {name: formula.variant_by_name(name) for name in BUILTINS}
        chain = formula.iterate_chain
        return [
            chain(variants[v], steps, make(G, {"x": x, "y": y, "a": a, "b": b}, allow_repeats=True))
            for y, a, b, v, steps in job.plan
        ]

    # -- oracles -----------------------------------------------------------

    def check(self, job: Job, result) -> str | None:
        return getattr(self, "_check_" + job.kind)(job, result)

    def _check_enumerate(self, job: Job, result) -> str | None:
        G = job.group
        facts = self.truth.facts(G)
        rule = algebra.RULES[job.variant]
        found = {}
        for assignment, count in result:
            combo = tuple(assignment.values[r] for r in algebra.ROLES)
            if len(set(combo)) != 4 or any(assignment.values[r] != v for r, v in job.pins.items()):
                return f"{G.name}: assignment {combo} breaks distinctness or pins"
            if count < 1:
                return f"{G.name}: assignment {combo} listed with count {count}"
            found[combo] = count
        combos = list(found)
        if combos != sorted(combos) or len(combos) != len(result):
            return f"{G.name}: assignments are not in strictly lexicographic order"
        # Spot-check counts on seeded samples from the results and from the
        # whole domain (where an absent assignment must count zero).
        rng = random.Random(repr((self.seed, G.name, job.variant, sorted(job.pins.items()))))
        free = [r for r in algebra.ROLES if r not in job.pins]
        sample = rng.sample(combos, min(SAMPLE, len(combos)))
        for _ in range(SAMPLE):
            values = dict(job.pins)
            rest = [g for g in range(G.order) if g not in values.values()]
            values.update(zip(free, rng.sample(rest, len(free))))
            sample.append(tuple(values[r] for r in algebra.ROLES))
        for combo in sample:
            pairs = algebra.induced_pairs(rule, dict(zip(algebra.ROLES, combo)), facts.inv)
            want = self.truth.count(G, True, pairs)
            if found.get(combo, 0) != want:
                return f"{G.name}: {combo} has count {found.get(combo, 0)}, expected {want}"
        return None

    def _check_fraction(self, job: Job, result) -> str | None:
        G = job.group
        facts = self.truth.facts(G)
        if len(result) != G.order ** 3:
            return f"{G.name}: {len(result)} verdicts for {G.order ** 3} assignments"
        t, inv = facts.table, facts.inv
        x = job.x
        n = range(G.order)
        for verdict, (y, a, b) in zip(result, itertools.product(n, n, n)):
            lhs = t[t[x][inv[a]]][inv[t[y][inv[b]]]]
            rhs = t[t[x][inv[y]]][inv[t[inv[b]][a]]]
            if verdict is not (lhs == rhs):
                return f"{G.name}: fraction rule at {(x, y, a, b)} reported {verdict}"
        return None

    def _check_chain(self, job: Job, result) -> str | None:
        G = job.group
        inv = self.truth.facts(G).inv
        symbolic = {name: algebra.symbolic_period(algebra.RULES[name]) for name in BUILTINS}
        limit = G.order ** 4
        for res, (y, a, b, variant, steps) in zip(result, job.plan):
            rule = algebra.RULES[variant]
            start = (job.x, y, a, b)
            state = start
            for _ in range(steps):
                state = algebra.advance(rule, state, inv)
            period = algebra.orbit_period(lambda v: algebra.advance(rule, v, inv), start, limit)
            if (
                len(res.steps) != steps + 1
                or tuple(res.steps[-1].values) != state
                or res.symbolic_period != symbolic[variant]
                or res.element_period != period
            ):
                return f"{G.name}: chain from {start} disagrees with the benchmark's iteration"
        if len(result) != G.order ** 3:
            return f"{G.name}: {len(result)} chains for {G.order ** 3} assignments"
        return None

    def fingerprint(self, job: Job, result) -> bytes:
        if job.kind == "enumerate":
            body = [(tuple(a.values[r] for r in algebra.ROLES), c) for a, c in result]
        elif job.kind == "fraction":
            body = result
        else:
            body = [(r.symbolic_period, r.element_period, r.steps[-1].values) for r in result]
        return repr((job.kind, job.group.name, body)).encode()

    def close(self) -> None:
        pass
