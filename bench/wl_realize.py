"""realize: a seeded stream of single realization queries.

One op is one question: given a group, a variant (built-in or a custom
formula that the op parses), anti on or off and four distinct role values,
which symmetries realize the rule?  This is the paper's one-question path;
cfkit.morphisms and cfkit.formula do nearly all the work.

Each round asks one query on every pool group, plus FRESH_PER_ROUND queries
on freshly relabelled copies of pool groups, so about one query in five
runs the symmetry search cold.  Copies are built between ops (untimed),
since the build is the user's input step rather than the question.  Each
group cycles through the eight (variant, anti) combinations from a seeded
starting point, so every run asks the same mix of question shapes; the seed
picks the offsets, role values, custom rules and relabellings.
"""

from __future__ import annotations

import random
import time

import algebra
import speed
from truth import Truth

FRESH_PER_ROUND = 6
VARIANTS = ("classic", "dual", "mosko", "custom")


class Query:
    __slots__ = ("kind", "items", "group", "values", "variant", "rule", "text", "anti", "origin")

    def __init__(self, group, values, variant, rule, text, anti, origin):
        self.kind = "cold" if origin else "warm"
        self.items = 1
        self.group = group
        self.values = values
        self.variant = variant
        self.rule = rule
        self.text = text
        self.anti = anti
        # (pool group, perm) for a relabelled copy: element g of the pool
        # group sits at index perm[g] of the copy.
        self.origin = origin


class Workload:
    clock = staticmethod(time.thread_time)
    speed_factor = staticmethod(speed.in_process)
    trace_rounds = 6
    rss_rounds = 100

    def __init__(self, cf, seed: int, workdir, in_process: bool):
        self.cf = cf
        self.seed = seed
        build = cf.groups.build_group
        self.pool = [
            G for name, G in cf.groups.catalog().items()
            if 4 <= G.order <= 16 and name != "ea2-4"
        ]
        self.pool += [build(name, labels, table, 0) for name, labels, table in algebra.order16_groups()]
        rng = random.Random(f"realize:{seed}")
        self.fresh_offset = rng.randrange(len(self.pool))
        self.shape_offsets = [rng.randrange(8) for _ in self.pool]
        self.copies = 0
        self.truth = Truth(cf)

    def round(self, r: int) -> list[Query]:
        rng = random.Random(f"realize:{self.seed}:{r}")
        ops = [
            self._query(rng, G, None, r + self.shape_offsets[i]) for i, G in enumerate(self.pool)
        ]
        for j in range(FRESH_PER_ROUND):
            k, i = divmod(self.fresh_offset + r * FRESH_PER_ROUND + j, len(self.pool))
            copy, origin = self._fresh_copy(rng, self.pool[i])
            ops.append(self._query(rng, copy, origin, k + self.shape_offsets[i]))
        rng.shuffle(ops)
        return ops

    def _fresh_copy(self, rng: random.Random, base):
        # A unique label suffix keeps every copy unequal to all earlier ones,
        # so the search on it is cold even if a permutation repeats.
        self.copies += 1
        n = base.order
        perm = list(range(n))
        rng.shuffle(perm)
        labels = [""] * n
        for g in range(n):
            labels[perm[g]] = f"{base.elements[g]}'{self.copies}"
        copy = self.cf.groups.build_group(
            f"{base.name}'{self.copies}", labels, algebra.relabel(base.table, perm), perm[base.identity]
        )
        return copy, (base, perm)

    def _query(self, rng: random.Random, G, origin, shape: int) -> Query:
        values = tuple(rng.sample(range(G.order), 4))
        variant = VARIANTS[shape % 4]
        if variant == "custom":
            rule = algebra.random_rule(rng)
            text = algebra.formula_text(rule)
        else:
            rule, text = algebra.RULES[variant], None
        return Query(G, values, variant, rule, text, shape // 4 % 2 == 1, origin)

    def execute(self, q: Query):
        formula = self.cf.formula
        if q.text is not None:
            variant = self.cf.dsl.parse_formula(q.text)
        else:
            variant = formula.variant_by_name(q.variant)
        assignment = formula.RoleAssignment(q.group, dict(zip(algebra.ROLES, q.values)))
        return formula.realizations(assignment, variant, allow_anti=q.anti)

    def check(self, q: Query, result) -> str | None:
        G = q.group
        base, perm = q.origin or (G, None)
        facts = self.truth.facts(base)
        values = q.values
        if perm is not None:
            back = {p: g for g, p in enumerate(perm)}
            values = tuple(back[v] for v in values)
        pairs = algebra.induced_pairs(q.rule, dict(zip(algebra.ROLES, values)), facts.inv)
        expected = self.truth.count(base, q.anti, pairs)
        if perm is not None and pairs is not None:
            pairs = {perm[s]: perm[d] for s, d in pairs.items()}
        seen = set()
        for m in result:
            imgs = tuple(m.images)
            if not algebra.is_bijection(imgs, G.order):
                return f"{G.name}: returned map is not a bijection"
            if not (
                algebra.law_holds(G.table, imgs, anti=False)
                or (q.anti and algebra.law_holds(G.table, imgs, anti=True))
            ):
                return f"{G.name}: returned map breaks the allowed laws"
            if pairs is None or not algebra.agrees(imgs, pairs):
                return f"{G.name}: returned map does not realize the induced pairs"
            seen.add(imgs)
        if len(seen) != len(result):
            return f"{G.name}: a realization is listed twice"
        if len(result) != expected:
            where = f" (pool group {base.name})" if perm is not None else ""
            return f"{G.name}: {len(result)} realizations, expected {expected}{where}"
        return None

    def fingerprint(self, q: Query, result) -> bytes:
        return repr((q.kind, [(tuple(m.images), m.kind) for m in result])).encode()

    def close(self) -> None:
        pass
