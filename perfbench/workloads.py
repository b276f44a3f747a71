"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload has a ``setup_unit`` that builds one seeded unit of input
(one or two graphs, and for certify-cli the files the CLI reads) and a
``run`` that performs every timed operation on one instance and checks the
outputs with the benchmark's own code.  Own checks read plain arc and
neighbour sets, built per instance outside the timed operations (so they
stay out of the set-up time and cost memory for one graph only), never
oriham's bitset queries or checkers.

Operation time excludes the checks.  An operation that raises, returns a
wrong verdict, returns a certificate that does not verify, or makes the
pipeline answer ``none_exists`` counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# instance sizes per scale: "full" is the benchmark, "tiny" the self-test
SIZES = {
    "full": {"dense_n": 192, "dense_bound": 72, "ore_n": (16, 17),
             "cli_n": 192, "cli_a": 24, "cli_ac": 48, "cli_d": 24},
    "tiny": {"dense_n": 48, "dense_bound": 18, "ore_n": (9, 10),
             "cli_n": 48, "cli_a": 6, "cli_ac": 12, "cli_d": 6},
}

ETA = Fraction(1, 20)
ABSORBER_CAP = 2048
CHECKS = ("ore", "semideg", "gh", "woodall", "nash-williams")


class SetupError(RuntimeError):
    """Seeded input generation could not produce a valid instance."""


# -- own graph view and checks --------------------------------------------------


@dataclass
class Graph:
    """The library graph plus the benchmark's own arc and neighbour sets."""

    g: object
    arcs: frozenset
    out_nb: list[set[int]]
    in_nb: list[set[int]]
    out_deg: list[int]
    in_deg: list[int]

    @classmethod
    def of(cls, g) -> "Graph":
        arcs = frozenset(g.arcs())
        out_nb = [set() for _ in range(g.n)]
        in_nb = [set() for _ in range(g.n)]
        for u, v in arcs:
            out_nb[u].add(v)
            in_nb[v].add(u)
        return cls(g, arcs, out_nb, in_nb, [len(s) for s in out_nb],
                   [len(s) for s in in_nb])

    @property
    def n(self) -> int:
        return self.g.n

    def count_strong(self, u: int, v: int) -> int:
        """Pairs (w, z) outside {u, v}, w != z, with arcs w->z, w->u, v->z."""
        ends = {u, v}
        return sum(len(self.out_nb[w] & self.out_nb[v] - ends - {w})
                   for w in self.in_nb[u] - ends)

    def count_3_connectors(self, u: int, v: int) -> int:
        """Paths u->w1->w2->w3->v on distinct vertices outside {u, v}."""
        ends = {u, v}
        return sum(len(self.out_nb[w2] & self.in_nb[v] - ends - {w1, w2})
                   for w1 in self.out_nb[u] - ends
                   for w2 in self.out_nb[w1] - ends - {w1})

    def min_pair_sum(self) -> int | None:
        """min deg+(x) + deg-(y) over ordered pairs x != y without arc x->y."""
        n, arcs = self.n, self.arcs
        by_in = sorted(range(n), key=self.in_deg.__getitem__)
        best = None
        for x in range(n):
            for y in by_in:  # first admissible y has the least in-degree
                if y != x and (x, y) not in arcs:
                    s = self.out_deg[x] + self.in_deg[y]
                    if best is None or s < best:
                        best = s
                    break
        return best

    def is_hamilton_cycle(self, seq) -> bool:
        seq = list(seq)
        return (len(seq) == self.n and set(seq) == set(range(self.n))
                and all((seq[i], seq[(i + 1) % self.n]) in self.arcs
                        for i in range(self.n)))

    def is_walk(self, seq) -> bool:
        return all((a, b) in self.arcs for a, b in zip(seq, seq[1:]))


def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


# -- one instance's run ----------------------------------------------------------


@dataclass
class Outcome:
    """What one instance's operations did, and what the checks found."""

    seconds: float = 0.0                  # summed operation time
    ops: int = 0                          # operations attempted
    failed: dict[str, str] = field(default_factory=dict)  # op label -> reason
    record: list = field(default_factory=list)  # verdicts, certificates, digests
    known: int = 0                        # graphs known to be Hamiltonian
    verified: int = 0                     # verified pipeline cycles among them
    out_bytes: int = 0                    # bytes the CLI wrote
    op_s: dict[str, float] = field(default_factory=dict)  # op label -> seconds

    def call(self, label: str, fn, *args, **kwargs):
        """Time one operation; an exception fails it and returns None."""
        self.ops += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is counted, not fatal
            self._took(label, perf_counter() - start)
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        self._took(label, perf_counter() - start)
        return result

    def _took(self, label: str, seconds: float) -> None:
        self.seconds += seconds
        self.op_s[label] = self.op_s.get(label, 0.0) + seconds

    def expect(self, ok: bool, label: str, why: str) -> bool:
        if not ok:
            self.fail(label, why)
        return ok

    def fail(self, label: str, why: str) -> None:
        self.failed.setdefault(label, why)


def _pipeline(o, out: Outcome, gr: Graph, seed: int, hamiltonian: bool | None,
              label: str = "pipeline") -> None:
    """find_hamilton_absorption with its checks; ``hamiltonian`` is the known
    truth (None when unknown)."""
    res = out.call(label, o.hamilton.find_hamilton_absorption, gr.g, seed=seed)
    if res is None:
        return
    cert = list(res.certificate.vertices) if res.certificate is not None else None
    out.record.append([label, res.verdict, res.first_failure(), cert])
    if not out.expect(res.verdict in ("cycle_found", "not_found"), label,
                      f"heuristic answered {res.verdict}"):
        return
    if res.verdict == "cycle_found":
        if not out.expect(gr.is_hamilton_cycle(cert), label,
                          "certificate is not a Hamilton cycle"):
            return
        out.expect(hamiltonian is not False, label,
                   "cycle reported in a non-Hamiltonian graph")
    if hamiltonian:
        out.known += 1
        out.verified += res.verdict == "cycle_found"


# -- dense-pipeline ----------------------------------------------------------------


class DensePipeline:
    name = "dense-pipeline"
    units = 4           # graphs; the loop cycles them with fresh pipeline seeds
    round = 1           # instances the loop completes between deadline checks
    nominal_s = 0.8     # per instance, fixes the traced run's instance count

    def __init__(self, o, scale: str):
        self.n = SIZES[scale]["dense_n"]
        self.bound = SIZES[scale]["dense_bound"]

    def setup_unit(self, o, seed: int, j: int, workdir: Path) -> list[dict]:
        g = o.generators.random_min_semidegree(
            self.n, self.bound, o.seeds.derive_seed(seed, "dense", j))
        own = Graph.of(g)
        if min(own.out_deg + own.in_deg) < self.bound:
            raise SetupError(f"dense graph {j} misses semidegree {self.bound}")
        return [{"graph": g}]

    def run(self, o, inst: dict, index: int, tracer=None) -> Outcome:
        out = Outcome()
        # min semidegree >= 3n/8 makes every instance Hamiltonian
        # (Keevash, Kuhn & Osthus 2009), so each miss lowers recall
        _pipeline(o, out, Graph.of(inst["graph"]), index, hamiltonian=True)
        return out


# -- ore-exact ---------------------------------------------------------------------


class OreExact:
    name = "ore-exact"
    nominal_s = 0.8

    def __init__(self, o, scale: str):
        # one unit, a (sharp, augmented) pair, per (n, a); a round is every
        # instance once, so each run times the same graphs however many
        # rounds fit in it
        self.combos = [(n, a) for n in SIZES[scale]["ore_n"]
                       for a in o.extremal.feasible_a_values(n)]
        self.round = 2 * len(self.combos)
        self.units = len(self.combos)

    def setup_unit(self, o, seed: int, j: int, workdir: Path) -> list[dict]:
        n, a = self.combos[j % len(self.combos)]
        unit_seed = o.seeds.derive_seed(seed, "ore", j)
        g, _ = o.extremal.generate_extremal(o.extremal.table_params(n, a, seed=unit_seed))
        for attempt in range(16):
            h = _augment(o, g, o.seeds.rng_for(unit_seed, "augment", attempt))
            if h is not None:
                break
        else:
            raise SetupError(f"no Ore-type augmentation of ({n}, {a}, {unit_seed})")
        return [{"graph": g, "sharp": True}, {"graph": h, "sharp": False}]

    def run(self, o, inst: dict, index: int, tracer=None) -> Outcome:
        out = Outcome()
        gr, sharp = Graph.of(inst["graph"]), inst["sharp"]
        n = gr.n
        bound = o.extremal.sharp_bound(n)
        threshold = Fraction(3 * n - 3, 4)

        rep = out.call("check_ore", o.conditions.check_ore, gr.g)
        if rep is not None:
            out.record.append(["check_ore", rep.satisfied, str(rep.margin), rep.witness])
            x, y = rep.witness or (0, 0)
            ok = (out.expect(rep.satisfied == (not sharp), "check_ore", "wrong verdict")
                  and out.expect(x != y and (x, y) not in gr.arcs, "check_ore",
                                 "witness is not a non-arc pair")
                  and out.expect(gr.out_deg[x] + gr.in_deg[y] - threshold == rep.margin,
                                 "check_ore", "witness does not reproduce the margin"))
            if ok:
                out.expect(gr.min_pair_sum() - threshold == rep.margin, "check_ore",
                           "margin is not the minimum pair sum")

        pair = out.call("find_sharp_pair", o.extremal.find_sharp_pair, gr.g, bound)
        out.record.append(["find_sharp_pair", pair])
        if sharp:
            if out.expect(pair is not None, "find_sharp_pair", "no sharp pair"):
                x, y = pair
                out.expect((x, y) not in gr.arcs and x != y
                           and gr.out_deg[x] + gr.in_deg[y] == bound,
                           "find_sharp_pair", "witness does not sum to sharp_bound(n)")
        else:
            out.expect(pair is None, "find_sharp_pair", "sharp pair in an Ore-type graph")

        res = out.call("exact_dp", o.hamilton.exact_dp, gr.g)
        hamiltonian = None
        if res is not None:
            cert = list(res.certificate.vertices) if res.certificate is not None else None
            out.record.append(["exact_dp", res.verdict, cert])
            if sharp:
                # non-Hamiltonian by construction
                out.expect(res.verdict == "none_exists", "exact_dp", "wrong verdict")
                hamiltonian = False
            elif out.expect(res.verdict == "cycle_found", "exact_dp",
                            "no cycle in an Ore-type graph") and \
                    out.expect(gr.is_hamilton_cycle(cert), "exact_dp",
                               "certificate is not a Hamilton cycle"):
                hamiltonian = True
        _pipeline(o, out, gr, index, hamiltonian)
        return out


def _augment(o, g, rng: random.Random):
    """Add seeded random arcs to ``g`` until check_ore holds.  Each arc
    raises the degree sum of the current witness pair: it leaves x or enters
    y from a vertex not yet adjacent.  Returns None when no such arc is left."""
    n = g.n
    while True:
        rep = o.conditions.check_ore(g)
        if rep.satisfied:
            return g
        x, y = rep.witness
        free = [z for z in range(n) if z not in (x, y)]
        options = ([(x, z) for z in free if not g.has_arc(x, z) and not g.has_arc(z, x)]
                   + [(z, y) for z in free if not g.has_arc(z, y) and not g.has_arc(y, z)])
        if x != y and not g.has_arc(x, y) and not g.has_arc(y, x):
            options.append((x, y))
        if not options:
            return None
        g = g.add_arc(*rng.choice(options))


# -- certify-cli -------------------------------------------------------------------


class CertifyCli:
    name = "certify-cli"
    units = 8
    round = 1
    nominal_s = 0.95

    def __init__(self, o, scale: str):
        sizes = SIZES[scale]
        self.n, self.a = sizes["cli_n"], sizes["cli_a"]
        self.ac, self.d = sizes["cli_ac"], sizes["cli_d"]

    def setup_unit(self, o, seed: int, j: int, workdir: Path) -> list[dict]:
        unit_seed = o.seeds.derive_seed(seed, "certify", j)
        params = o.extremal.table_params(self.n, self.a, ac_extra=self.ac,
                                         d_extra=self.d, seed=unit_seed)
        planted, part = o.extremal.generate_extremal(params)
        rng = o.seeds.rng_for(unit_seed, "relabel")
        perm = list(range(self.n))
        rng.shuffle(perm)
        g = o.graph.OrientedGraph(self.n, [(perm[u], perm[v]) for u, v in planted.arcs()])
        graph_file = workdir / f"graph-{j}.txt"
        part_file = workdir / f"partition-{j}.json"
        graph_file.write_text(o.fileio.emit_edge_list(g))
        classes = {k: sorted(perm[v] for v in vs) for k, vs in part.classes().items()}
        part_file.write_text(json.dumps(classes, sort_keys=True))
        non_arcs = [(u, v) for u in range(self.n) for v in range(self.n)
                    if u != v and not g.has_arc(u, v)]
        pair = rng.choice(non_arcs)
        return [{"graph": g, "graph_file": graph_file, "part_file": part_file,
                 "pair": pair, "seed": unit_seed, "workdir": workdir}]

    def run(self, o, inst: dict, index: int, tracer=None) -> Outcome:
        out = Outcome()
        gr = Graph.of(inst["graph"])
        n = gr.n
        workdir, graph_file = inst["workdir"], str(inst["graph_file"])

        def cli(label: str, sub: str, args: list[str], expect_rc: int | None = None):
            """One in-process CLI command; its report comes back from --out."""
            target = workdir / f"out-{label}.json"
            argv = [sub, "--input", graph_file, *args, "--out", str(target)]
            main = o.cli.main if tracer is None else tracer.wrap(f"cli.{sub}", o.cli.main)
            rc = out.call(label, main, argv)
            if rc is None:
                return None, None
            if not target.exists():
                out.fail(label, f"exit code {rc} and no report")
                return rc, None
            data = target.read_bytes()
            target.unlink()
            out.out_bytes += len(data)
            out.record.append([label, rc, hashlib.sha256(data).hexdigest()])
            if expect_rc is not None:
                out.expect(rc == expect_rc, label, f"exit code {rc}, expected {expect_rc}")
            return rc, json.loads(data)

        # degree-condition checks, each re-derived from the own degree lists
        pair_min = gr.min_pair_sum()
        semideg = min(gr.out_deg + gr.in_deg)
        expected = {
            "ore": pair_min - Fraction(3 * n - 3, 4),
            "woodall": Fraction(pair_min - n),
            "semideg": semideg - Fraction(n, 8),
            "gh": Fraction(min(gr.out_deg) + min(gr.in_deg) - n),
        }
        for cond in CHECKS:
            label = f"check-{cond}"
            rc, doc = cli(label, "check", ["--condition", cond])
            if doc is None:
                continue
            report = doc["report"]
            margin = _frac(report["margin"])
            out.expect(report["satisfied"] == (margin >= 0), label, "verdict contradicts margin")
            out.expect(rc == (0 if margin >= 0 else 1), label, f"exit code {rc}")
            if cond in expected:
                out.expect(margin == expected[cond], label,
                           f"margin {margin}, expected {expected[cond]}")
            if cond == "ore":
                x, y = report["witness"]
                out.expect((x, y) not in gr.arcs and x != y and
                           gr.out_deg[x] + gr.in_deg[y] - Fraction(3 * n - 3, 4) == margin,
                           label, "witness does not reproduce the margin")

        rc, doc = cli("profile", "profile", [], expect_rc=0)
        if doc is not None:
            prof = doc["profile"]
            total = len(prof["pairs"]) + len(prof["unconnectable"])
            out.expect(total == n * (n - 1) - len(gr.arcs), "profile",
                       f"{total} pairs, expected n(n-1) - arcs")
            _check_profile_sample(out, gr, prof, inst["seed"])

        rc, doc = cli("score-partition", "score-partition",
                      ["--partition", str(inst["part_file"]), "--eta", str(ETA)],
                      expect_rc=0)
        if doc is not None:
            out.expect(doc["report"]["verdict"] is True, "score-partition",
                       "planted partition rejected")

        u, v = inst["pair"]
        pair = ["--pair", f"{u},{v}", "--cap", str(ABSORBER_CAP)]
        for kind, extra in (("strong", []), ("weak", []), ("connector", ["--k", "3"])):
            label = f"absorbers-{kind}"
            rc, doc = cli(label, "absorbers", [*pair, "--kind", kind, *extra], expect_rc=0)
            if doc is not None:
                _check_members(out, gr, label, kind, u, v, doc)

        found = out.call("find_extremal_partition", o.extremal.find_extremal_partition,
                         gr.g, ETA, seed=inst["seed"])
        if out.expect(found is not None, "find_extremal_partition", "no partition"):
            part, report = found
            out.expect(part.support() == frozenset(range(n)), "find_extremal_partition",
                       "partition does not cover V(G)")
            out.expect(report.verdict == all(s >= 0 for s in report.slacks.values()),
                       "find_extremal_partition", "verdict contradicts slacks")
            out.record.append(["find_extremal_partition", report.verdict,
                               {k: sorted(vs) for k, vs in part.classes().items()}])
        return out


def _check_profile_sample(out: Outcome, gr: Graph, prof: dict, seed: int) -> None:
    """Recount the 1-connectors of a few seeded pairs of the profile."""
    keys = sorted(prof["pairs"])
    for key in random.Random(seed).sample(keys, min(8, len(keys))):
        u, v = map(int, key.split(","))
        entry = prof["pairs"][key]
        ones = len(gr.out_nb[u] & gr.in_nb[v] - {u, v})
        ok = (u, v) not in gr.arcs and (entry["count"] == ones if entry["k"] == 1
                                         else ones == 0)
        if not out.expect(ok, "profile", f"pair {key} miscounted"):
            return


def _check_members(out: Outcome, gr: Graph, label: str, kind: str,
                   u: int, v: int, doc: dict) -> None:
    """Every listed gadget must be one; strong absorbers and 3-connectors
    are also recounted, so the listed count is min(true count, cap)."""
    members = doc["members"]
    if not out.expect(doc["count"] == len(members) <= ABSORBER_CAP, label,
                      f"count {doc['count']} for {len(members)} members"):
        return
    if kind != "weak":
        total = (gr.count_strong(u, v) if kind == "strong" else gr.count_3_connectors(u, v))
        if not out.expect(len(members) == min(total, ABSORBER_CAP), label,
                          f"{len(members)} members, expected min({total}, cap)"):
            return
    for m in members:
        if kind == "strong":
            w, z = m
            ok = gr.is_walk([w, z]) and gr.is_walk([w, u]) and gr.is_walk([v, z])
        elif kind == "weak":
            w, wp, zp, z = m
            ok = all(gr.is_walk(p) for p in ([w, wp], [w, u], [zp, z], [v, z]))
        else:
            ok = gr.is_walk([u, *m, v])
        ok = ok and len(set(m)) == len(m) and not {u, v} & set(m)
        if not out.expect(ok, label, f"member {m} is not a {kind} gadget of ({u}, {v})"):
            return


WORKLOADS = {cls.name: cls for cls in (DensePipeline, OreExact, CertifyCli)}
