"""Slow reference implementations used to cross-check the library.

Everything here is written as plain nested loops over vertex tuples (or,
for the absorb assignment, over route choices) so the logic is
independently auditable. Nothing imports from oriham beyond the
graph container itself, except ``reservoir_oracle``, which takes its
connector lists from ``enumerate_connectors`` (checked against
``connectors_oracle`` by the connector tests), ``profile_json_dict``, which
takes its counts from ``connectivity_profile`` (checked against
``connectors_oracle`` by the profile tests), and the partition search
oracles, which take the partition and report types, the size allowance and
the seeded random streams from the library.  ``path_cover_oracle`` is a
set-and-list greedy path cover making the same random draws as the
library's; it takes the result type and the seeded random streams from
the library.  ``weak_absorbers_reference`` is the straightforward
bitset enumeration of weak absorbers (probe by probe, full strong counts
compared as fractions) that the library's pruned one must reproduce,
budget truncation included.  ``min_semidegree_oracle`` is the
one-draw-at-a-time reversal loop that ``random_min_semidegree`` must
reproduce; it takes its starting tournament and seeded stream from the
library.  ``near_regular_oracle`` lists the circulant tournament's arcs one
offset at a time, relabelled through the library's seeded stream.
``reservoir_options_reference`` is the reservoir's per-pair rule written
over the flat ``enumerate_connectors`` list, and ``strong_draw_reference``
the eager strong-absorber draw that places every sampled rank at once.
``absorb_reference`` is the leftover matching with the recursive Kuhn
step, over (kind, index) gadget nodes, that ``absorb_vertices`` must
reproduce route for route; ``hall_violator_oracle`` tries every vertex set.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import permutations, product

from oriham.absorption import (connectivity_profile, default_reservoir_size,
                               enumerate_connectors)
from oriham.extremal import (SIZE_ROUNDING_ALLOWANCE, ExtremalityReport,
                             near_regular_tournament)
from oriham.graph import (DiPath, OrientedGraph, Partition4, iter_bits, mask_of,
                          nth_bit)
from oriham.hamilton import CoverResult
from oriham.seeds import rng_for


def non_arc_pairs(g):
    """Ordered pairs (x, y), x != y, with no arc from x to y; x ascending,
    then y ascending."""
    return [(x, y) for x in range(g.n) for y in range(g.n)
            if x != y and not g.has_arc(x, y)]


def ore_min_pair(g):
    """Smallest deg_out(x) + deg_in(y) over ordered non-arc pairs, or None."""
    best = None
    witness = None
    for x in range(g.n):
        for y in range(g.n):
            if x == y or g.has_arc(x, y):
                continue
            s = g.out_degree(x) + g.in_degree(y)
            if best is None or s < best:
                best = s
                witness = (x, y)
    return best, witness


def ore_holds(g):
    best, _ = ore_min_pair(g)
    if best is None:
        return True
    return Fraction(best) >= Fraction(3 * g.n - 3, 4)


def profile_json_dict(g):
    """The ``profile`` part of the CLI's profile report as a plain map:
    "u,v" -> {"k", "count"} for each connectable pair, and the
    unconnectable pairs in (u, v) order."""
    prof = connectivity_profile(g)
    return {"pairs": {f"{u},{v}": {"k": k, "count": c}
                      for (u, v), (k, c) in sorted(prof.best.items())},
            "unconnectable": [list(p) for p in prof.unconnectable]}


def connectors_oracle(g, u, v, k):
    """All k-tuples of distinct inner vertices forming a u -> ... -> v path."""
    ex = {u, v}
    out = []
    for tup in permutations(sorted(set(range(g.n)) - ex), k):
        seq = (u,) + tup + (v,)
        if all(g.has_arc(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
            out.append(tup)
    return sorted(out)


def strong_absorbers_oracle(g, u, v):
    out = []
    for w in range(g.n):
        if w in (u, v):
            continue
        for z in range(g.n):
            if z in (u, v) or z == w:
                continue
            if g.has_arc(w, z) and g.has_arc(w, u) and g.has_arc(v, z):
                out.append((w, z))
    return sorted(out)


def weak_absorbers_oracle(g, u, v, alpha1):
    """Quadruples (w, wp, zp, z) whose inner pair is strongly absorbable."""
    threshold = alpha1 * g.n * g.n
    inner_ok = {}
    out = []
    for w, wp, zp, z in permutations(range(g.n), 4):
        if u in (w, wp, zp, z) or v in (w, wp, zp, z):
            continue
        if not (g.has_arc(w, wp) and g.has_arc(zp, z)):
            continue
        if not (g.has_arc(w, u) and g.has_arc(v, z)):
            continue
        key = (wp, zp)
        if key not in inner_ok:
            cnt = len(strong_absorbers_oracle(g, wp, zp))
            inner_ok[key] = Fraction(cnt) >= threshold
        if inner_ok[key]:
            out.append((w, wp, zp, z))
    return sorted(out)


def weak_absorbers_reference(g, u, v, alpha1, cap=None, budget=100_000):
    """Weak absorbers of (u, v) in ascending lexicographic order, stopping
    after ``cap`` of them or at the (budget + 1)-th probed (w, wp, zp)."""
    ex = ~mask_of((u, v))
    threshold = Fraction(alpha1) * g.n * g.n
    memo = {}

    def strong_count(a, b):
        exab = ~mask_of((a, b))
        return sum((g.out_bits(w) & g.out_bits(b) & exab).bit_count()
                   for w in iter_bits(g.in_bits(a) & exab))

    found = []
    work = 0
    for w in iter_bits(g.in_bits(u) & ex):
        for wp in iter_bits(g.out_bits(w) & ex & ~(1 << w)):
            for zp in iter_bits(g.full_mask() & ex & ~mask_of((w, wp))):
                work += 1
                if work > budget:
                    return found
                zs = g.out_bits(zp) & g.out_bits(v) & ex & ~mask_of((w, wp, zp))
                if not zs:
                    continue
                if (wp, zp) not in memo:
                    memo[wp, zp] = strong_count(wp, zp) >= threshold
                if not memo[wp, zp]:
                    continue
                for z in iter_bits(zs):
                    found.append((w, wp, zp, z))
                    if cap is not None and len(found) >= cap:
                        return found
    return found


def endpoint_table_oracle(g):
    """Held-Karp table indexed by vertex set, in push form: entry ``mask`` is
    the bit set of ends of paths from vertex 0 that visit exactly ``mask``."""
    n = g.n
    out = [sum(1 << w for w in range(n) if g.has_arc(v, w)) for v in range(n)]
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n, 2):
        for v in range(n):
            if dp[mask] >> v & 1:
                for w in range(n):
                    if out[v] >> w & 1 and not mask >> w & 1:
                        dp[mask | (1 << w)] |= 1 << w
    return dp


def near_regular_oracle(m, seed=None):
    """``near_regular_tournament`` as an arc list: u -> u + off for off in
    1..(base - 1) / 2 on the odd circulant of order base = m or m + 1,
    dropping the phantom vertex m, then relabelled by the shuffle of the
    seeded ``"tournament"`` stream."""
    if m <= 1:
        return OrientedGraph(m)
    base = m if m % 2 == 1 else m + 1
    arcs = []
    for u in range(base):
        for off in range(1, (base - 1) // 2 + 1):
            v = (u + off) % base
            if u < m and v < m:
                arcs.append((u, v))
    if seed is None:
        return OrientedGraph(m, arcs)
    relabel = list(range(m))
    rng_for(seed, "tournament", m).shuffle(relabel)
    return OrientedGraph(m, [(relabel[u], relabel[v]) for u, v in arcs])


def min_semidegree_oracle(n, bound, seed, flips=None):
    """``random_min_semidegree`` one ``randrange`` pair at a time, with
    bitset degrees: reverse the arc between u and v when both touched
    degrees stay at or above ``bound``."""
    if bound > (n - 1) // 2:
        raise ValueError(f"bound {bound} unattainable")
    base = near_regular_tournament(n, None)
    out = [base.out_bits(v) for v in range(n)]
    inn = [base.in_bits(v) for v in range(n)]
    rng = rng_for(seed, "min-semidegree", n, bound)
    for _ in range(flips if flips is not None else 8 * n * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if not (out[u] >> v) & 1:
            u, v = v, u
            if not (out[u] >> v) & 1:
                continue
        if out[u].bit_count() - 1 < bound or inn[v].bit_count() - 1 < bound:
            continue
        out[u] &= ~(1 << v)
        inn[v] &= ~(1 << u)
        out[v] |= 1 << u
        inn[u] |= 1 << v
    return OrientedGraph(n, [(u, v) for u in range(n) for v in iter_bits(out[u])])


def reservoir_oracle(g, avoid=(), target_size=None, prefer=None, stats=None):
    """The eager reservoir selection.  Each stage k lists, for every
    uncovered ordered non-arc pair outside ``avoid`` and the earlier
    stages, the first 8 of its first 64 k-connectors that avoid those
    vertices (and lie in a nonempty ``prefer``); orders all lists
    round-robin by rank without repeats; and keeps disjoint tuples until
    (budget - chosen) // k are kept.  Returns the chosen vertex set.

    ``stats``, a dict, gains the set of stages that ran (had room) under
    ``"stages"`` and, under ``"cut_by_cap"``, the number of pairs with more
    than 64 connectors whose filtered list came out shorter than 8.
    """
    budget = target_size if target_size is not None else default_reservoir_size(g.n)
    chosen, covered = set(), set()
    for k in (1, 2, 3):
        room = (budget - len(chosen)) // k
        if room <= 0:
            break
        if stats is not None:
            stats.setdefault("stages", set()).add(k)
        banned = set(avoid) | chosen
        stage = {}
        for u in range(g.n):
            for v in range(g.n):
                if (u == v or u in banned or v in banned or g.has_arc(u, v)
                        or (u, v) in covered):
                    continue
                found = enumerate_connectors(g, u, v, k, cap=65)
                opts = [tup for tup in found[:64] if banned.isdisjoint(tup)
                        and (not prefer or set(tup) <= set(prefer))]
                if stats is not None and len(found) > 64 and len(opts) < 8:
                    stats["cut_by_cap"] = stats.get("cut_by_cap", 0) + 1
                if opts:
                    stage[(u, v)] = opts[:8]
        ordered, seen = [], set()
        for rank in range(8):
            for pair in sorted(stage):
                if rank < len(stage[pair]) and stage[pair][rank] not in seen:
                    seen.add(stage[pair][rank])
                    ordered.append(stage[pair][rank])
        kept = []
        for tup in ordered:
            if len(kept) < room and all(set(tup).isdisjoint(t) for t in kept):
                kept.append(tup)
        for tup in kept:
            chosen.update(tup)
        covered.update(pair for pair, opts in stage.items()
                       if any(tup in kept for tup in opts))
    return frozenset(chosen)


def reservoir_options_reference(g, u, v, k, bad):
    """The first 8 of the first 64 k-connectors of (u, v) that avoid the
    bitmask ``bad``, filtered from the flat connector list."""
    return [t for t in enumerate_connectors(g, u, v, k, cap=64)
            if not mask_of(t) & bad][:8]


def strong_draw_reference(g, v, avoid, k, rng):
    """Up to k strong absorbers (w, z) of v outside the bitmask ``avoid``:
    ``rng.sample`` over their lexicographic ranks, every rank placed at
    once by bisecting the prefix popcounts over in(v)."""
    out = g._out
    ex = ~(1 << v | avoid)
    from_v = out[v] & ex
    ws, zsets, starts = [], [], []
    total = 0
    for w in iter_bits(g._in[v] & ex):
        if zs := out[w] & from_v:
            ws.append(w)
            zsets.append(zs)
            starts.append(total)
            total += zs.bit_count()
    picks = []
    for rank in rng.sample(range(total), min(k, total)):
        i = bisect_right(starts, rank) - 1
        picks.append((ws[i], nth_bit(zsets[i], rank - starts[i])))
    return picks


def slacks_oracle(g, part, eta, c_eta):
    """The 13 near-extremal slacks as exact Fractions, counted over the
    class sets with ``count_arcs_between`` / ``count_arcs_within``."""
    n = g.n
    size_tol = c_eta * eta * n + SIZE_ROUNDING_ALLOWANCE
    edge_tol = c_eta * eta * n * n
    a, b, c, d = part.A, part.B, part.C, part.D
    between, within = g.count_arcs_between, g.count_arcs_within
    return {
        "size_AC": size_tol - abs(len(a) + len(c) - Fraction(n, 2)),
        "size_B": size_tol - abs(len(b) - Fraction(n, 4)),
        "size_D": size_tol - abs(len(d) - Fraction(n, 4)),
        "e_AB": between(a, b) - (len(a) * len(b) - edge_tol),
        "e_BC": between(b, c) - (len(b) * len(c) - edge_tol),
        "e_CD": between(c, d) - (len(c) * len(d) - edge_tol),
        "e_DA": between(d, a) - (len(a) * len(d) - edge_tol),
        "e_BD": between(b, d) - (Fraction(len(a) * n, 8) - edge_tol),
        "e_DB": between(d, b) - (Fraction(len(c) * n, 8) - edge_tol),
        "e_A": within(a) - (Fraction(len(a) * (len(a) - 1), 2) - edge_tol),
        "e_C": within(c) - (Fraction(len(c) * (len(c) - 1), 2) - edge_tol),
        "e_AC": edge_tol - between(a, c),
        "e_D": edge_tol - within(d),
    }


def partition_search_oracle(g, eta, c_eta=Fraction(1), seed=0,
                            restarts=6, move_budget=400):
    """The partition search with every candidate move rescored in full:
    degree-imbalance starts, first-improvement single-vertex moves (v
    ascending, destination A, B, C, D) ranked by (min slack, slack sum),
    one report per restart, stop at the first accepted partition."""
    n = g.n
    if n < 4:
        return None
    eta, c_eta = Fraction(eta), Fraction(c_eta)

    def score(part):
        slacks = slacks_oracle(g, part, eta, c_eta)
        return (min(slacks.values()), sum(slacks.values()))

    def degree_start(rng):
        jitter = {v: rng.random() for v in range(n)}
        order = sorted(range(n),
                       key=lambda v: (g.out_degree(v) - g.in_degree(v), jitter[v]))
        quarter = max(1, round(n / 4))
        d_side = set(order[:quarter])
        b_side = set(order[-quarter:])
        b_mask, d_mask = mask_of(b_side), mask_of(d_side)
        a_side, c_side = set(), set()
        for v in order[quarter:-quarter]:
            a_like = ((g.out_bits(v) & b_mask).bit_count()
                      + (g.in_bits(v) & d_mask).bit_count())
            c_like = ((g.in_bits(v) & b_mask).bit_count()
                      + (g.out_bits(v) & d_mask).bit_count())
            (a_side if a_like >= c_like else c_side).add(v)
        return Partition4.of(a_side, b_side, c_side, d_side)

    def local_search(part):
        current = part
        current_score = score(current)
        for _ in range(move_budget):
            improved = False
            for v in range(n):
                for dst in "ABCD":
                    src = next(label for label, xs in current.classes().items()
                               if v in xs)
                    if dst == src:
                        continue
                    classes = {k: set(s) for k, s in current.classes().items()}
                    classes[src].discard(v)
                    classes[dst].add(v)
                    cand = Partition4.of(classes["A"], classes["B"],
                                         classes["C"], classes["D"])
                    cand_score = score(cand)
                    if cand_score > current_score:
                        current, current_score = cand, cand_score
                        improved = True
            if not improved:
                break
        return current

    best = None
    for r in range(restarts):
        part = local_search(degree_start(rng_for(seed, "partition-search", r)))
        slacks = slacks_oracle(g, part, eta, c_eta)
        report = ExtremalityReport(eta, c_eta, slacks,
                                   all(s >= 0 for s in slacks.values()))
        if best is None or report.min_slack() > best[1].min_slack():
            best = (part, report)
        if best[1].verdict:
            break
    return best


def absorb_assignment_oracle(g, P, leftovers):
    """A leftover -> (weak index or None, strong index) assignment that
    places every leftover through the gadgets of the absorbing path P,
    or None.  Leftover v takes a strong gadget (w, z) with w->v->z, or a
    weak gadget (w, w', z', z) with w->v->z together with a strong gadget
    (s, t) with s->w' and z'->t; no gadget is used twice.  Every
    combination of routes is tried."""
    def serves(gad, u, v):
        return g.has_arc(gad.w, u) and g.has_arc(v, gad.z)

    routes = []
    for v in leftovers:
        options = []
        for s in range(len(P.strong)):
            if serves(P.strong[s], v, v):
                options.append((None, s))
        for w in range(len(P.weak)):
            if serves(P.weak[w], v, v):
                for s in range(len(P.strong)):
                    if serves(P.strong[s], P.weak[w].wp, P.weak[w].zp):
                        options.append((w, s))
        routes.append(options)
    for choice in product(*routes):
        strong = [s for _, s in choice]
        weak = [w for w, _ in choice if w is not None]
        if len(set(strong)) == len(strong) and len(set(weak)) == len(weak):
            return dict(zip(leftovers, choice))
    return None


def _kuhn_step(left, edges, owner, seen):
    """Recursive augmenting step: find an alternating path from ``left``
    over ``edges`` (left node -> right nodes in preference order) and flip
    it into ``owner`` (right node -> left node)."""
    for right in edges[left]:
        if right not in seen:
            seen.add(right)
            if right not in owner or _kuhn_step(owner[right], edges, owner, seen):
                owner[right] = left
                return True
    return False


def absorb_reference(g, P, leftovers):
    """What ``absorb_vertices`` returns for sorted distinct ``leftovers``
    that some gadget serves each: (path, strong, weak), or the list of
    unplaced vertices when the matching leaves some.  Leftovers augment
    over their strong hosts ascending, then the unmatched ones over strong
    then weak hosts; an inner pair prefers its own weak gadget, then the
    strong hosts of (w', z')."""
    def serves(gad, u, v):
        return g.has_arc(gad.w, u) and g.has_arc(v, gad.z)

    todo = sorted(set(leftovers))
    strong = {v: [("strong", i) for i, gad in enumerate(P.strong)
                  if serves(gad, v, v)] for v in todo}
    edges = {v: strong[v] + [("weak", i) for i, gad in enumerate(P.weak)
                             if serves(gad, v, v)] for v in todo}
    owner = {}
    for i, gad in enumerate(P.weak):
        edges[("inner", i)] = [("weak", i)] + [
            ("strong", j) for j, s in enumerate(P.strong) if serves(s, gad.wp, gad.zp)]
        owner[("weak", i)] = ("inner", i)
    unmatched = [v for v in todo if not _kuhn_step(v, strong, owner, set())]
    for v in unmatched:
        _kuhn_step(v, edges, owner, set())
    route = {left: right for right, left in owner.items()}
    unplaced = [v for v in todo if v not in route]
    if unplaced:
        return unplaced
    path = list(P.path)
    for v in todo:
        kind, i = route[v]
        insert = [v]
        if kind == "weak":
            gad = P.weak[i]
            a, b = path.index(gad.w), path.index(gad.z)
            insert = path[a + 1:b]
            path[a + 1:b] = [v]
            _, i = route[("inner", i)]
        k = path.index(P.strong[i].w) + 1
        path[k:k] = insert
    return (tuple(path),
            tuple(gad for i, gad in enumerate(P.strong) if ("strong", i) not in owner),
            tuple(gad for i, gad in enumerate(P.weak)
                  if owner[("weak", i)] == ("inner", i)))


def hall_violator_oracle(g):
    """Whether some vertex set S has fewer than |S| out-neighbours in all,
    tried set by set (König: exactly when G has no cycle factor)."""
    outs = [[w for w in range(g.n) if g.has_arc(v, w)] for v in range(g.n)]
    for bits in range(1, 1 << g.n):
        members = [v for v in range(g.n) if bits >> v & 1]
        reach = set()
        for v in members:
            reach.update(outs[v])
        if len(reach) < len(members):
            return True
    return False


def path_cover_oracle(g, avoid, max_paths, seed=0):
    """The greedy path cover with a set of remaining vertices, a rebuilt
    mask per step and an ``has_arc`` test per insertion spot; picks are
    ``rng.choice`` over ascending candidate lists."""
    pool = [v for v in range(g.n) if v not in avoid]
    if not pool:
        return CoverResult((), frozenset(), False)

    def pick_bit(mask, rng):
        return rng.choice(list(iter_bits(mask)))

    def attempt(rng):
        remaining = set(pool)
        paths = []
        while remaining:
            start = rng.choice(sorted(remaining))
            remaining.remove(start)
            path = [start]
            while True:
                opts = g.out_bits(path[-1]) & mask_of(remaining)
                if opts:
                    w = pick_bit(opts, rng)
                    path.append(w)
                    remaining.remove(w)
                    continue
                opts = g.in_bits(path[0]) & mask_of(remaining)
                if opts:
                    w = pick_bit(opts, rng)
                    path.insert(0, w)
                    remaining.remove(w)
                    continue
                inserted = False
                for v in sorted(remaining):
                    spots = [i for i in range(len(path) - 1)
                             if g.has_arc(path[i], v) and g.has_arc(v, path[i + 1])]
                    if spots:
                        path.insert(spots[0] + 1, v)
                        remaining.remove(v)
                        inserted = True
                        break
                if not inserted:
                    break
            paths.append(path)
        return paths

    paths = attempt(rng_for(seed, "cover", 0))
    truncated = len(paths) > max_paths
    if truncated:
        keep = set(map(tuple, sorted(paths, key=len, reverse=True)[:max_paths]))
        kept = [p for p in paths if tuple(p) in keep]
    else:
        kept = paths
    covered = {v for p in kept for v in p}
    return CoverResult(tuple(DiPath(tuple(p)) for p in kept),
                       frozenset(pool) - covered, truncated)
