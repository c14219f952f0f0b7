"""Seeded inputs, one timed pass, and independent checks for each workload.

A pass calls the library only through module attributes
(``sparsity.tree_depth(...)``), so that the traced run, which replaces those
attributes, sees every call the pass makes. Timing covers the library calls
alone; the checks run between timed blocks and use only this file's own
bitmask code, never the library's search or verifier code, except where a
workload names a library verifier as the thing it exercises.
"""

from __future__ import annotations

import hashlib
import math
import random

from homdual import catalog, coloring, duality, formats, graphs, powers, sparsity

# Known totals; a different seed must not change them.
CENTERED_N = 7
CENTERED_CORPUS = 996  # connected graphs on 1..7 vertices
SMALL_N = 7
SMALL_CORPUS = 1253  # all graphs on 0..7 vertices
SUBCUBIC_CORPUS = 113  # connected graphs on <= 7 vertices, max degree 3
SUBCUBIC_TRIANGLE_FREE = 54
DUAL_ORDER = 3645
DUAL_BATCHES = 8

# Seeded random graphs: (vertices, edge density, how many) per cell.
# A fixed grid keeps the amount of work per pass nearly the same for
# every seed, so the spread between runs measures the machine, not the draw.
CENTERED_RANDOM = [(n, d, 16) for n in (9, 10, 11, 12) for d in (0.25, 0.4)]
SMALL_RANDOM = [(8, 0.2, 8), (9, 0.2, 4), (10, 0.2, 4)]
G6_GRID = [(n, d, 2) for n in (25, 50, 100, 150, 200, 250, 300, 350, 400)
           for d in (0.02, 0.1, 0.3)]


class Record:
    """What one pass measured and checked.

    A timed block is a list of (start, end) pairs on the runner's clock and
    has the same key in every pass, so that a run can scale each block's
    time to the host's speed and take its median over the passes.
    """

    def __init__(self, clock):
        self.now = clock
        self.items: dict[object, list] = {}  # one graph each
        self.stages: dict[str, list] = {}  # pass-level calls
        self.detail: dict[str, list] = {}  # sub-timings reported apart, not tallied
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = 0.0  # the whole pass, checks included; set by the runner
        self.cache = None  # tree_depth_value.cache_info() after the pass
        self.counts: dict[str, int] | None = None  # traced work counters

    @property
    def lib_s(self) -> float:
        """Time this pass spent inside timed library blocks."""
        return sum(end - start for table in (self.items, self.stages)
                   for spans in table.values() for start, end in spans)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# --- the benchmark's own graph code (independent of the library) ---

def random_rows(rng: random.Random, n: int, d: float) -> list[int]:
    """A uniform graph with exactly round(d * n(n-1)/2) edges."""
    rows = [0] * n
    pairs = n * (n - 1) // 2
    for k in rng.sample(range(pairs), round(d * pairs)):
        j = (1 + math.isqrt(1 + 8 * k)) // 2  # k = j(j-1)/2 + i with i < j
        i = k - j * (j - 1) // 2
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def g6_header(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


def g6_encode(n: int, rows) -> str:
    """graph6 from rows: bit k of the upper triangle, column by column."""
    out, acc, nbits = [], 0, 0
    for j in range(1, n):
        row = rows[j]
        for i in range(j):
            acc = acc << 1 | (row >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return g6_header(n) + "".join(out)


def g6_length(n: int) -> int:
    return len(g6_header(n)) + math.ceil(n * (n - 1) / 12)


def g6_bit(s: str, header: int, i: int, j: int) -> int:
    """Adjacency bit of the pair i < j read straight from a graph6 string."""
    k = j * (j - 1) // 2 + i
    return (ord(s[header + k // 6]) - 63) >> (5 - k % 6) & 1


def edge_list_text(n: int, rows) -> str:
    lines = [f"n {n}"]
    for v in range(n):
        row = rows[v] >> (v + 1)
        u = v + 1
        while row:
            if row & 1:
                lines.append(f"{v} {u}")
            row >>= 1
            u += 1
    return "\n".join(lines) + "\n"


def edges_of(rows):
    for v, row in enumerate(rows):
        for u in range(v + 1, len(rows)):
            if row >> u & 1:
                yield v, u


def triangle_free(rows) -> bool:
    return not any(rows[u] & rows[v] for u, v in edges_of(rows))


def connected_within(rows, S: int) -> bool:
    if not S:
        return False
    seen = S & -S
    frontier = seen
    while frontier:
        nxt = 0
        v = 0
        f = frontier
        while f:
            if f & 1:
                nxt |= rows[v]
            f >>= 1
            v += 1
        nxt &= S & ~seen
        seen |= nxt
        frontier = nxt
    return seen == S


def is_hom(rows_g, rows_h, image) -> bool:
    return all(rows_h[image[u]] >> image[v] & 1 for u, v in edges_of(rows_g))


def forest_ok(rows, parent, value: int) -> bool:
    """Parent array is a forest of height ``value`` whose closure holds every edge."""
    n = len(rows)
    if len(parent) != n:
        return False
    anc = [0] * n
    height = 0
    for v in range(n):
        x, h = parent[v], 1
        while x is not None:
            if h > n:
                return False
            anc[v] |= 1 << x
            x, h = parent[x], h + 1
        height = max(height, h)
    if height != (value if n else 0):
        return False
    return all(anc[u] >> v & 1 or anc[v] >> u & 1 for u, v in edges_of(rows))


def exact3_rows(rows) -> list[int]:
    """x ~ y iff a simple path x-a-b-y of length exactly 3 joins them."""
    n = len(rows)
    out = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and rows[a] >> b & 1:
                for x in range(n):
                    if x != b and rows[a] >> x & 1:
                        out[x] |= rows[b] & ~(1 << a) & ~(1 << x)
    return out


def two_colourable(rows) -> bool:
    n = len(rows)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in range(n):
                if rows[v] >> u & 1:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return False
    return True


def greedy_colours(rows) -> int:
    n = len(rows)
    col = [-1] * n
    for v in range(n):
        used = {col[u] for u in range(n) if rows[v] >> u & 1}
        c = 0
        while c in used:
            c += 1
        col[v] = c
    return max(col, default=-1) + 1


def digest(graph_list) -> str:
    h = hashlib.sha256()
    for G in graph_list:
        h.update(repr((G.n, G.rows)).encode())
    return h.hexdigest()[:16]


# --- workloads ---

class CenteredSweep:
    """Criterion-8 style sweep: every connected graph on at most 7 vertices,
    generated inside the pass, plus seeded random graphs handed in as graph6.
    Each gets a tree-depth certificate, its level colouring (centered at
    p = n), and the colouring with the top two levels merged (must fail)."""

    name = "centered-sweep"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.random_g6 = [g6_encode(n, random_rows(rng, n, d))
                          for n, d, k in CENTERED_RANDOM for _ in range(k)]

    def inputs_digest(self) -> str:
        return hashlib.sha256("\n".join(self.random_g6).encode()).hexdigest()[:16]

    def run(self, rec: Record) -> None:
        t = rec.now()
        corpus = catalog.generate_all_graphs(CENTERED_N, catalog.GraphFilters(connected=True))
        rec.stages["catalog"] = [(t, rec.now())]
        rec.check(len(corpus) == CENTERED_CORPUS,
                  f"{len(corpus)} connected graphs on <= {CENTERED_N} vertices")
        for i, G in enumerate(corpus):
            self._certify(rec, i, G, None)
        for i, s in enumerate(self.random_g6, start=len(corpus)):
            self._certify(rec, i, None, s)

    def _certify(self, rec: Record, key: int, G, s) -> None:
        try:
            t = rec.now()
            if G is None:
                G = formats.parse_graph6(s)
            cert = sparsity.tree_depth(G)
            td_ok = sparsity.verify_td(G, cert)
            col = coloring.centered_from_td(G, cert)
            p = max(G.n, 1)
            res = coloring.verify_p_centered(G, col, p)
            spans = [(t, rec.now())]
            parent = cert.forest.parent
            if cert.value >= 2:
                levels = [_depth(parent, v) for v in range(G.n)]
                t = rec.now()
                merged = coloring.make_coloring(G, [max(lv, 1) for lv in levels])
                bad = coloring.verify_p_centered(G, merged, p)
                spans.append((t, rec.now()))
            else:
                merged, bad = None, (False, G.full_mask)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed item
            rec.check(False, f"{self.name}: {type(exc).__name__}: {exc}")
            return
        rec.items[key] = spans
        rows = G.rows
        ok = (s is None or g6_encode(G.n, rows) == s) \
            and td_ok and forest_ok(rows, parent, cert.value) \
            and col.k == cert.value and res == (True, None) \
            and not bad[0] and _centered_violation(rows, merged, bad[1], p)
        rec.check(ok, f"{self.name}: certificate check failed on {g6_encode(G.n, rows)}")


def _depth(parent, v: int) -> int:
    d = 0
    while parent[v] is not None:
        v = parent[v]
        d += 1
    return d


def _centered_violation(rows, c, S: int, p: int) -> bool:
    """S is connected, has fewer than p colours, and none appears once."""
    if c is None:  # td 1: nothing to merge, nothing to refute
        return True
    if S is None or not connected_within(rows, S):
        return False
    counts: dict[int, int] = {}
    for v in range(len(rows)):
        if S >> v & 1:
            counts[c.colors[v]] = counts.get(c.colors[v], 0) + 1
    return len(counts) < p and 1 not in counts.values()


class DualSubcubic:
    """Criterion-9 pipeline: the triangle-free dual of the connected subcubic
    graphs on at most 7 vertices, its graph6 write, and the duality check
    over the corpus in DUAL_BATCHES verify_duality calls of equal make-up.

    The batches are timed apart so that the verify time has items of its
    own; every call also checks K3 against the dual again. The seed orders
    the graphs within each batch but keeps the catalog's vertex labels: the
    search into the dual is so sensitive to the source labelling that under
    seeded relabellings single members took up to 4 s instead of 0.1 s, and
    verify_duality ranged from 5.8 s to 11.1 s over four seeds, a spread no
    bound could hold. The catalog labelling is what ``--gen`` feeds the CLI.
    """

    name = "dual-subcubic"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        corpus = catalog.generate_all_graphs(7, catalog.GraphFilters(max_degree=3, connected=True))
        self.batches = [corpus[b::DUAL_BATCHES] for b in range(DUAL_BATCHES)]
        for batch in self.batches:
            rng.shuffle(batch)
        self.corpus = [G for batch in self.batches for G in batch]
        self.k3 = graphs.complete_graph(3)
        self.sample_seed = seed

    def inputs_digest(self) -> str:
        return digest(self.corpus)

    def run(self, rec: Record) -> None:
        members = [triangle_free(G.rows) for G in self.corpus]
        rec.check(len(self.corpus) == SUBCUBIC_CORPUS, f"{len(self.corpus)} subcubic graphs")
        rec.check(sum(members) == SUBCUBIC_TRIANGLE_FREE,
                  f"{sum(members)} triangle-free subcubic graphs")
        try:
            t = rec.now()
            build = duality.build_dual(self.corpus, [self.k3])
            rec.stages["build_dual"] = [(t, rec.now())]
            t = rec.now()
            s = formats.to_graph6(build.D)
            rec.stages["to_graph6"] = [(t, rec.now())]
            reports = []
            for b, batch in enumerate(self.batches):
                t = rec.now()
                reports.append(duality.verify_duality(batch, [self.k3], build.D))
                rec.items[b] = [(t, rec.now())]
        except Exception as exc:  # noqa: BLE001 - a raise is a failed pass
            rec.check(False, f"{self.name}: {type(exc).__name__}: {exc}")
            return
        D = build.D
        rec.check(D.n == DUAL_ORDER and build.provenance["dual_order"] == DUAL_ORDER,
                  f"dual order {D.n}")
        rec.check(triangle_free(D.rows), "the dual has a triangle")
        rec.check(self._graph6_ok(D, s), "graph6 of the dual")
        items = [item for r in reports for item in r.items]
        rec.check(all(r.verdict and r.forbidden_ok == (True,) for r in reports)
                  and len(items) == len(self.corpus), "duality verdict")
        for G, member, item in zip(self.corpus, members, items):
            w = item["witness"]
            ok = item["hom_to_dual"] == member and item["forb_member"] == member \
                and (w is None if not member else
                     len(w) == G.n and all(0 <= a < D.n for a in w) and is_hom(G.rows, D.rows, w))
            rec.check(ok, f"{self.name}: corpus graph {g6_encode(G.n, G.rows)}")

    def _graph6_ok(self, D, s: str) -> bool:
        if len(s) != g6_length(D.n) or s[:4] != g6_header(D.n):
            return False
        rng = random.Random(self.sample_seed)
        for _ in range(4096):
            i, j = sorted(rng.sample(range(D.n), 2))
            if g6_bit(s, 4, i, j) != D.rows[i] >> j & 1:
                return False
        return True


class SmallInvariants:
    """Thousands of millisecond calls: every graph on at most 7 vertices plus
    seeded random graphs on 8-10 vertices, each through the grad, flow,
    orientation, degeneracy, expansion, odd-girth, exact-power and
    chromatic routines; graphs on at most 4 vertices also through both
    sides of the power/local-homomorphism equivalence (criterion 3)."""

    name = "small-invariants"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.corpus = catalog.generate_all_graphs(SMALL_N)
        self.corpus += [graphs.Graph(n, random_rows(rng, n, d))
                        for n, d, k in SMALL_RANDOM for _ in range(k)]
        self.k2, self.k3 = graphs.complete_graph(2), graphs.complete_graph(3)
        self.bases = [G for G in catalog.generate_all_graphs(3) if G.n > 0]

    def inputs_digest(self) -> str:
        return digest(self.corpus)

    def run(self, rec: Record) -> None:
        catalog_size = len(self.corpus) - sum(k for _, _, k in SMALL_RANDOM)
        rec.check(catalog_size == SMALL_CORPUS, f"{catalog_size} graphs on <= {SMALL_N} vertices")
        for i, G in enumerate(self.corpus):
            try:
                t = rec.now()
                flow = sparsity.grad_0_flow(G)
                profile = sparsity.expansion_profile(G, 1)
                orient, indeg = sparsity.min_indegree_orientation(G)
                degen, order = sparsity.degeneracy(G)
                girth = powers.odd_girth(G)
                local = [duality.local_hom_check(G, list(range(G.n)), p, self.k2)[0] for p in (3, 5)]
                P3 = powers.exact_power(G, 3)
                chi = powers.chromatic_number(P3)
                sides = [duality.locbound_equivalence(G, U, H, 2)
                         for U in self.bases for H in (self.k2, self.k3)] if G.n <= 4 else []
                rec.items[i] = [(t, rec.now())]
            except Exception as exc:  # noqa: BLE001 - a raise is a failed item
                rec.check(False, f"{self.name}: {type(exc).__name__}: {exc}")
                continue
            rows = G.rows
            p3 = exact3_rows(rows)
            ok = flow == profile[0] \
                and all(a <= b for a, b in zip(profile, profile[1:])) \
                and _orientation_ok(rows, orient.arcs, indeg) and indeg == math.ceil(flow) \
                and _degeneracy_ok(rows, order, degen) and degen <= math.floor(2 * flow) \
                and local == [girth > 3, girth > 5] \
                and (girth == math.inf) == two_colourable(rows) \
                and P3.rows == tuple(p3) \
                and _chromatic_plausible(p3, chi) \
                and all(lhs == rhs for lhs, rhs in sides)
            rec.check(ok, f"{self.name}: invariants disagree on {g6_encode(G.n, rows)}")


def _orientation_ok(rows, arcs, indeg: int) -> bool:
    n = len(rows)
    seen = set()
    count = [0] * n
    for t, h in arcs:
        e = (min(t, h), max(t, h))
        if e in seen or not rows[t] >> h & 1:
            return False
        seen.add(e)
        count[h] += 1
    return len(seen) == sum(r.bit_count() for r in rows) // 2 and max(count, default=0) == indeg


def _degeneracy_ok(rows, order, d: int) -> bool:
    """Each vertex has at most d neighbours later in the order, and some has d."""
    if sorted(order) != list(range(len(rows))):
        return False
    later = 0
    worst = 0
    for v in reversed(order):
        worst = max(worst, (rows[v] & later).bit_count())
        later |= 1 << v
    return worst == d


def _chromatic_plausible(rows, chi: int) -> bool:
    n = len(rows)
    has_edge = any(rows)
    if n == 0:
        return chi == 0
    low = 1 if not has_edge else (2 if two_colourable(rows) else 3)
    return low <= chi <= greedy_colours(rows)


class Graph6IO:
    """Seeded graphs from 25 to 400 vertices at three densities, each
    encoded and decoded as graph6 and parsed back from edge-list text."""

    name = "graph6-io"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.graphs = []
        for n, d, k in G6_GRID:
            for _ in range(k):
                rows = random_rows(rng, n, d)
                self.graphs.append((graphs.Graph(n, rows), edge_list_text(n, rows)))

    def inputs_digest(self) -> str:
        return digest(G for G, _ in self.graphs)

    def run(self, rec: Record) -> None:
        for i, (G, text) in enumerate(self.graphs):
            try:
                t0 = rec.now()
                s = formats.to_graph6(G)
                t1 = rec.now()
                back = formats.parse_graph6(s)
                t2 = rec.now()
                from_text = formats.parse_edge_list(text)
                rec.items[i] = [(t0, rec.now())]
                rec.detail.setdefault(f"parse_graph6_ms.n{G.n}", []).append((t1, t2))
            except Exception as exc:  # noqa: BLE001 - a raise is a failed item
                rec.check(False, f"{self.name}: {type(exc).__name__}: {exc}")
                continue
            ok = len(s) == g6_length(G.n) and s == g6_encode(G.n, G.rows) \
                and back.n == G.n and back.rows == G.rows \
                and from_text.n == G.n and from_text.rows == G.rows
            rec.check(ok, f"{self.name}: round trip failed at n={G.n}")


WORKLOADS = {w.name: w for w in (CenteredSweep, DualSubcubic, SmallInvariants, Graph6IO)}
