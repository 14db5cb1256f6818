"""Seeded input generators and an independent hom-complex oracle.

Nothing here imports ``dismantle``: inputs are plain data (vertex lists,
edge lists, facets) that the ops turn into library objects outside the
timed region, and the oracle that checks the hom-cells workload is a
separate implementation, so a change to the library cannot shift either.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """A generator per (workload, seed, stream): adding a stream does not
    shift the inputs drawn from the others."""
    return random.Random(f"{workload}:{seed}:{stream}")


class GraphData(NamedTuple):
    vertices: tuple
    edges: tuple  # (u, v) with u < v
    loops: tuple

    @property
    def n(self) -> int:
        return len(self.vertices)

    def density(self) -> float:
        n = self.n
        return len(self.edges) / (n * (n - 1) / 2) if n > 1 else 0.0

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        for v in self.loops:
            adj[v].add(v)
        return adj

    def text(self) -> str:
        loops = set(self.loops)
        lines = [f"v {v} loop" if v in loops else f"v {v}"
                 for v in self.vertices]
        lines += [f"e {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


class PosetData(NamedTuple):
    elements: tuple
    lt: tuple  # generating pairs x < y

    @property
    def n(self) -> int:
        return len(self.elements)

    def density(self) -> float:
        n = self.n
        return len(self.lt) / (n * (n - 1) / 2) if n > 1 else 0.0

    def text(self) -> str:
        lines = [f"p {x}" for x in self.elements]
        lines += [f"c {x} {y}" for x, y in self.lt]
        return "\n".join(lines) + "\n"


def complex_text(facets) -> str:
    return "".join("f " + " ".join(map(str, f)) + "\n" for f in facets)


def _graph_from_adj(adj: dict) -> GraphData:
    vs = tuple(sorted(adj))
    edges = tuple((u, v) for u in vs for v in sorted(adj[u]) if u < v)
    return GraphData(vs, edges, tuple(v for v in vs if v in adj[v]))


def relabel(d: GraphData, perm: dict) -> GraphData:
    adj = d.adjacency()
    return _graph_from_adj({perm[v]: {perm[u] for u in adj[v]} for v in adj})


# ---------------------------------------------------------------------------
# scan-heavy shapes: sparse random objects where few elements can be deleted

def random_reflexive_graph(rng: random.Random, n: int, p: float) -> GraphData:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return GraphData(tuple(range(n)), edges, tuple(range(n)))


def reflexive_deletions(g: GraphData) -> int:
    """How many vertices folding removes from a reflexive graph. The core
    is unique up to isomorphism, so this does not depend on the order; a
    looped vertex can only be dominated by one of its neighbours."""
    adj = g.adjacency()
    while True:
        x = next((x for x in sorted(adj)
                  if any(a != x and adj[x] <= adj[a] for a in adj[x])), None)
        if x is None:
            return g.n - len(adj)
        for v in adj.pop(x) - {x}:
            adj[v].discard(x)


def scan_graph(rng: random.Random, n: int, p: float, share: float):
    """A random reflexive graph from which folding deletes round(share * n)
    vertices, give or take one: drawn until it does, so that every seed
    asks for about the same number of rescans at each size."""
    want = round(share * n)
    while True:
        g = random_reflexive_graph(rng, n, p)
        if abs(reflexive_deletions(g) - want) <= 1:
            return g


def random_poset(rng: random.Random, n: int, p: float) -> PosetData:
    """Random order on range(n): i < j drawn with probability p for i < j
    (the transitive closure is the library's job)."""
    lt = tuple((i, j) for i in range(n) for j in range(i + 1, n)
               if rng.random() < p)
    return PosetData(tuple(range(n)), lt)


def strict_deletions(p: PosetData) -> int:
    """How many elements beat-point deletion removes from a poset whose
    pairs all go from a smaller to a larger index (as random_poset gives).
    The strict core is unique up to isomorphism, so the count does not
    depend on the order.

    Index order is a linear extension, so the lowest element of a strict
    up-set is minimal in it, and the up-set has a least element exactly
    when that one lies below all the others (dually for down-sets)."""
    n = p.n
    up, down = [0] * n, [0] * n
    succ = [[] for _ in range(n)]
    for x, y in p.lt:
        succ[x].append(y)
    for x in reversed(range(n)):
        for y in succ[x]:
            up[x] |= (1 << y) | up[y]
    for x in range(n):
        rest = up[x]
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= 1 << x
            rest ^= low
    alive = (1 << n) - 1

    def beat(x):
        u = up[x] & alive
        if u:
            z = (u & -u).bit_length() - 1
            if (up[z] & alive) | (1 << z) == u:
                return True
        d = down[x] & alive
        if d:
            z = d.bit_length() - 1
            if (down[z] & alive) | (1 << z) == d:
                return True
        return False

    while True:
        x = next((x for x in range(n) if alive >> x & 1 and beat(x)), None)
        if x is None:
            return n - bin(alive).count("1")
        alive &= ~(1 << x)


def scan_poset(rng: random.Random, n: int, p: float, share: float):
    """A random poset from which beat-point deletion removes share * n
    elements, within 3% of n: drawn until it does (see scan_graph)."""
    want, slack = share * n, max(1.0, 0.03 * n)
    while True:
        d = random_poset(rng, n, p)
        if abs(strict_deletions(d) - want) <= slack:
            return d


def random_small_graph(rng: random.Random, n: int, looped: bool) -> GraphData:
    """A 3-5 vertex graph for the hom-cells pairs."""
    adj = {v: set() for v in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[i].add(j)
            adj[j].add(i)
    if looped:
        for v in range(n):
            if rng.random() < 0.4:
                adj[v].add(v)
    return _graph_from_adj(adj)


# ---------------------------------------------------------------------------
# deletion-heavy shapes: stiff cores grown by dominated additions

def reflexive_cycle(n: int) -> GraphData:
    return GraphData(tuple(range(n)),
                     tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n))
                                  for i in range(n))),
                     tuple(range(n)))


def grown_graph(rng: random.Random, cycle: int, added: int):
    """The reflexive cycle C<cycle>° grown by `added` looped vertices, each
    joined to an existing vertex a and to at most two neighbours of a, so
    it is dominated by a when it arrives.

    Returns (graph, steps): deleting the added vertices in reverse order,
    each with the vertex it copied as witness, dismantles the graph onto
    the cycle, so every input carries a certificate by construction.
    """
    base = reflexive_cycle(cycle)
    adj = base.adjacency()
    steps = []
    for new in range(cycle, cycle + added):
        a = rng.randrange(new)
        nbrs = sorted(adj[a] - {a})
        attach = {a, *rng.sample(nbrs, min(len(nbrs), rng.randint(0, 2)))}
        adj[new] = attach | {new}
        for v in attach:
            adj[v].add(new)
        steps.append((new, a))
    return _graph_from_adj(adj), tuple(reversed(steps))


def typical_grown_graph(rng: random.Random, cycle: int, added: int):
    """Of five grown graphs, the one with the median clique count. The
    clique-based functors and transports cost about as much as the graph
    has cliques, and a single draw of a size varies that by 2x."""
    found = sorted((clique_count(d.adjacency()), i, d, steps)
                   for i, (d, steps) in enumerate(
                       grown_graph(rng, cycle, added) for _ in range(5)))
    _, _, d, steps = found[2]
    return d, steps


def grown_poset(rng: random.Random, added: int):
    """The crown {0,1} < {2,3} (stiff in both modes) grown by elements set
    directly below or above one existing element.

    An element y added below a is comparable exactly to a and everything
    above a, so a is the least element of its strict up-set and weakly
    dominates it. Returns (poset, steps, base): the reverse-order steps
    dismantle the poset onto the crown in strict and in weak mode.
    """
    lt = [(0, 2), (0, 3), (1, 2), (1, 3)]
    steps = []
    for new in range(4, 4 + added):
        a = rng.randrange(new)
        lt.append((new, a) if rng.random() < 0.5 else (a, new))
        steps.append((new, a))
    return (PosetData(tuple(range(4 + added)), tuple(lt)),
            tuple(reversed(steps)), (0, 1, 2, 3))


def maximal_cliques(adj: dict) -> list:
    """Bron-Kerbosch with pivoting; loops are ignored. Facets come out as
    sorted tuples in sorted order."""
    nbr = {v: adj[v] - {v} for v in adj}
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(nbr[u] & p))
        for v in sorted(p - nbr[pivot]):
            expand(r | {v}, p & nbr[v], x & nbr[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return sorted(out)


def clique_count(adj: dict) -> int:
    """Nonempty cliques, i.e. simplices of the clique complex; loops are
    ignored."""
    nbr = {v: adj[v] - {v} for v in adj}
    rank = {v: i for i, v in enumerate(sorted(adj))}

    def count(cands):
        return sum(1 + count({u for u in cands & nbr[v] if rank[u] > rank[v]})
                   for v in cands)

    return count(set(adj))


# ---------------------------------------------------------------------------
# hom-complex oracle

class HomOracle:
    """Morphisms and cells between two small graphs, by direct backtracking
    over images and over nonempty image sets.

    ``morphisms`` is None past ``max_morphisms``, and ``cells`` is None
    past ``max_cells`` or when there are fewer than ``min_morphisms``
    morphisms; the workload then leaves the pair out.
    """

    def __init__(self, g: GraphData, h: GraphData, max_morphisms: int = 60,
                 max_cells: int = 2000, min_morphisms: int = 0):
        self.g, self.h = g, h
        self.gadj, self.hadj = g.adjacency(), h.adjacency()
        ms = self._assignments([(w,) for w in h.vertices], max_morphisms)
        self.morphisms = (None if ms is None
                          else [tuple(s[0] for s in m) for m in ms])
        self.cells = None
        if self.morphisms is not None and len(ms) >= min_morphisms:
            subsets = [s for r in range(1, len(h.vertices) + 1)
                       for s in itertools.combinations(h.vertices, r)]
            self.cells = self._assignments(subsets, max_cells)

    def _assignments(self, choices, cap):
        gv, gadj, hadj = self.g.vertices, self.gadj, self.hadj
        out, cur = [], []

        def fits(i, s):
            v = gv[i]
            for j, t in enumerate(cur):
                if gv[j] in gadj[v] and any(b not in hadj[a]
                                            for a in s for b in t):
                    return False
            return v not in gadj[v] or all(b in hadj[a] for a in s for b in s)

        def grow(i):
            if len(out) > cap:
                return
            if i == len(gv):
                out.append(tuple(cur))
                return
            for s in choices:
                if fits(i, s):
                    cur.append(s)
                    grow(i + 1)
                    cur.pop()

        grow(0)
        return None if len(out) > cap else out

    def adjacent(self, f, f2) -> bool:
        gv, gadj, hadj = self.g.vertices, self.gadj, self.hadj
        return all(f2[j] in hadj[f[i]]
                   for i, x in enumerate(gv) for j, y in enumerate(gv)
                   if y in gadj[x])

    def hom_edges(self) -> int:
        ms = self.morphisms
        return sum(self.adjacent(ms[i], ms[j])
                   for i in range(len(ms)) for j in range(i + 1, len(ms)))

    def connected(self, i: int, j: int) -> bool:
        ms = self.morphisms
        seen, stack = {i}, [i]
        while stack:
            k = stack.pop()
            for m in range(len(ms)):
                if m not in seen and self.adjacent(ms[k], ms[m]):
                    seen.add(m)
                    stack.append(m)
        return j in seen

    def relations(self) -> int:
        """Strict pointwise inclusions between cells."""
        sets = [tuple(map(set, c)) for c in self.cells]
        return sum(a != b and all(x <= y for x, y in zip(a, b))
                   for a in sets for b in sets)

    def clique_bound(self) -> int:
        """Upper bound on the cliques of the morphism graph: every clique
        lies inside the selections of a maximal cell, and a cell is maximal
        when no single added value gives another cell."""
        cells = set(self.cells)
        total = 0
        for c in cells:
            grows = any(
                c[:i] + (tuple(sorted(s + (w,))),) + c[i + 1:] in cells
                for i, s in enumerate(c) for w in self.h.vertices
                if w not in s)
            if not grows:
                size = 1
                for s in c:
                    size *= len(s)
                total += 2 ** size - 1
        return total


def first_dominated(g: GraphData):
    """The smallest dominated vertex with its smallest witness, or None."""
    adj = g.adjacency()
    for x in g.vertices:
        for a in g.vertices:
            if a != x and adj[x] <= adj[a]:
                return x, a
    return None
