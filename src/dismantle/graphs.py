"""Finite undirected graphs with loops: domination, folding, cores.

A vertex x is dominated by another vertex a when the open neighborhood of x
is contained in the open neighborhood of a; deleting a dominated vertex is a
fold, and iterating folds until no dominated vertex remains produces the
stiff core, which is unique up to isomorphism. Containment is non-strict,
so a loopless isolated vertex (empty neighborhood) is dominated by every
other vertex.
"""

from __future__ import annotations

import re
from itertools import filterfalse

from .canon import digest_text, label, sort_key, sorted_ids
from .certificate import (DismantlingCertificate, _derive, _greedy, _pairs,
                          _replay, _Rules)
from .errors import DominationError, InputError, ResourceError

DEFAULT_ISO_BUDGET = 10**6
DEFAULT_CLIQUE_BUDGET = 10**6


def _cut(sets, gone, inverse):
    """Copy of a map from elements to sets of elements without the keys in
    gone and with gone taken out of every set. Only the sets of the
    elements in inverse[g], for g in gone, can hold g; the other sets are
    shared, not copied."""
    out = dict(sets)
    for g in gone:
        del out[g]
    for y in set().union(*(inverse[g] for g in gone)).difference(gone):
        out[y] = out[y] - gone
    return out


class Graph:
    """Immutable finite undirected graph; a loop is stored as self-adjacency.

    Vertex ids are ints, strings, or tuples of those; induced subgraphs keep
    the original ids.

    >>> g = Graph(range(3), edges=[(0, 1), (1, 2)])
    >>> sorted(g.neighborhood(1))
    [0, 2]
    >>> g.without(2).vertices
    (0, 1)
    """

    __slots__ = ("_vertices", "_adj", "_edges", "_digest")

    def __init__(self, vertices=(), edges=(), loops=()):
        adj = {}
        for v in vertices:
            adj.setdefault(v, set())
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for v in loops:
            adj.setdefault(v, set()).add(v)
        self._vertices = sorted_ids(adj)
        self._adj = {v: frozenset(adj[v]) for v in self._vertices}
        self._edges = None
        self._digest = None

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self._vertices)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._vertices)

    def _require(self, *vs):
        for v in vs:
            if v not in self._adj:
                raise InputError(f"unknown vertex: {v!r}")

    def neighborhood(self, x) -> frozenset:
        """Open neighborhood {y : y ~ x}; contains x iff x is looped."""
        self._require(x)
        return self._adj[x]

    def closed_neighborhood(self, x) -> frozenset:
        """N(x) together with x itself (derived accessor only)."""
        return self.neighborhood(x) | {x}

    def adjacent(self, u, v) -> bool:
        self._require(u, v)
        return v in self._adj[u]

    def is_looped(self, v) -> bool:
        self._require(v)
        return v in self._adj[v]

    @property
    def loops(self) -> frozenset:
        return frozenset(v for v in self._vertices if v in self._adj[v])

    def is_reflexive(self) -> bool:
        return all(v in self._adj[v] for v in self._vertices)

    def degree(self, v) -> int:
        return len(self.neighborhood(v))

    def edges(self):
        """Non-loop edges as sorted pairs, deterministically ordered."""
        if self._edges is None:
            out = []
            for u in self._vertices:
                for v in self._adj[u]:
                    if u != v and sort_key(u) < sort_key(v):
                        out.append((u, v))
            out.sort(key=lambda e: (sort_key(e[0]), sort_key(e[1])))
            self._edges = tuple(out)
        return list(self._edges)

    def induced(self, keep) -> "Graph":
        """The induced subgraph on keep."""
        keep = frozenset(keep)
        self._require(*keep)
        return self._drop(self.vertex_set - keep)

    def without(self, *xs) -> "Graph":
        self._require(*xs)
        return self._drop(frozenset(xs))

    def _drop(self, gone) -> "Graph":
        """This graph without the vertices in gone, cut from its sorted
        vertices and neighborhoods without rebuilding them."""
        sub = Graph.__new__(Graph)
        sub._vertices = tuple(filterfalse(gone.__contains__, self._vertices))
        sub._adj = _cut(self._adj, gone, self._adj)
        sub._edges = None
        sub._digest = None
        return sub

    def relabel(self, mapping) -> "Graph":
        """Rename vertices along an injective map (identity where omitted)."""
        img = {v: mapping.get(v, v) for v in self._vertices}
        if len(set(img.values())) != len(img):
            raise InputError("relabeling is not injective")
        return Graph(img.values(),
                     edges=[(img[u], img[v]) for u, v in self.edges()],
                     loops=[img[v] for v in self.loops])

    def to_text(self) -> str:
        lines = []
        for v in self._vertices:
            lines.append(f"v {label(v)} loop" if v in self._adj[v]
                         else f"v {label(v)}")
        for u, v in self.edges():
            lines.append(f"e {label(u)} {label(v)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        if self._digest is None:
            self._digest = digest_text("graph\n" + self.to_text())
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self):
        return hash(self.digest())

    def __repr__(self):
        return (f"Graph({len(self._vertices)} vertices, "
                f"{len(self.edges())} edges, {len(self.loops)} loops)")


# ---------------------------------------------------------------------------
# named constructors

def path_graph(n: int, reflexive: bool = False) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise InputError("path needs at least one vertex")
    return Graph(range(n), edges=[(i, i + 1) for i in range(n - 1)],
                 loops=range(n) if reflexive else ())


def cycle_graph(n: int, reflexive: bool = False) -> Graph:
    """Cycle on vertices 0..n-1, n >= 3."""
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    return Graph(range(n), edges=[(i, (i + 1) % n) for i in range(n)],
                 loops=range(n) if reflexive else ())


def complete_graph(n: int, reflexive: bool = False) -> Graph:
    if n < 1:
        raise InputError("complete graph needs at least one vertex")
    return Graph(range(n),
                 edges=[(i, j) for i in range(n) for j in range(i + 1, n)],
                 loops=range(n) if reflexive else ())


_NAME_RE = re.compile(r"^([PCK])(\d+)(°|o)?$")


def named_graph(name: str) -> Graph:
    """Constructors by name: P<n>, C<n>, K<n>, with an optional reflexive
    marker (the degree sign, or a plain trailing "o").

    >>> named_graph("P3").vertices
    (0, 1, 2)
    >>> named_graph("C4o").is_reflexive()
    True
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise InputError(f"unknown graph name: {name!r}")
    kind, n, refl = m.group(1), int(m.group(2)), bool(m.group(3))
    maker = {"P": path_graph, "C": cycle_graph, "K": complete_graph}[kind]
    return maker(n, reflexive=refl)


# ---------------------------------------------------------------------------
# domination and folding

def open_neighborhood(g: Graph, x) -> frozenset:
    return g.neighborhood(x)


def dominates(g: Graph, a, x) -> bool:
    """True iff N(x) is contained in N(a); requires a distinct from x."""
    if a == x:
        raise InputError("a vertex cannot dominate itself")
    return g.neighborhood(x) <= g.neighborhood(a)


def _witnesses(g: Graph, x):
    adj = g._adj
    nx = adj[x]
    if not nx:
        return [a for a in g._vertices if a != x]
    # a witness is adjacent to every neighbour of x, so to any one of them
    ws = [a for a in adj[next(iter(nx))] if a != x and nx <= adj[a]]
    return sorted(ws, key=sort_key) if len(ws) > 1 else ws


_RULES = _Rules(
    "graph", "strict", "vertex", "{x!r} not dominated by {a!r}",
    elements=lambda g: g.vertices,
    has=lambda g, x: x in g,
    witnesses=_witnesses,
    holds=lambda g, x, a: g._adj[x] <= g._adj[a],
    delete=lambda g, x: g.without(x),
    affected=lambda g, x: g._adj[x])


def find_dominated(g: Graph):
    """All (x, a) pairs with a dominating x, ascending in x then a.
    Empty exactly when the graph is stiff."""
    return _pairs(_RULES, g, g.vertices)


def is_stiff(g: Graph) -> bool:
    return not find_dominated(g)


def fold(g: Graph, x, a) -> Graph:
    """Delete the dominated vertex x (retracting it onto a)."""
    g._require(x, a)
    if not dominates(g, a, x):
        raise DominationError(f"{x!r} is not dominated by {a!r}")
    return g.without(x)


def dismantle_core(g: Graph, rng=None):
    """Fold dominated vertices until the residual graph is stiff.

    Deterministically removes the smallest dominated vertex with its
    smallest witness; pass an rng to randomize the tie-breaking (the core
    is the same up to isomorphism either way).
    """
    return _greedy(_RULES, g, rng)


def dismantles_onto(g: Graph, target_vertices, rng=None):
    """Greedy dismantling of g onto its induced subgraph on the given
    vertex set; returns a certificate, or None when no dismantling exists.

    Greedy choice is complete here: deleting any dominated vertex outside
    the target preserves dismantlability onto it, so a greedy dead end is a
    genuine "no". (When the target is not reachable by deletions of
    dominated vertices at all, None is the answer, not an error.)
    """
    target = frozenset(target_vertices)
    g._require(*target)
    return _greedy(_RULES, g, rng, target)[1]


def reflexive_closure(g: Graph) -> Graph:
    """Add a loop on every vertex; idempotent."""
    return Graph(g.vertices, edges=g.edges(), loops=g.vertices)


# ---------------------------------------------------------------------------
# isomorphism

def _signature(g: Graph, v):
    nb = g.neighborhood(v)
    return (v in nb, len(nb),
            tuple(sorted((g.degree(u), g.is_looped(u)) for u in nb)))


def are_isomorphic(g: Graph, h: Graph, max_nodes: int = DEFAULT_ISO_BUDGET):
    """A loop- and adjacency-preserving vertex bijection, or None.

    Backtracking with signature pruning (degree, loop flag, neighbor degree
    multiset); meant for small graphs. Raises ResourceError past the node
    budget.
    """
    if len(g) != len(h):
        return None
    sig_g = {v: _signature(g, v) for v in g.vertices}
    sig_h = {v: _signature(h, v) for v in h.vertices}
    if sorted(sig_g.values()) != sorted(sig_h.values()):
        return None
    candidates = {}
    for v in g.vertices:
        candidates[v] = [w for w in h.vertices if sig_h[w] == sig_g[v]]
    order = sorted(g.vertices, key=lambda v: (len(candidates[v]), sort_key(v)))

    mapping = {}
    used = set()
    nodes = 0

    def consistent(v, w):
        for u, fu in mapping.items():
            if g.adjacent(u, v) != h.adjacent(fu, w):
                return False
        return True

    def backtrack(i):
        nonlocal nodes
        if i == len(order):
            return True
        nodes += 1
        if nodes > max_nodes:
            raise ResourceError(
                f"isomorphism search budget exceeded ({max_nodes} nodes)")
        v = order[i]
        for w in candidates[v]:
            if w in used or not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return dict(mapping) if backtrack(0) else None


def same_d_homotopy_type(g: Graph, h: Graph,
                         max_nodes: int = DEFAULT_ISO_BUDGET) -> bool:
    """Equivalence under additions/deletions of dominated vertices,
    decided by stiff-core isomorphism."""
    core_g, _ = dismantle_core(g)
    core_h, _ = dismantle_core(h)
    return are_isomorphic(core_g, core_h, max_nodes=max_nodes) is not None


# ---------------------------------------------------------------------------
# certificate replay

def replay_certificate(g: Graph, cert: DismantlingCertificate):
    """Replay a graph certificate. Returns (ok, failed_step, reason,
    residual); raises StaleCertificateError when the start digest differs.
    """
    return _replay(_RULES, g, cert)


def verify_certificate(g: Graph, cert: DismantlingCertificate) -> bool:
    """True iff every step's domination precondition holds during replay."""
    ok, _, _, _ = replay_certificate(g, cert)
    return ok


def derive_graph_certificate(g: Graph, deletion_order):
    """Turn a bare deletion order into a full certificate by picking the
    smallest dominating witness at each step; None when some deletion has
    no witness at its turn."""
    return _derive(_RULES, g, deletion_order)


# ---------------------------------------------------------------------------
# cliques (complete subgraphs, identified with their vertex sets)

def cliques(g: Graph, max_count: int = DEFAULT_CLIQUE_BUDGET):
    """All nonempty cliques as sorted vertex tuples, in lexicographic
    order. Loops are irrelevant: a clique needs its distinct members
    pairwise adjacent. Raises ResourceError past the budget."""
    out = []
    verts = g.vertices

    def extend(base, cands):
        for i, v in enumerate(cands):
            cur = base + (v,)
            out.append(cur)
            if len(out) > max_count:
                raise ResourceError(
                    f"clique enumeration budget exceeded ({max_count})")
            extend(cur, [w for w in cands[i + 1:] if g.adjacent(v, w)])

    extend((), list(verts))
    return out


def maximal_cliques(g: Graph, max_count: int = DEFAULT_CLIQUE_BUDGET):
    """Facet-like cliques: those not extendable by any further vertex."""
    out = []
    for c in cliques(g, max_count=max_count):
        members = set(c)
        if not any(v not in members and all(g.adjacent(v, u) for u in c)
                   for v in g.vertices):
            out.append(c)
    return out
