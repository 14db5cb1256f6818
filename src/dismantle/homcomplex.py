"""Cells of the polyhedral complex of morphisms between two graphs.

A cell assigns to every source vertex a nonempty set of target vertices so
that all cross products over source edges and loops land in target edges.
``hom_cells`` enumerates the cells directly by one backtracking search over
the source vertices, and the cell poset is built from its covers: one more
target vertex in one value set. Cells are closed under shrinking value sets,
so those covers generate the whole inclusion order.

Cells correspond to complete subgraphs of the morphism graph: collapsing a
clique pointwise (``phi``) gives a cell, and expanding a cell into all of
its selections (``psi``) gives back a clique. That retraction realizes a
strict dismantling of the clique poset onto the cell poset, and source or
target folds induce dismantlings of the cell comparability graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .canon import sort_key, sorted_ids
from .certificate import DismantlingCertificate
from .errors import InputError, InternalConsistencyError, ResourceError
from .functors import clique_poset, comp
from .graphs import DEFAULT_CLIQUE_BUDGET, Graph, dismantles_onto, dominates
from .homgraph import (DEFAULT_MORPHISM_BUDGET, Morphism, _adjacent, _arcs,
                       _check_pair, _key_for_name, _value_for_name,
                       enumerate_morphisms, hom_graph)
from .posets import Poset, fixpoint_dismantle


@dataclass(frozen=True)
class IndexingFunction:
    """A cell: nonempty target-vertex sets indexed by source vertices."""

    source_digest: str
    target_digest: str
    assignment: tuple  # ((vertex, (values...)), ...) in source vertex order

    @classmethod
    def make(cls, g: Graph, h: Graph, mapping) -> "IndexingFunction":
        mapping = {v: sorted_ids(ws) for v, ws in dict(mapping).items()}
        if set(mapping) != g.vertex_set:
            raise InputError("cell domain differs from the source graph")
        for v, ws in mapping.items():
            if not ws:
                raise InputError(f"empty value set at {v!r}")
            for w in ws:
                h._require(w)
        for u, v in g.edges():
            for a in mapping[u]:
                for b in mapping[v]:
                    if not h.adjacent(a, b):
                        raise InputError(
                            f"edge ({u!r},{v!r}) breaks the cell condition")
        for v in g.loops:
            for a in mapping[v]:
                for b in mapping[v]:
                    if not h.adjacent(a, b):
                        raise InputError(
                            f"loop at {v!r} breaks the cell condition")
        items = tuple((v, mapping[v]) for v in g.vertices)
        return cls(g.digest(), h.digest(), items)

    def values(self, v) -> tuple:
        return dict(self.assignment)[v]

    @property
    def name(self) -> str:
        """Canonical JSON form: sorted value lists per vertex."""
        return json.dumps(
            {_key_for_name(v): [_value_for_name(w) for w in ws]
             for v, ws in self.assignment},
            separators=(",", ":"))

    def __le__(self, other) -> bool:
        if self.source_digest != other.source_digest:
            raise InputError("cells of different complexes")
        mine, theirs = dict(self.assignment), dict(other.assignment)
        return all(set(mine[v]) <= set(theirs[v]) for v in mine)

    def __repr__(self):
        return f"IndexingFunction({self.name})"


def is_indexing_function(g: Graph, h: Graph, mapping) -> bool:
    try:
        IndexingFunction.make(g, h, mapping)
        return True
    except InputError:
        return False


def phi(g: Graph, h: Graph, morphisms) -> IndexingFunction:
    """The cell spanned by a clique of morphisms: pointwise value sets."""
    ms = list(morphisms)
    if not ms:
        raise InputError("a cell needs at least one morphism")
    for m in ms[1:]:
        _check_pair(g, h, ms[0], m)
    arcs = _arcs(g)
    maps = [m.mapping for m in ms]
    for i, fm in enumerate(maps):
        for f2m in maps[i + 1:]:
            if not _adjacent(h, arcs, fm, f2m):
                raise InputError("morphisms do not form a clique")
    return IndexingFunction.make(
        g, h, {v: {fm[v] for fm in maps} for v in g.vertices})


def psi(g: Graph, h: Graph, eta: IndexingFunction):
    """All selections of a cell; each is a morphism and together they span
    a clique of the morphism graph. phi(psi(eta)) == eta."""
    if (eta.source_digest, eta.target_digest) != (g.digest(), h.digest()):
        raise InputError("cell does not match the given graphs")
    out = [{}]
    for v, ws in eta.assignment:
        out = [{**m, v: w} for m in out for w in ws]
    ms = [Morphism.make(g, h, m) for m in out]
    return tuple(sorted(ms, key=lambda m: sort_key(m.name)))


def hom_cells(g: Graph, h: Graph,
              max_extensions: int = DEFAULT_MORPHISM_BUDGET,
              max_cliques: int = DEFAULT_CLIQUE_BUDGET):
    """All cells of (g, h), sorted by name.

    Enumerated directly, by backtracking over g's vertices in order. A
    vertex may take the target vertices adjacent to every value already
    given to an earlier neighbor; an unlooped vertex takes each nonempty
    subset of them, a looped one each nonempty set of looped, pairwise
    adjacent ones. A value set that leaves a later neighbor no possible
    value is dropped with all its supersets.

    Each value set tried counts against ``max_extensions`` and each cell
    found against ``max_cliques``; ResourceError past either. Every cell
    expands to at least one clique of the morphism graph, so a pair has no
    more cells than morphism-graph cliques.
    """
    gv, hv, adj = g.vertices, h.vertices, h._adj
    position = {v: i for i, v in enumerate(gv)}
    later = [[position[u] for u in g.neighborhood(v) if position[u] > i]
             for i, v in enumerate(gv)]
    looped = [v in g.neighborhood(v) for v in gv]
    # allowed[i]: the targets vertex i may still take
    allowed = [frozenset(w for w in hv if not lp or w in adj[w])
               for lp in looped]
    values = {}
    cells = []
    tried = 0

    def assign(i):
        if i == len(gv):
            cells.append(IndexingFunction.make(g, h, values))
            if len(cells) > max_cliques:
                raise ResourceError(
                    f"cell enumeration budget exceeded ({max_cliques} cells)")
            return
        grow(i, (), frozenset(hv), [w for w in hv if w in allowed[i]])

    def grow(i, ws, common, cands):
        """Try ws plus each of cands as the value set of vertex i; common
        holds the targets adjacent to all of ws."""
        nonlocal tried
        for k, w in enumerate(cands):
            tried += 1
            if tried > max_extensions:
                raise ResourceError(
                    f"cell enumeration budget exceeded "
                    f"({max_extensions} value sets)")
            bigger, shared = ws + (w,), common & adj[w]
            before = [allowed[j] for j in later[i]]
            narrowed = [a & shared for a in before]
            if not all(narrowed):
                continue  # and so would every superset of bigger
            for j, a in zip(later[i], narrowed):
                allowed[j] = a
            values[gv[i]] = bigger
            assign(i + 1)
            for j, a in zip(later[i], before):
                allowed[j] = a
            rest = cands[k + 1:]
            grow(i, bigger, shared,
                 [y for y in rest if y in adj[w]] if looped[i] else rest)

    assign(0)
    return sorted(cells, key=lambda c: c.name)


def _cell_poset(h: Graph, cells) -> Poset:
    """The inclusion order of all the cells of a pair with target h, built
    from its covers: a cell lies below the same cell with one more target
    vertex in one value set, when that is a cell too."""
    names = {c.assignment: c.name for c in cells}
    rank = {w: i for i, w in enumerate(h.vertices)}
    covers = []
    for key, name in names.items():
        for i, (v, ws) in enumerate(key):
            for w in h.vertices:
                if w in ws:
                    continue
                bigger = tuple(sorted(ws + (w,), key=rank.__getitem__))
                above = names.get(key[:i] + ((v, bigger),) + key[i + 1:])
                if above is not None:
                    covers.append((name, above))
    return Poset(names.values(), covers)


def hom_face_poset(g: Graph, h: Graph,
                   max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                   max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> Poset:
    """The poset of cells under pointwise inclusion, elements named by the
    cells' canonical JSON form. Budgets as in ``hom_cells``."""
    return _cell_poset(h, hom_cells(g, h, max_extensions=max_extensions,
                                    max_cliques=max_cliques))


def hom_face_graph(g: Graph, h: Graph,
                   max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                   max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> Graph:
    """Comparability graph of the cell poset. Budgets as in
    ``hom_cells``."""
    return comp(hom_face_poset(g, h, max_extensions=max_extensions,
                               max_cliques=max_cliques))


def clique_to_cell_dismantle(g: Graph, h: Graph,
                             max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                             max_cliques: int = DEFAULT_CLIQUE_BUDGET
                             ) -> DismantlingCertificate:
    """Strict dismantling of the clique poset of the morphism graph onto
    the image of cell expansion, which is a copy of the cell poset.

    The map sending a clique to the selections of its pointwise cell is
    monotone, idempotent and above the identity, so the fixed-point
    dismantling applies; the residual is exactly the retraction's image.
    """
    ms = enumerate_morphisms(g, h, max_extensions=max_extensions)
    by_name = {m.name: m for m in ms}
    hg = hom_graph(g, h, max_extensions=max_extensions)
    p = clique_poset(hg, max_cliques=max_cliques)

    def saturate(clique_names):
        cell = phi(g, h, [by_name[n] for n in clique_names])
        return tuple(sorted((m.name for m in psi(g, h, cell)), key=sort_key))

    mapping = {c: saturate(c) for c in p.elements}
    return fixpoint_dismantle(p, mapping)


# ---------------------------------------------------------------------------
# fold-induced dismantlings of the cell comparability graph

def _folded(g: Graph, h: Graph, side: str, x, a):
    """The pair after the fold of x onto a on the given side."""
    if side == "source":
        if not dominates(g, a, x):
            raise InputError(f"{x!r} is not dominated by {a!r} in the source")
        return g.without(x), h
    if side == "target":
        if not dominates(h, a, x):
            raise InputError(f"{x!r} is not dominated by {a!r} in the target")
        return g, h.without(x)
    raise InputError(f"side must be source or target, got {side!r}")


def _embedding(g: Graph, h: Graph, side: str, x, a, folded_cells) -> dict:
    """Map the cells of the folded pair to cell names of (g, h)."""
    out = {}
    for cell in folded_cells:
        vals = dict(cell.assignment)
        if side == "source":
            vals = {v: vals[a if v == x else v] for v in g.vertices}
        out[cell.name] = IndexingFunction.make(g, h, vals).name
    return out


def hom_fold_embedding(g: Graph, h: Graph, side: str, x, a,
                       max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                       max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> dict:
    """Identify the cells of the folded pair with cells of (g, h).

    Source folds precompose with the retraction (the deleted vertex takes
    the witness's value sets); target folds keep value sets as they are.
    Returns a map from folded-pair cell names to cell names of (g, h).
    """
    folded_cells = hom_cells(*_folded(g, h, side, x, a),
                             max_extensions=max_extensions,
                             max_cliques=max_cliques)
    return _embedding(g, h, side, x, a, folded_cells)


def fold_induced_hom_dismantle(g: Graph, h: Graph, side: str, x, a,
                               max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                               max_cliques: int = DEFAULT_CLIQUE_BUDGET
                               ) -> DismantlingCertificate:
    """Dismantle the cell comparability graph of (g, h) onto the embedded
    copy of the folded pair's cell graph; a fold on either side guarantees
    the dismantling exists. The cells of each pair are enumerated once."""
    g2, h2 = _folded(g, h, side, x, a)
    cells = hom_cells(g, h, max_extensions=max_extensions,
                      max_cliques=max_cliques)
    folded_cells = hom_cells(g2, h2, max_extensions=max_extensions,
                             max_cliques=max_cliques)
    embedding = _embedding(g, h, side, x, a, folded_cells)
    image = sorted(set(embedding.values()), key=sort_key)
    if len(image) != len(embedding):
        raise InternalConsistencyError("cell embedding is not injective")
    fg = comp(_cell_poset(h, cells))
    relabeled = comp(_cell_poset(h2, folded_cells)).relabel(embedding)
    if relabeled != fg.induced(image):
        raise InternalConsistencyError(
            "cell embedding is not an induced subgraph")
    cert = dismantles_onto(fg, image)
    if cert is None:
        raise InternalConsistencyError(
            "fold-induced dismantling unexpectedly failed")
    return cert
