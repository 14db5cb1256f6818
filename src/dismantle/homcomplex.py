"""Cells of the polyhedral complex of morphisms between two graphs.

A cell assigns to every source vertex a nonempty set of target vertices so
that all cross products over source edges land in target edges. Cells
correspond to complete subgraphs of the morphism graph: collapsing a clique
pointwise gives a cell, and expanding a cell into all of its selections
gives back a clique. That retraction realizes a strict dismantling of the
clique poset onto the cell poset, and source or target folds induce
dismantlings of the cell comparability graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .canon import sort_key, sorted_ids
from .certificate import DismantlingCertificate
from .errors import InputError, InternalConsistencyError
from .functors import clique_poset, comp
from .graphs import (DEFAULT_CLIQUE_BUDGET, Graph, cliques, dismantles_onto,
                     dominates)
from .homgraph import (DEFAULT_MORPHISM_BUDGET, Morphism, _key_for_name,
                       _value_for_name, enumerate_morphisms, hom_graph,
                       morphisms_adjacent)
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
    for i, m in enumerate(ms):
        for m2 in ms[i + 1:]:
            if not morphisms_adjacent(g, h, m, m2):
                raise InputError("morphisms do not form a clique")
    return IndexingFunction.make(
        g, h, {v: {m(v) for m in ms} for v in g.vertices})


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
    """All cells, via cliques of the morphism graph collapsed pointwise.

    Complete because expanding any cell gives a clique that collapses back
    to it; enumerating raw value-set products would find the same cells
    (kept as a test oracle) but visits exponentially more candidates.
    """
    ms = enumerate_morphisms(g, h, max_extensions=max_extensions)
    by_name = {m.name: m for m in ms}
    hg = hom_graph(g, h, max_extensions=max_extensions)
    seen = {}
    for c in cliques(hg, max_count=max_cliques):
        cell = phi(g, h, [by_name[n] for n in c])
        seen.setdefault(cell.name, cell)
    return [seen[n] for n in sorted(seen, key=sort_key)]


def hom_face_poset(g: Graph, h: Graph,
                   max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                   max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> Poset:
    """The poset of cells under pointwise inclusion, elements named by the
    cells' canonical JSON form."""
    cells = hom_cells(g, h, max_extensions=max_extensions,
                      max_cliques=max_cliques)
    names = [c.name for c in cells]
    lt = []
    for i, c in enumerate(cells):
        for j, d in enumerate(cells):
            if i != j and c <= d:
                lt.append((names[i], names[j]))
    return Poset(names, lt)


def hom_face_graph(g: Graph, h: Graph,
                   max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                   max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> Graph:
    """Comparability graph of the cell poset."""
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

def hom_fold_embedding(g: Graph, h: Graph, side: str, x, a,
                       max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                       max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> dict:
    """Identify the cells of the folded pair with cells of (g, h).

    Source folds precompose with the retraction (the deleted vertex takes
    the witness's value sets); target folds keep value sets as they are.
    Returns a map from folded-pair cell names to cell names of (g, h).
    """
    if side == "source":
        if not dominates(g, a, x):
            raise InputError(f"{x!r} is not dominated by {a!r} in the source")
        sub_cells = hom_cells(g.without(x), h, max_extensions=max_extensions,
                              max_cliques=max_cliques)
        out = {}
        for cell in sub_cells:
            vals = dict(cell.assignment)
            image = IndexingFunction.make(
                g, h, {v: vals[a if v == x else v] for v in g.vertices})
            out[cell.name] = image.name
        return out
    if side == "target":
        if not dominates(h, a, x):
            raise InputError(f"{x!r} is not dominated by {a!r} in the target")
        sub_cells = hom_cells(g, h.without(x), max_extensions=max_extensions,
                              max_cliques=max_cliques)
        out = {}
        for cell in sub_cells:
            image = IndexingFunction.make(g, h, dict(cell.assignment))
            out[cell.name] = image.name
        return out
    raise InputError(f"side must be source or target, got {side!r}")


def fold_induced_hom_dismantle(g: Graph, h: Graph, side: str, x, a,
                               max_extensions: int = DEFAULT_MORPHISM_BUDGET,
                               max_cliques: int = DEFAULT_CLIQUE_BUDGET
                               ) -> DismantlingCertificate:
    """Dismantle the cell comparability graph of (g, h) onto the embedded
    copy of the folded pair's cell graph; a fold on either side guarantees
    the dismantling exists."""
    embedding = hom_fold_embedding(g, h, side, x, a,
                                   max_extensions=max_extensions,
                                   max_cliques=max_cliques)
    fg = hom_face_graph(g, h, max_extensions=max_extensions,
                        max_cliques=max_cliques)
    image = sorted(embedding.values(), key=sort_key)
    if len(image) != len(embedding):
        raise InternalConsistencyError("cell embedding is not injective")
    if side == "source":
        sub_fg = hom_face_graph(g.without(x), h,
                                max_extensions=max_extensions,
                                max_cliques=max_cliques)
    else:
        sub_fg = hom_face_graph(g, h.without(x),
                                max_extensions=max_extensions,
                                max_cliques=max_cliques)
    induced = fg.induced(image)
    relabeled = sub_fg.relabel(embedding)
    if relabeled != induced:
        raise InternalConsistencyError(
            "cell embedding is not an induced subgraph")
    cert = dismantles_onto(fg, image)
    if cert is None:
        raise InternalConsistencyError(
            "fold-induced dismantling unexpectedly failed")
    return cert
