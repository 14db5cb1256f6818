"""Graphs of morphisms: enumeration, homotopy, strong deformation retracts.

Two morphisms f, f' from G to H are adjacent when every edge of G (loops
included) is sent to an edge of H by the mixed pair, i.e. f(x) ~ f'(y)
whenever x ~ y. Each morphism is adjacent to itself, so the morphism graph
is reflexive, and homotopy of morphisms is connectivity inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .canon import label
from .certificate import DismantlingCertificate
from .errors import (CertificateError, InputError, ResourceError)
from .graphs import Graph, replay_certificate

DEFAULT_MORPHISM_BUDGET = 10**7


def _key_for_name(v):
    """JSON object key for a source vertex."""
    return label(v)


def _value_for_name(v):
    return v if isinstance(v, (int, str)) else label(v)


@dataclass(frozen=True)
class Morphism:
    """An adjacency-preserving vertex map, tied to its graphs by digest."""

    source_digest: str
    target_digest: str
    assignment: tuple  # ((vertex, image), ...) in source vertex order

    @classmethod
    def make(cls, g: Graph, h: Graph, mapping) -> "Morphism":
        mapping = dict(mapping)
        if set(mapping) != g.vertex_set:
            raise InputError("assignment domain differs from the source")
        for w in mapping.values():
            h._require(w)
        for u, v in g.edges():
            if not h.adjacent(mapping[u], mapping[v]):
                raise InputError(
                    f"edge ({u!r},{v!r}) is not preserved")
        for v in g.loops:
            if not h.is_looped(mapping[v]):
                raise InputError(f"loop at {v!r} is not preserved")
        items = tuple((v, mapping[v]) for v in g.vertices)
        return cls(g.digest(), h.digest(), items)

    @property
    def mapping(self) -> dict:
        return dict(self.assignment)

    def __call__(self, v):
        return self.mapping[v]

    @property
    def name(self) -> str:
        """Canonical JSON form, also the vertex id inside morphism graphs."""
        # memoised beside the frozen fields, which equality and hashing use
        name = self.__dict__.get("_name")
        if name is None:
            name = self.__dict__["_name"] = json.dumps(
                {_key_for_name(v): _value_for_name(w)
                 for v, w in self.assignment},
                separators=(",", ":"))
        return name

    def __repr__(self):
        return f"Morphism({self.name})"


def is_morphism(g: Graph, h: Graph, mapping) -> bool:
    try:
        Morphism.make(g, h, mapping)
        return True
    except InputError:
        return False


def identity_morphism(g: Graph) -> Morphism:
    return Morphism.make(g, g, {v: v for v in g.vertices})


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner; digests must chain."""
    if inner.target_digest != outer.source_digest:
        raise InputError("morphisms do not compose")
    outer_map = outer.mapping
    items = tuple((v, outer_map[w]) for v, w in inner.assignment)
    return Morphism(inner.source_digest, outer.target_digest, items)


def enumerate_morphisms(g: Graph, h: Graph,
                        max_extensions: int = DEFAULT_MORPHISM_BUDGET):
    """All morphisms from g to h, lexicographic in the image sequence.

    Backtracking in ascending source-vertex order with forward checking
    against already-assigned neighbors; raises ResourceError when more than
    max_extensions partial assignments get attempted.
    """
    gv = g.vertices
    hv = h.vertices
    partial = {}
    out = []
    extensions = 0

    def assign(i):
        nonlocal extensions
        if i == len(gv):
            items = tuple((v, partial[v]) for v in gv)
            out.append(Morphism(g.digest(), h.digest(), items))
            return
        v = gv[i]
        nbhd = g.neighborhood(v)
        for w in hv:
            extensions += 1
            if extensions > max_extensions:
                raise ResourceError(
                    f"morphism enumeration budget exceeded "
                    f"({max_extensions} extensions)")
            if v in nbhd and not h.is_looped(w):
                continue
            ok = all(u not in partial or h.adjacent(partial[u], w)
                     for u in nbhd)
            if ok:
                partial[v] = w
                assign(i + 1)
                del partial[v]

    assign(0)
    return out


def _check_pair(g: Graph, h: Graph, f: Morphism, f2: Morphism):
    if (f.source_digest, f.target_digest) != (g.digest(), h.digest()):
        raise InputError("first morphism does not match the given graphs")
    if (f2.source_digest, f2.target_digest) != (g.digest(), h.digest()):
        raise InputError("second morphism does not match the given graphs")


def _arcs(g: Graph):
    """The arcs of g: every edge in both orientations, then every loop."""
    edges = g.edges()
    return edges + [(v, u) for u, v in edges] + [(v, v) for v in g.loops]


def _adjacent(h: Graph, arcs, fm: dict, f2m: dict) -> bool:
    """True iff fm(u) ~ f2m(v) in h for every arc (u, v)."""
    adj = h._adj
    return all(f2m[v] in adj[fm[u]] for u, v in arcs)


def morphisms_adjacent(g: Graph, h: Graph, f: Morphism, f2: Morphism) -> bool:
    """True iff f(x) ~ f2(y) in h for every adjacent x ~ y of g (loops
    included, both orientations of each edge)."""
    _check_pair(g, h, f, f2)
    return _adjacent(h, _arcs(g), f.mapping, f2.mapping)


def hom_graph(g: Graph, h: Graph,
              max_extensions: int = DEFAULT_MORPHISM_BUDGET) -> Graph:
    """The reflexive graph on all morphisms from g to h, with vertices
    named by the morphisms' canonical JSON form."""
    ms = enumerate_morphisms(g, h, max_extensions=max_extensions)
    names = [m.name for m in ms]
    maps = [m.mapping for m in ms]
    arcs = _arcs(g)
    edges = [(names[i], names[j])
             for i in range(len(ms)) for j in range(i + 1, len(ms))
             if _adjacent(h, arcs, maps[i], maps[j])]
    return Graph(names, edges=edges, loops=names)


def homotopic(g: Graph, h: Graph, f: Morphism, f2: Morphism,
              max_extensions: int = DEFAULT_MORPHISM_BUDGET) -> bool:
    """Connected-component test in the morphism graph."""
    _check_pair(g, h, f, f2)
    hg = hom_graph(g, h, max_extensions=max_extensions)
    start, goal = f.name, f2.name
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in hg.neighborhood(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return goal in seen


def sdr_homotopy(g: Graph, cert: DismantlingCertificate):
    """The explicit homotopy showing that the residual of a dismantling is
    a strong deformation retract.

    Returns maps starting at the identity; step i composes the fold of the
    certificate's i-th deletion with the previous map. Consecutive maps are
    adjacent in the morphism graph of g, every map fixes the residual
    pointwise, and the last one retracts g onto the residual.
    """
    ok, _, reason, _ = replay_certificate(g, cert)
    if not ok:
        raise CertificateError(f"invalid certificate: {reason}")
    maps = [identity_morphism(g)]
    cur = {v: v for v in g.vertices}
    for x, a in cert.steps:
        cur = {v: (a if img == x else img) for v, img in cur.items()}
        maps.append(Morphism.make(g, g, cur))
    return maps


# ---------------------------------------------------------------------------
# the identification maps induced by a fold

def precompose_fold(g: Graph, h: Graph, x, a, f: Morphism) -> Morphism:
    """From a morphism on the fold of g (by x -> a) to one on g itself, by
    precomposing with the fold retraction. Injective, image an induced
    subgraph of the morphism graph."""
    sub = g.without(x)
    if f.source_digest != sub.digest() or f.target_digest != h.digest():
        raise InputError("morphism does not start at the fold of g")
    fm = f.mapping
    return Morphism.make(g, h, {v: fm[a if v == x else v]
                                for v in g.vertices})


def restrict_source(g: Graph, h: Graph, x, f: Morphism) -> Morphism:
    """Restriction of a morphism on g to the subgraph with x deleted."""
    if f.source_digest != g.digest() or f.target_digest != h.digest():
        raise InputError("morphism does not match the given graphs")
    sub = g.without(x)
    fm = f.mapping
    return Morphism.make(sub, h, {v: fm[v] for v in sub.vertices})


def include_target(g: Graph, h: Graph, x, f: Morphism) -> Morphism:
    """View a morphism into h-minus-x as a morphism into h."""
    sub = h.without(x)
    if f.source_digest != g.digest() or f.target_digest != sub.digest():
        raise InputError("morphism does not land in h minus the vertex")
    return Morphism.make(g, h, f.mapping)


def retract_target(g: Graph, h: Graph, x, b, f: Morphism) -> Morphism:
    """Postcompose a morphism into h with the fold of h sending x to b."""
    if f.source_digest != g.digest() or f.target_digest != h.digest():
        raise InputError("morphism does not match the given graphs")
    sub = h.without(x)
    return Morphism.make(g, sub, {v: (b if w == x else w)
                                  for v, w in f.assignment})
