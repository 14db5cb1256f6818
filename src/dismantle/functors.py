"""The functors relating graphs, posets and simplicial complexes.

Image elements are labeled canonically (sorted vertex tuples, chains as
sorted tuples), so composite functors can be compared for exact equality of
labeled objects, not merely isomorphism. Barycentric subdivision is such a
composite and comes out equal along both routes in every category.
"""

from __future__ import annotations

from .canon import sort_key, sorted_ids
from .certificate import DismantlingCertificate
from .complexes import (SimplicialComplex, derive_collapse_certificate,
                        star_deletion_order)
from .errors import InputError, InternalConsistencyError
from .graphs import (DEFAULT_CLIQUE_BUDGET, Graph, cliques, maximal_cliques,
                     replay_certificate)
from .posets import Poset, fixpoint_dismantle, replay_poset_certificate


def comp(p: Poset) -> Graph:
    """Comparability graph: reflexive, with edges between comparable pairs."""
    els = p.elements
    return Graph(els,
                 edges=[(x, y) for x in els for y in p.up_set(x)],
                 loops=els)


def clique_poset(g: Graph, max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> Poset:
    """Nonempty complete subgraphs of g ordered by inclusion; elements are
    sorted vertex tuples."""
    cs = cliques(g, max_count=max_cliques)
    sets = {c: set(c) for c in cs}
    lt = [(c, d) for c in cs for d in cs
          if len(c) < len(d) and sets[c] <= sets[d]]
    return Poset(cs, lt)


def clique_complex(g: Graph,
                   max_cliques: int = DEFAULT_CLIQUE_BUDGET) -> SimplicialComplex:
    """Complex whose simplices are the complete-subgraph vertex sets."""
    return SimplicialComplex(maximal_cliques(g, max_count=max_cliques))


def face_graph(k: SimplicialComplex) -> Graph:
    """Reflexive graph on the nonempty simplices, adjacent iff one contains
    the other. Equals comp(face_poset(k)) for every complex."""
    simps = k.simplices()
    sets = {s: set(s) for s in simps}
    edges = [(s, t) for s in simps for t in simps
             if len(s) < len(t) and sets[s] <= sets[t]]
    return Graph(simps, edges=edges, loops=simps)


def order_complex(p: Poset) -> SimplicialComplex:
    """Complex whose simplices are the chains of p."""
    chains = []

    def grow(chain, last):
        ups = sorted(p.up_set(last), key=sort_key)
        if not ups:
            chains.append(chain)
            return
        for y in ups:
            grow(chain + (y,), y)

    # every maximal chain starts at a minimal element, so this reaches all
    for x in p.minimal():
        grow((x,), x)
    return SimplicialComplex.from_simplices(sorted_ids(c) for c in chains)


def face_poset(k: SimplicialComplex) -> Poset:
    """Nonempty simplices of k ordered by inclusion."""
    simps = k.simplices()
    sets = {s: set(s) for s in simps}
    lt = [(s, t) for s in simps for t in simps
          if len(s) < len(t) and sets[s] <= sets[t]]
    return Poset(simps, lt)


def rub(p: Poset) -> Graph:
    """Reflexive upper bound graph: x ~ y iff x and y share an upper bound."""
    els = p.elements
    up = {x: p.up_set(x) | {x} for x in els}
    edges = [(x, y) for i, x in enumerate(els) for y in els[i + 1:]
             if up[x] & up[y]]
    return Graph(els, edges=edges, loops=els)


def atoms_graph(p: Poset) -> Graph:
    """The subgraph of rub(p) induced on the atoms."""
    return rub(p).induced(p.atoms())


def identify_atoms_with_vertices(g: Graph) -> Graph:
    """atoms_graph(clique_poset(g)) with each singleton clique renamed back
    to its vertex; equals the reflexive closure of g."""
    m = atoms_graph(clique_poset(g))
    return m.relabel({a: a[0] for a in m.vertices})


def bd(obj):
    """Barycentric subdivision in the category of the argument.

    Graphs subdivide to the comparability graph of their clique poset,
    posets to the clique poset of their comparability graph, complexes to
    the clique complex of their face graph; each equals the composite
    through the third category.
    """
    if isinstance(obj, Graph):
        return comp(clique_poset(obj))
    if isinstance(obj, Poset):
        return clique_poset(comp(obj))
    if isinstance(obj, SimplicialComplex):
        return clique_complex(face_graph(obj))
    raise InputError(f"no barycentric subdivision for {type(obj).__name__}")


FUNCTORS = {
    "comp": (Poset, comp),
    "clique-poset": (Graph, clique_poset),
    "clique-complex": (Graph, clique_complex),
    "face-graph": (SimplicialComplex, face_graph),
    "order-complex": (Poset, order_complex),
    "face-poset": (SimplicialComplex, face_poset),
    "rub": (Poset, rub),
    "atoms-graph": (Poset, atoms_graph),
    "bd": (object, bd),
}


# ---------------------------------------------------------------------------
# certificate transports along the triangle

def comp_cert_from_weak_poset_cert(p: Poset,
                                   cert: DismantlingCertificate
                                   ) -> DismantlingCertificate:
    """A weak poset dismantling is, step for step and witness for witness,
    a dismantling of the comparability graph."""
    if cert.category != "poset" or cert.mode != "weak":
        raise InputError("expected a weak poset certificate")
    if cert.start_digest != p.digest():
        raise InputError("certificate belongs to a different poset")
    return DismantlingCertificate("graph", comp(p).digest(), cert.steps)


def weak_poset_cert_from_comp_cert(p: Poset,
                                   cert: DismantlingCertificate
                                   ) -> DismantlingCertificate:
    """Inverse transport of comp_cert_from_weak_poset_cert."""
    if cert.category != "graph":
        raise InputError("expected a graph certificate")
    if cert.start_digest != comp(p).digest():
        raise InputError("certificate does not match comp of this poset")
    return DismantlingCertificate("poset", p.digest(), cert.steps, "weak")


def collapse_cert_from_graph_cert(g: Graph,
                                  cert: DismantlingCertificate
                                  ) -> DismantlingCertificate:
    """A dismantling of a graph whose deleted vertices are all looped is,
    with the same steps, a strong collapse of its clique complex."""
    ok, _, reason, _ = replay_certificate(g, cert)
    if not ok:
        raise InputError(f"invalid graph certificate: {reason}")
    for x, _ in cert.steps:
        if not g.is_looped(x):
            raise InputError(f"deleted vertex {x!r} is not looped")
    return DismantlingCertificate("complex", clique_complex(g).digest(),
                                  cert.steps)


def graph_cert_from_collapse_cert(g: Graph,
                                  cert: DismantlingCertificate
                                  ) -> DismantlingCertificate:
    """Inverse transport: a strong collapse of the clique complex of a
    reflexive graph dismantles the graph with the same steps."""
    if cert.category != "complex":
        raise InputError("expected a complex certificate")
    if cert.start_digest != clique_complex(g).digest():
        raise InputError("certificate does not match the clique complex")
    return DismantlingCertificate("graph", g.digest(), cert.steps)


def face_graph_cert_from_collapse_cert(k: SimplicialComplex,
                                       cert: DismantlingCertificate
                                       ) -> DismantlingCertificate:
    """Expand a strong collapse into a dismantling of the face graph by
    deleting, for every collapsed vertex, the simplices of its open star in
    the star deletion order."""
    if cert.category != "complex":
        raise InputError("expected a complex certificate")
    if cert.start_digest != k.digest():
        raise InputError("certificate belongs to a different complex")
    steps = []
    cur = k
    for x, a in cert.steps:
        steps.extend(star_deletion_order(cur, x, a))
        cur = cur.delete(x)
    return DismantlingCertificate("graph", face_graph(k).digest(),
                                  tuple(steps))


def collapse_cert_from_face_graph_cert(k: SimplicialComplex,
                                       cert: DismantlingCertificate):
    """Contract a face-graph dismantling back to a strong collapse by
    keeping only the 0-simplex deletions, re-deriving a vertex witness at
    each step; None when some kept step is not an elementary collapse."""
    if cert.category != "graph":
        raise InputError("expected a graph certificate")
    if cert.start_digest != face_graph(k).digest():
        raise InputError("certificate does not match the face graph")
    return derive_collapse_certificate(
        k, [s[0] for s, _ in cert.steps if len(s) == 1])


def clique_poset_cert_from_graph_cert(g: Graph,
                                      cert: DismantlingCertificate
                                      ) -> DismantlingCertificate:
    """Expand a dismantling of a graph (looped deletions only) into a
    strict dismantling of its clique poset.

    Each fold x -> a contributes two monotone self-maps of the current
    clique poset, first adjoining the witness to every clique through x,
    then dropping x; both are comparable to the identity, so the
    fixed-point dismantling supplies the strict deletion steps.
    """
    ok, _, reason, _ = replay_certificate(g, cert)
    if not ok:
        raise InputError(f"invalid graph certificate: {reason}")
    start = clique_poset(g)
    steps = []
    cur_graph = g
    cur_poset = start
    for x, a in cert.steps:
        if not cur_graph.is_looped(x):
            raise InputError(f"deleted vertex {x!r} is not looped")
        adjoin = {c: (sorted_ids(set(c) | {a}) if x in c else c)
                  for c in cur_poset.elements}
        part1 = fixpoint_dismantle(cur_poset, adjoin)
        steps.extend(part1.steps)
        cur_poset = cur_poset.restrict(
            c for c in cur_poset.elements if adjoin[c] == c)
        drop = {c: (tuple(v for v in c if v != x) if x in c else c)
                for c in cur_poset.elements}
        part2 = fixpoint_dismantle(cur_poset, drop)
        steps.extend(part2.steps)
        cur_poset = cur_poset.restrict(
            c for c in cur_poset.elements if drop[c] == c)
        cur_graph = cur_graph.without(x)
    out = DismantlingCertificate("poset", start.digest(), tuple(steps))
    ok, _, reason, residual = replay_poset_certificate(start, out)
    if not ok or residual != clique_poset(cur_graph):
        raise InternalConsistencyError(
            f"clique poset certificate does not replay: "
            f"{reason or 'wrong residual'}")
    return out
