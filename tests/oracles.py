"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from raw definitions, without
going through the package's data structures, so the two routes stay
independent.
"""

import itertools


def neighborhoods(vertices, edges):
    """Open neighborhoods from a raw edge list; a pair (v, v) is a loop."""
    nb = {v: set() for v in vertices}
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def dominated_pairs(vertices, edges):
    """All (x, a) ordered pairs with N(x) a subset of N(a), a != x."""
    nb = neighborhoods(vertices, edges)
    return sorted((x, a) for x in vertices for a in vertices
                  if a != x and nb[x] <= nb[a])


def all_cliques(vertices, edges):
    """Nonempty vertex sets that are pairwise adjacent, as frozensets."""
    nb = neighborhoods(vertices, edges)
    out = set()
    vs = list(vertices)
    for r in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            if all(b in nb[a] for a, b in itertools.combinations(combo, 2)):
                out.add(frozenset(combo))
    return out


def all_morphisms(g_vertices, g_edges, h_vertices, h_edges):
    """All adjacency-preserving maps as dicts (loops included)."""
    nb = neighborhoods(h_vertices, h_edges)
    gv = list(g_vertices)
    out = []
    for images in itertools.product(h_vertices, repeat=len(gv)):
        m = dict(zip(gv, images))
        if all(m[v] in nb[m[u]] for u, v in g_edges):
            out.append(m)
    return out


def all_cells(g_vertices, g_edges, h_vertices, h_edges):
    """All indexing functions as canonical tuples of frozensets.

    Enumerates the full product of nonempty value sets and filters by the
    edge condition; exponentially bigger than the clique route but direct.
    """
    nb = neighborhoods(h_vertices, h_edges)
    value_sets = [frozenset(c)
                  for r in range(1, len(h_vertices) + 1)
                  for c in itertools.combinations(h_vertices, r)]
    gv = list(g_vertices)
    out = set()
    for choice in itertools.product(value_sets, repeat=len(gv)):
        cell = dict(zip(gv, choice))
        ok = all(b in nb[a]
                 for u, v in g_edges
                 for a in cell[u] for b in cell[v])
        if ok:
            out.add(tuple(cell[v] for v in gv))
    return out


def is_cone_apexes(facets):
    """Vertices lying in every facet."""
    facets = [set(f) for f in facets]
    if not facets:
        return set()
    common = set(facets[0])
    for f in facets[1:]:
        common &= f
    return common


def all_labeled_posets(n):
    """Every strict order on 0..n-1, as a frozenset of (x, y) pairs x < y.

    Element k is attached to the poset on 0..k-1 by choosing a down-closed
    set below it and an up-closed set above it whose product is already in
    the order; this reaches each labeled poset exactly once.
    """
    orders = [frozenset()]
    for k in range(1, n):
        prev = list(range(k))
        new_orders = []
        for rel in orders:
            below = {x: {y for y in prev if (y, x) in rel} for x in prev}
            above = {x: {y for y in prev if (x, y) in rel} for x in prev}
            for dsize in range(k + 1):
                for down in itertools.combinations(prev, dsize):
                    dset = set(down)
                    if not all(below[x] <= dset for x in dset):
                        continue
                    rest = [x for x in prev if x not in dset]
                    for usize in range(len(rest) + 1):
                        for up in itertools.combinations(rest, usize):
                            uset = set(up)
                            if not all(above[x] <= uset for x in uset):
                                continue
                            if not all((d, u) in rel
                                       for d in dset for u in uset):
                                continue
                            extra = {(d, k) for d in dset}
                            extra |= {(k, u) for u in uset}
                            new_orders.append(rel | extra)
        orders = new_orders
    return orders


def transitive_closure(elements, pairs):
    """The strict order generated by raw (x, y) pairs meaning x < y."""
    rel = set(pairs)
    for k in elements:
        for i in elements:
            for j in elements:
                if (i, k) in rel and (k, j) in rel:
                    rel.add((i, j))
    return rel


def maximal_sets(sets):
    """The nonempty members of a family not contained in another member."""
    sets = {frozenset(s) for s in sets if s}
    return {s for s in sets if not any(s < t for t in sets)}


# Raw dismantling rules. Each takes the current element set and the raw
# structure on it and returns every (x, witness) pair in ascending order;
# the matching restrict function cuts the structure down to fewer elements.

def graph_pairs(elements, edges):
    return dominated_pairs(sorted(elements), edges)


def restrict_edges(elements, edges):
    return [(u, v) for u, v in edges if u in elements and v in elements]


def strict_poset_pairs(elements, rel):
    """The least element of the up-set of x, else the greatest of its
    down-set (at most one witness per x)."""
    out = []
    for x in sorted(elements):
        up = [y for y in elements if (x, y) in rel]
        down = [y for y in elements if (y, x) in rel]
        least = [a for a in up if all((a, y) in rel for y in up if y != a)]
        greatest = [a for a in down
                    if all((y, a) in rel for y in down if y != a)]
        if least or greatest:
            out.append((x, (least or greatest)[0]))
    return out


def weak_poset_pairs(elements, rel):
    """a weakly dominates x: a is comparable to x and to everything
    comparable to x."""
    def comparable(u, v):
        return u == v or (u, v) in rel or (v, u) in rel
    return [(x, a) for x in sorted(elements) for a in sorted(elements)
            if a != x and comparable(a, x)
            and all(comparable(a, y) for y in elements if comparable(x, y))]


def restrict_order(elements, rel):
    return {(x, y) for x, y in rel if x in elements and y in elements}


def complex_pairs(elements, facets):
    """x is dominated by every apex of its link, the family of facets
    through x with x removed."""
    return [(x, a) for x in sorted(elements)
            for a in sorted(is_cone_apexes(
                [set(f) - {x} for f in facets if x in f]))]


def restrict_facets(elements, facets):
    return maximal_sets(set(f) & set(elements) for f in facets)


def greedy_dismantle(elements, data, pairs, restrict, rng=None, keep=None):
    """Reference greedy loop: delete the smallest dominated element with its
    smallest witness, or rng.choice over all pairs; with keep, only
    elements outside keep go, until keep is left. Returns (steps,
    remaining elements), or None when keep is given and not reached."""
    elements = set(elements)
    steps = []
    while keep is None or elements - set(keep):
        cands = [(x, a) for x, a in pairs(elements, data)
                 if keep is None or x not in keep]
        if not cands:
            if keep is not None:
                return None
            break
        x, a = rng.choice(cands) if rng is not None else cands[0]
        steps.append((x, a))
        elements.discard(x)
        data = restrict(elements, data)
    return steps, elements


def first_witnesses(elements, data, pairs, restrict, order):
    """The smallest witness of each deletion of order at its turn (None
    where there is none, after which the order is not followed)."""
    elements = set(elements)
    out = []
    for x in order:
        ws = [a for y, a in pairs(elements, data) if y == x]
        out.append(ws[0] if ws else None)
        if not ws:
            break
        elements.discard(x)
        data = restrict(elements, data)
    return out
