"""Certificate order against the reference greedy loop in the oracles.

The library runs one dismantling engine for every category; these tests
pin its choices, step for step, to a smallest-first loop over raw
neighbourhoods, order relations and facets, both deterministically and
under a seeded rng.
"""

import random
from functools import partial

from dismantle import (Graph, Poset, SimplicialComplex,
                       derive_collapse_certificate, derive_graph_certificate,
                       derive_poset_certificate, dismantle_core,
                       dismantles_onto, poset_core, strong_collapse_core,
                       strong_collapse_onto)

from oracles import (complex_pairs, first_witnesses, graph_pairs,
                     greedy_dismantle, maximal_sets, restrict_edges,
                     restrict_facets, restrict_order, strict_poset_pairs,
                     transitive_closure, weak_poset_pairs)

SEEDS = range(40)
CASCADE_SEEDS = range(6)


def raw_graph(rng):
    n = rng.randint(1, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.45]
    edges += [(i, i) for i in range(n) if rng.random() < 0.7]
    return list(range(n)), edges


def raw_poset(rng):
    n = rng.randint(1, 9)
    lt = [(i, j) for i in range(n) for j in range(i + 1, n)
          if rng.random() < 0.35]
    return list(range(n)), transitive_closure(range(n), lt)


def raw_complex(rng):
    n = rng.randint(1, 7)
    simplices = [rng.sample(range(n), rng.randint(1, n))
                 for _ in range(rng.randint(1, 5))]
    facets = maximal_sets(simplices)
    return sorted(set().union(*facets)), facets


def graph_of(vs, edges):
    return Graph(vs, edges=[e for e in edges if e[0] != e[1]],
                 loops=[u for u, v in edges if u == v])


def rngs(seed):
    """A fresh rng pair per mode: None for the deterministic loop."""
    yield None, None
    yield random.Random(seed), random.Random(seed)


def test_graph_core_and_onto_follow_the_reference_loop():
    for seed in SEEDS:
        vs, edges = raw_graph(random.Random(seed))
        g = graph_of(vs, edges)
        keeps = [set(random.Random(-seed).sample(vs, len(vs) // 2))]
        for lib_rng, ref_rng in rngs(seed):
            core, cert = dismantle_core(g, rng=lib_rng)
            steps, left = greedy_dismantle(vs, edges, graph_pairs,
                                           restrict_edges, rng=ref_rng)
            assert list(cert.steps) == steps, seed
            assert set(core.vertices) == left
            keeps.append(left)
        for keep in keeps:
            for lib_rng, ref_rng in rngs(seed):
                cert = dismantles_onto(g, keep, rng=lib_rng)
                ref = greedy_dismantle(vs, edges, graph_pairs,
                                       restrict_edges, rng=ref_rng, keep=keep)
                assert (cert is None) == (ref is None), seed
                if ref is not None:
                    assert list(cert.steps) == ref[0], seed


def test_poset_core_follows_the_reference_loop():
    for seed in SEEDS:
        els, rel = raw_poset(random.Random(seed))
        p = Poset(els, rel)
        for mode, pairs in (("strict", strict_poset_pairs),
                            ("weak", weak_poset_pairs)):
            for lib_rng, ref_rng in rngs(seed):
                core, cert = poset_core(p, mode, rng=lib_rng)
                steps, left = greedy_dismantle(els, rel, pairs,
                                               restrict_order, rng=ref_rng)
                assert list(cert.steps) == steps, (seed, mode)
                assert core == Poset(left, restrict_order(left, rel))


def test_strong_collapse_core_and_onto_follow_the_reference_loop():
    for seed in SEEDS:
        vs, facets = raw_complex(random.Random(seed))
        k = SimplicialComplex(facets)
        keeps = [set(random.Random(-seed).sample(vs, len(vs) // 2))]
        for lib_rng, ref_rng in rngs(seed):
            core, cert = strong_collapse_core(k, rng=lib_rng)
            steps, left = greedy_dismantle(vs, facets, complex_pairs,
                                           restrict_facets, rng=ref_rng)
            assert list(cert.steps) == steps, seed
            assert core == SimplicialComplex(restrict_facets(left, facets))
            keeps.append(left)
        for keep in keeps:
            for lib_rng, ref_rng in rngs(seed):
                cert = strong_collapse_onto(k, k.restrict(keep), rng=lib_rng)
                ref = greedy_dismantle(vs, facets, complex_pairs,
                                       restrict_facets, rng=ref_rng,
                                       keep=keep)
                assert (cert is None) == (ref is None), seed
                if ref is not None:
                    assert list(cert.steps) == ref[0], seed


def _random_order(seed, elements):
    """A shuffled prefix: some deletions have a witness, some do not."""
    order = list(elements)
    random.Random(seed).shuffle(order)
    return order[:len(order) - 1]


def test_derive_picks_the_reference_first_witness():
    for seed in SEEDS:
        rng = random.Random(seed)
        vs, edges = raw_graph(rng)
        els, rel = raw_poset(rng)
        cvs, facets = raw_complex(rng)
        p = Poset(els, rel)
        cases = [
            (partial(derive_graph_certificate, graph_of(vs, edges)),
             vs, edges, graph_pairs, restrict_edges),
            (partial(derive_poset_certificate, p, mode="strict"),
             els, rel, strict_poset_pairs, restrict_order),
            (partial(derive_poset_certificate, p, mode="weak"),
             els, rel, weak_poset_pairs, restrict_order),
            (partial(derive_collapse_certificate, SimplicialComplex(facets)),
             cvs, facets, complex_pairs, restrict_facets)]
        for derive, elements, data, pairs, restrict in cases:
            # a legal order (the reference core's) and an arbitrary one
            legal, _ = greedy_dismantle(elements, data, pairs, restrict)
            for order in ([x for x, _ in legal],
                          _random_order(seed, elements)):
                want = first_witnesses(elements, data, pairs, restrict,
                                       order)
                cert = derive(order)
                if None in want:
                    assert cert is None, (seed, order)
                else:
                    assert [a for _, a in cert.steps] == want, (seed, order)


# Long cascades: stiff bases grown to 20-40 elements by adding one
# dominated element at a time. Each addition can spoil the domination of
# the elements it attaches to, so dismantling them again takes deletions
# that newly dominate their neighbours. The ids are relabeled to shuffled
# strings and tuples, so canonical order is not the order of growth.

def relabel(rng, n):
    names = [f"v{i}" for i in range(n)] + [("t", i) for i in range(n)]
    return dict(enumerate(rng.sample(names, n)))


def grown_graph(rng, looped):
    """A stiff cycle (5 or 6 vertices) grown by dominated vertices: a new
    vertex joins the vertex a it copies (when looped) and part of the
    neighbourhood of a."""
    base = rng.choice([5, 6])
    n = rng.randint(20, 40)
    nb = {i: {(i - 1) % base, (i + 1) % base} for i in range(base)}
    for w in range(base, n):
        a = rng.choice([w - 1, w - 2, rng.randrange(w)])
        attach = {v for v in nb[a] if v != w and rng.random() < 0.7}
        if looped:
            attach.add(a)
        elif not attach:
            attach = {rng.choice(sorted(nb[a]))}
        nb[w] = set(attach)
        for v in attach:
            nb[v].add(w)
    edges = [(u, v) for u in range(n) for v in nb[u] if u < v]
    edges += [(v, v) for v in range(n)] if looped else []
    name = relabel(rng, n)
    return ([name[v] for v in range(n)],
            [(name[u], name[v]) for u, v in edges],
            {name[v] for v in range(base)})


def grown_poset(rng):
    """The stiff crown a, b < c, d grown by beat points: a new element
    sits just below an element a (its up-set is a and the up-set of a) or,
    dually, just above it, and is comparable to part of the other side."""
    n = rng.randint(20, 40)
    rel = {(0, 2), (0, 3), (1, 2), (1, 3)}
    for w in range(4, n):
        a = rng.randrange(w)
        ups = {y for x, y in rel if x == a}
        downs = {x for x, y in rel if y == a}
        if rng.random() < 0.5:
            rel |= {(w, y) for y in ups | {a}}
            rel |= {(v, w) for v in downs if rng.random() < 0.4}
        else:
            rel |= {(y, w) for y in downs | {a}}
            rel |= {(w, v) for v in ups if rng.random() < 0.4}
        rel = transitive_closure(range(w + 1), rel)
    name = relabel(rng, n)
    return ([name[v] for v in range(n)],
            {(name[x], name[y]) for x, y in rel})


def grown_complex(rng):
    """A 5- or 6-cycle of edges grown by vertices with a cone link: a new
    vertex is joined to faces through a vertex a of some facets at a."""
    base = rng.choice([5, 6])
    n = rng.randint(20, 40)
    facets = maximal_sets({i, (i + 1) % base} for i in range(base))
    for w in range(base, n):
        a = rng.randrange(w)
        at = [f for f in facets if a in f]
        new = [{a, w} | {v for v in f if rng.random() < 0.6}
               for f in rng.sample(at, rng.randint(1, len(at)))]
        facets = maximal_sets(list(facets) + new)
    name = relabel(rng, n)
    return ([name[v] for v in range(n)],
            [{name[v] for v in f} for f in facets],
            {name[v] for v in range(base)})


def newly_dominated(steps, elements, data, pairs):
    """Steps deleting an element with no witness in the start object."""
    first = {x for x, _ in pairs(elements, data)}
    return [x for x, _ in steps if x not in first]


def collapse_onto(k, keep, rng):
    return strong_collapse_onto(k, k.restrict(keep), rng=rng)


def test_long_cascades_follow_the_reference_loop():
    runs = cascades = 0
    for seed in CASCADE_SEEDS:
        rng = random.Random(1000 + seed)
        cases = []
        for looped in (True, False):
            vs, edges, base = grown_graph(rng, looped)
            cases.append(("graph", vs, edges, graph_pairs, restrict_edges,
                          base, graph_of(vs, edges)))
        els, rel = grown_poset(rng)
        for pairs in (strict_poset_pairs, weak_poset_pairs):
            cases.append(("poset", els, rel, pairs, restrict_order, None,
                          Poset(els, rel)))
        cvs, facets, base = grown_complex(rng)
        cases.append(("complex", cvs, facets, complex_pairs,
                      restrict_facets, base, SimplicialComplex(facets)))
        for kind, elements, data, pairs, restrict, base, obj in cases:
            assert 20 <= len(elements) <= 40
            if kind == "graph":
                core, onto = dismantle_core, dismantles_onto
            elif kind == "complex":
                core, onto = strong_collapse_core, collapse_onto
            else:
                mode = "weak" if pairs is weak_poset_pairs else "strict"
                core = partial(poset_core, mode=mode)
            for lib_rng, ref_rng in rngs(seed):
                _, cert = core(obj, rng=lib_rng)
                steps, left = greedy_dismantle(elements, data, pairs,
                                               restrict, rng=ref_rng)
                assert list(cert.steps) == steps, (seed, kind)
                runs += 1
                cascades += bool(newly_dominated(steps, elements, data,
                                                 pairs))
            if base is None:
                continue
            half = set(random.Random(-seed).sample(elements,
                                                   len(elements) // 2))
            for keep in (base, half):
                for lib_rng, ref_rng in rngs(seed):
                    cert = onto(obj, keep, rng=lib_rng)
                    ref = greedy_dismantle(elements, data, pairs, restrict,
                                           rng=ref_rng, keep=keep)
                    assert (cert is None) == (ref is None), (seed, kind)
                    if ref is not None:
                        assert list(cert.steps) == ref[0], (seed, kind)
    # most runs delete elements that were not dominated at the start
    assert cascades >= runs // 2
