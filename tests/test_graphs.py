import random

import pytest

from dismantle import (DismantlingCertificate, DominationError, Graph,
                       InputError, ResourceError, StaleCertificateError,
                       are_isomorphic, cliques, complete_graph, cycle_graph,
                       dismantle_core, dismantles_onto, dominates,
                       find_dominated, fold, is_stiff, named_graph,
                       open_neighborhood, path_graph, reflexive_closure,
                       replay_certificate, same_d_homotopy_type,
                       verify_certificate)
from generators import add_dominated_vertex, random_graph
from oracles import dominated_pairs, all_cliques

P3 = path_graph(3)
C4R = cycle_graph(4, reflexive=True)
C5R = cycle_graph(5, reflexive=True)
K3R = complete_graph(3, reflexive=True)


def test_open_neighborhood():
    assert open_neighborhood(C5R, 0) == {4, 0, 1}
    assert open_neighborhood(P3, 2) == {1}
    iso = Graph([0])
    assert open_neighborhood(iso, 0) == frozenset()
    with pytest.raises(InputError):
        open_neighborhood(P3, 7)


def test_closed_neighborhood_accessor():
    assert P3.closed_neighborhood(2) == {1, 2}
    assert C5R.closed_neighborhood(0) == {4, 0, 1}


def test_dominates():
    assert dominates(P3, 0, 2)
    for x, a in [(x, a) for x in C5R.vertices for a in C5R.vertices if a != x]:
        assert not dominates(C5R, a, x)
    for x in K3R.vertices:
        for a in K3R.vertices:
            if a != x:
                assert dominates(K3R, a, x)
    with pytest.raises(InputError):
        dominates(P3, 1, 1)


def test_find_dominated_matches_oracle():
    cases = [
        (P3, [0, 1, 2], [(0, 1), (1, 2)]),
        (C4R, list(range(4)),
         [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, i) for i in range(4)]),
        (Graph([5], loops=[5]), [5], [(5, 5)]),
    ]
    for g, vs, es in cases:
        assert find_dominated(g) == dominated_pairs(vs, es)
    assert find_dominated(P3) == [(0, 2), (2, 0)]
    assert find_dominated(C4R) == []
    assert find_dominated(Graph([5], loops=[5])) == []


def test_loopless_isolated_vertex_is_dominated_by_everyone():
    # empty neighborhood is contained in every neighborhood
    g = Graph([0, 1, 2], edges=[(1, 2)])
    assert {(0, 1), (0, 2)} <= set(find_dominated(g))


def test_fold():
    assert fold(P3, 2, 0) == Graph([0, 1], edges=[(0, 1)])
    assert fold(K3R, 2, 0) == Graph([0, 1], edges=[(0, 1)], loops=[0, 1])
    with pytest.raises(DominationError):
        fold(C4R, 0, 2)


def test_dismantle_core():
    core, cert = dismantle_core(cycle_graph(3, reflexive=True))
    assert len(core) == 1 and core.is_reflexive()
    core, cert = dismantle_core(C5R)
    assert core == C5R and cert.steps == ()
    core, cert = dismantle_core(P3)
    assert len(cert) == 1
    assert are_isomorphic(core, Graph("ab", edges=[("a", "b")])) is not None
    assert find_dominated(core) == []


def test_dismantles_onto():
    cert = dismantles_onto(P3, {0, 1})
    assert cert.steps == ((2, 0),)
    assert dismantles_onto(C5R, {0, 1, 2, 3}) is None
    assert dismantles_onto(P3, set(P3.vertices)).steps == ()
    with pytest.raises(InputError):
        dismantles_onto(P3, {0, 9})


def test_are_isomorphic():
    relabeled = C4R.relabel({0: "n", 1: "e", 2: "s", 3: "w"})
    bij = are_isomorphic(C4R, relabeled)
    assert bij is not None
    for u, v in C4R.edges():
        assert relabeled.adjacent(bij[u], bij[v])
    assert are_isomorphic(C4R, C5R) is None
    k2 = complete_graph(2)
    k2_loop = Graph([0, 1], edges=[(0, 1)], loops=[0])
    assert are_isomorphic(k2, k2_loop) is None
    with pytest.raises(ResourceError):
        are_isomorphic(cycle_graph(9), cycle_graph(9), max_nodes=3)


def test_same_d_homotopy_type():
    point = complete_graph(1, reflexive=True)
    assert same_d_homotopy_type(cycle_graph(3, reflexive=True), point)
    assert not same_d_homotopy_type(C4R, C5R)
    extended, _ = add_dominated_vertex(random.Random(7), C4R, 99)
    assert same_d_homotopy_type(C4R, extended)


def test_reflexive_closure():
    p3r = reflexive_closure(P3)
    assert p3r.loops == {0, 1, 2}
    assert reflexive_closure(C4R) == C4R
    assert reflexive_closure(Graph()) == Graph()


def test_verify_certificate():
    good = DismantlingCertificate("graph", P3.digest(), ((2, 0),))
    assert verify_certificate(P3, good)
    bad = DismantlingCertificate("graph", P3.digest(), ((1, 0),))
    assert not verify_certificate(P3, bad)
    empty = DismantlingCertificate("graph", P3.digest())
    assert verify_certificate(P3, empty)
    stale = DismantlingCertificate("graph", C4R.digest(), ((2, 0),))
    with pytest.raises(StaleCertificateError):
        verify_certificate(P3, stale)
    ok, failed, reason, residual = replay_certificate(P3, bad)
    assert not ok and failed == 0 and "not dominated" in reason


def test_certificate_invariants():
    with pytest.raises(InputError):
        DismantlingCertificate("graph", "x", ((1, 1),))
    with pytest.raises(InputError):
        DismantlingCertificate("graph", "x", ((1, 2), (1, 3)))


def test_named_graphs():
    assert named_graph("P3") == P3
    assert named_graph("C4°") == C4R
    assert named_graph("K3o") == K3R
    with pytest.raises(InputError):
        named_graph("Q7")


def test_cliques_match_oracle():
    rng = random.Random(1)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        mine = {frozenset(c) for c in cliques(g)}
        edges = list(g.edges()) + [(v, v) for v in g.loops]
        assert mine == all_cliques(g.vertices, edges)
    with pytest.raises(ResourceError):
        cliques(complete_graph(10), max_count=50)


def test_stiff_cores_and_deletion_keeps_ids():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 7))
        core, cert = dismantle_core(g)
        assert is_stiff(core)
        assert set(core.vertices) == set(g.vertices) - set(cert.deleted())
        assert verify_certificate(g, cert)


def test_fold_soundness_composite_adjacent_to_identity():
    # the fold retraction, viewed inside the ambient graph, is homotopic in
    # one step to the identity
    from dismantle import Morphism, identity_morphism, morphisms_adjacent
    rng = random.Random(3)
    seen = 0
    while seen < 20:
        g = random_graph(rng, rng.randint(2, 6))
        pairs = find_dominated(g)
        if not pairs:
            continue
        seen += 1
        x, a = rng.choice(pairs)
        composite = Morphism.make(
            g, g, {v: (a if v == x else v) for v in g.vertices})
        assert morphisms_adjacent(g, g, composite, identity_morphism(g))


def test_same_d_homotopy_type_is_an_equivalence_relation():
    rng = random.Random(17)
    pool = [random_graph(rng, rng.randint(0, 5)) for _ in range(8)]
    pool += [cycle_graph(3, reflexive=True), complete_graph(1, reflexive=True)]
    rel = {(i, j) for i, g in enumerate(pool) for j, h in enumerate(pool)
           if same_d_homotopy_type(g, h)}
    for i in range(len(pool)):
        assert (i, i) in rel
    for i, j in list(rel):
        assert (j, i) in rel
    for i, j in list(rel):
        for j2, k in list(rel):
            if j2 == j:
                assert (i, k) in rel


def test_induced_and_without_equal_the_constructor_on_raw_data():
    pool = [0, 1, 2, 7, "a", "b", "10", (0, 1), ("a", 2)]
    rng = random.Random(61)
    for _ in range(80):
        vs = rng.sample(pool, rng.randint(0, len(pool)))
        edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                 if rng.random() < 0.4]
        loops = [v for v in vs if rng.random() < 0.4]
        g = Graph(vs, edges=edges, loops=loops)
        g.edges().clear()  # a caller's copy; fills the cache of g
        assert g.edges() == Graph(vs, edges=edges, loops=loops).edges()
        keep = {v for v in vs if rng.random() < 0.6}
        expected = Graph(keep,
                         edges=[(u, v) for u, v in edges
                                if u in keep and v in keep],
                         loops=[v for v in loops if v in keep])
        for sub in (g.induced(keep), g.without(*(set(vs) - keep))):
            assert sub == expected and sub.digest() == expected.digest()
            assert sub.vertices == expected.vertices
            assert sub.edges() == expected.edges()
    with pytest.raises(InputError):
        P3.induced([0, 7])
    with pytest.raises(InputError):
        P3.without(7)
