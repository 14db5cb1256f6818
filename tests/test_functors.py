import random

import pytest

from dismantle import (Graph, Poset, SimplicialComplex, atoms_graph, bd,
                       clique_complex, clique_poset,
                       clique_poset_cert_from_graph_cert,
                       collapse_cert_from_face_graph_cert,
                       collapse_cert_from_graph_cert, comp,
                       comp_cert_from_weak_poset_cert, complete_graph,
                       cycle_graph, dismantle_core, dismantles_onto, face_graph, face_poset,
                       face_graph_cert_from_collapse_cert, find_dominated,
                       graph_cert_from_collapse_cert,
                       InternalConsistencyError,
                       identify_atoms_with_vertices, order_complex,
                       path_graph, poset_core, reflexive_closure,
                       replay_certificate, replay_collapse_certificate,
                       replay_poset_certificate, rub, strong_collapse_onto,
                       verify_certificate, verify_collapse_certificate,
                       verify_poset_certificate,
                       weak_poset_cert_from_comp_cert)
from generators import (random_complex, random_poset,
                        random_reflexive_graph)
from oracles import all_cliques

DIAMOND = Poset("abcd", [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])


def test_comp():
    assert comp(Poset(range(3), [(0, 1), (1, 2)])) == complete_graph(
        3, reflexive=True)
    assert comp(Poset("xy")) == Graph("xy", loops="xy")
    cg = comp(DIAMOND)
    # four-cycle with the extra a-d diagonal, all loops
    assert set(cg.edges()) == {("a", "b"), ("a", "c"), ("a", "d"),
                               ("b", "d"), ("c", "d")}
    assert cg.is_reflexive()
    # deletion commutes with comp
    for x in DIAMOND.elements:
        assert comp(DIAMOND.without(x)) == cg.without(x)


def test_clique_poset():
    p = clique_poset(Graph("ab", edges=[("a", "b")]))
    assert set(p.elements) == {("a",), ("b",), ("a", "b")}
    assert p.lt(("a",), ("a", "b"))
    q = clique_poset(Graph("ab"))
    assert q.elements == (("a",), ("b",)) and not q.comparable(("a",), ("b",))


def test_clique_complex():
    assert clique_complex(cycle_graph(4, reflexive=True)) == \
        SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert clique_complex(complete_graph(3, reflexive=True)) == \
        SimplicialComplex([(0, 1, 2)])
    assert clique_complex(path_graph(3)) == SimplicialComplex([(0, 1), (1, 2)])


def test_face_graph():
    fg = face_graph(SimplicialComplex([("a", "b")]))
    assert set(fg.vertices) == {("a",), ("b",), ("a", "b")}
    assert fg.adjacent(("a",), ("a", "b")) and not fg.adjacent(("a",), ("b",))
    assert fg.is_reflexive()
    full = face_graph(SimplicialComplex([("a", "b", "c")]))
    assert len(full) == 7
    hexagon = face_graph(SimplicialComplex([("a", "b"), ("b", "c"),
                                            ("a", "c")]))
    assert len(hexagon) == 6 and all(hexagon.degree(v) == 3  # loop + 2
                                     for v in hexagon.vertices)


def test_order_complex():
    assert order_complex(Poset(range(3), [(0, 1), (1, 2)])) == \
        SimplicialComplex([(0, 1, 2)])
    assert order_complex(Poset("xy")) == SimplicialComplex([("x",), ("y",)])
    assert order_complex(DIAMOND) == SimplicialComplex(
        [("a", "b", "d"), ("a", "c", "d")])


def test_face_poset():
    fp = face_poset(SimplicialComplex([("a", "b")]))
    assert set(fp.elements) == {("a",), ("b",), ("a", "b")}
    fp = face_poset(SimplicialComplex([("a", "b", "c")]))
    assert len(fp) == 7 and len(fp.atoms()) == 3
    assert face_poset(SimplicialComplex([("x",), ("y",)])).covers() == []


def test_rub_and_atoms_graph():
    assert rub(DIAMOND) == complete_graph(4, reflexive=True).relabel(
        {0: "a", 1: "b", 2: "c", 3: "d"})
    assert rub(Poset(range(3), [(0, 1), (1, 2)])) == complete_graph(
        3, reflexive=True)
    m = atoms_graph(DIAMOND)
    assert m.vertices == ("d",)


def test_atoms_identification():
    for g in (path_graph(3), cycle_graph(4, reflexive=True), cycle_graph(5)):
        assert identify_atoms_with_vertices(g) == reflexive_closure(g)


def test_rub_dismantles_onto_atoms():
    rng = random.Random(21)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 7))
        r = rub(p)
        cert = dismantles_onto(r, p.atoms())
        assert cert is not None and verify_certificate(r, cert)


def test_bd_composites_agree_in_all_categories():
    rng = random.Random(22)
    for _ in range(30):
        g = random_reflexive_graph(rng, rng.randint(1, 5))
        assert bd(g) == comp(clique_poset(g))
        assert bd(g) == face_graph(clique_complex(g))
        p = random_poset(rng, rng.randint(1, 5))
        assert bd(p) == clique_poset(comp(p))
        assert bd(p) == face_poset(order_complex(p))
        k = random_complex(rng, rng.randint(1, 5))
        assert bd(k) == clique_complex(face_graph(k))
        assert bd(k) == order_complex(face_poset(k))


def test_bd_small_examples():
    assert bd(Graph("ab", edges=[("a", "b")])) == Graph(
        [("a",), ("b",), ("a", "b")],
        edges=[(("a",), ("a", "b")), (("b",), ("a", "b"))],
        loops=[("a",), ("b",), ("a", "b")])
    assert bd(SimplicialComplex([("a", "b")])) == SimplicialComplex(
        [(("a",), ("a", "b")), (("b",), ("a", "b"))])


def test_weak_poset_certs_transport_to_comp_and_back():
    rng = random.Random(23)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 6))
        _, wcert = poset_core(p, "weak")
        gcert = comp_cert_from_weak_poset_cert(p, wcert)
        assert verify_certificate(comp(p), gcert)
        _, gcert2 = dismantle_core(comp(p))
        pcert = weak_poset_cert_from_comp_cert(p, gcert2)
        assert verify_poset_certificate(p, pcert)


def test_graph_certs_transport_to_clique_complex_and_back():
    rng = random.Random(24)
    for _ in range(30):
        g = random_reflexive_graph(rng, rng.randint(1, 6))
        core, cert = dismantle_core(g)
        ccert = collapse_cert_from_graph_cert(g, cert)
        ok, _, reason, residual = replay_collapse_certificate(
            clique_complex(g), ccert)
        assert ok, reason
        assert residual == clique_complex(core)
        back = graph_cert_from_collapse_cert(g, ccert)
        assert verify_certificate(g, back)


def test_graph_fold_transports_to_clique_poset():
    rng = random.Random(25)
    checked = 0
    while checked < 20:
        g = random_reflexive_graph(rng, rng.randint(2, 5))
        core, cert = dismantle_core(g)
        if not cert.steps:
            continue
        checked += 1
        pcert = clique_poset_cert_from_graph_cert(g, cert)
        ok, _, reason, residual = replay_poset_certificate(
            clique_poset(g), pcert)
        assert ok, reason
        assert residual == clique_poset(core)


@pytest.mark.parametrize("replay", [
    lambda p, cert: (False, 0, "step 0: forced failure", p),
    lambda p, cert: (True, None, None, p)],  # residual is not the core's
    ids=["failed-step", "wrong-residual"])
def test_clique_poset_transport_checks_its_own_replay(monkeypatch, replay):
    import dismantle.functors as functors
    g = path_graph(3, reflexive=True)
    _, cert = dismantle_core(g)
    monkeypatch.setattr(functors, "replay_poset_certificate", replay)
    with pytest.raises(InternalConsistencyError):
        clique_poset_cert_from_graph_cert(g, cert)


def test_collapse_transports_to_face_graph_and_back():
    rng = random.Random(26)
    from generators import random_collapse
    checked = 0
    while checked < 20:
        k = random_complex(rng, rng.randint(2, 6))
        sub, deleted = random_collapse(rng, k, rng.randint(1, 3))
        if not deleted:
            continue
        checked += 1
        cert = strong_collapse_onto(k, sub)
        assert cert is not None
        fgcert = face_graph_cert_from_collapse_cert(k, cert)
        ok, _, reason, residual = replay_certificate(face_graph(k), fgcert)
        assert ok, reason
        assert residual == face_graph(sub)
        back = collapse_cert_from_face_graph_cert(k, fgcert)
        assert back is not None and verify_collapse_certificate(k, back)


def test_zero_simplex_extraction_from_greedy_face_graph_dismantling():
    rng = random.Random(27)
    from generators import random_collapse
    checked = 0
    while checked < 20:
        k = random_complex(rng, rng.randint(2, 5))
        sub, deleted = random_collapse(rng, k, rng.randint(1, 3))
        if not deleted:
            continue
        checked += 1
        fg = face_graph(k)
        cert = dismantles_onto(fg, face_graph(sub).vertices)
        assert cert is not None
        extracted = collapse_cert_from_face_graph_cert(k, cert)
        assert extracted is not None
        ok, _, reason, residual = replay_collapse_certificate(k, extracted)
        assert ok, reason
        assert residual == sub


def test_bd_transports_folds():
    rng = random.Random(28)
    checked = 0
    while checked < 20:
        g = random_reflexive_graph(rng, rng.randint(2, 5))
        pairs = find_dominated(g)
        if not pairs:
            continue
        checked += 1
        x, a = rng.choice(pairs)
        sub = bd(g.without(x))
        cert = dismantles_onto(bd(g), sub.vertices)
        assert cert is not None and verify_certificate(bd(g), cert)


def test_reflexive_dismantling_equivalence_through_clique_complex():
    # a reflexive graph dismantles onto an induced subgraph exactly when
    # its clique complex strongly collapses onto the subgraph's
    rng = random.Random(29)
    for _ in range(40):
        g = random_reflexive_graph(rng, rng.randint(1, 6))
        keep = [v for v in g.vertices if rng.random() < 0.6] or [g.vertices[0]]
        gcert = dismantles_onto(g, keep)
        kc = clique_complex(g)
        sub_kc = clique_complex(g.induced(keep))
        if kc.restrict(set(keep)) != sub_kc:
            continue  # target is not a vertex-deletion subcomplex
        ccert = strong_collapse_onto(kc, sub_kc)
        assert (gcert is None) == (ccert is None)


def test_dismantling_sequences_transport_through_subdivision_both_ways():
    # a reflexive graph dismantles onto an induced subgraph exactly when
    # its subdivision dismantles onto the subgraph's subdivision
    rng = random.Random(30)
    for _ in range(40):
        g = random_reflexive_graph(rng, rng.randint(1, 5))
        keep = [v for v in g.vertices if rng.random() < 0.6] or [g.vertices[0]]
        direct = dismantles_onto(g, keep)
        subdivided = dismantles_onto(bd(g), bd(g.induced(keep)).vertices)
        assert (direct is None) == (subdivided is None)
        if direct is not None:
            assert verify_certificate(bd(g), subdivided)


def test_face_graph_equals_comp_of_face_poset():
    rng = random.Random(31)
    for _ in range(30):
        k = random_complex(rng, rng.randint(1, 6))
        assert face_graph(k) == comp(face_poset(k))


def test_order_complex_pointwise_bridge():
    # weak domination in a poset is domination in its order complex,
    # witness for witness
    from dismantle import weakly_dismantlable_elements
    from dismantle.complexes import dominated_vertices as cx_dominated
    from oracles import all_labeled_posets
    for n in range(5):
        for rel in all_labeled_posets(n):
            p = Poset(range(n), rel)
            assert set(weakly_dismantlable_elements(p)) == \
                set(cx_dominated(order_complex(p)))
    rng = random.Random(32)
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 7))
        assert set(weakly_dismantlable_elements(p)) == \
            set(cx_dominated(order_complex(p)))
