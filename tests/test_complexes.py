import random

import pytest

from dismantle import (DominationError, InputError, SimplicialComplex,
                       ValidationError, derive_collapse_certificate,
                       dominated_vertices, replay_collapse_certificate,
                       star_deletion_order, strong_collapse_core,
                       strong_collapse_onto, verify_collapse_certificate)
from generators import random_complex
from oracles import is_cone_apexes, maximal_sets

FULL = SimplicialComplex([("a", "b", "c")])
BOUNDARY = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])


def test_construction_validates():
    with pytest.raises(ValidationError):
        SimplicialComplex([("a", "b", "c"), ("a", "b")])
    pruned = SimplicialComplex.from_simplices([("a", "b", "c"), ("a", "b")])
    assert pruned == FULL
    assert SimplicialComplex().vertices == ()


def test_simplices_and_membership():
    assert len(FULL.simplices()) == 7
    assert FULL.has_simplex(("b", "a"))
    assert not BOUNDARY.has_simplex(("a", "b", "c"))


def test_link_star_deletion():
    assert FULL.link("a") == SimplicialComplex([("b", "c")])
    assert BOUNDARY.link("a") == SimplicialComplex([("b",), ("c",)])
    assert FULL.delete("a") == SimplicialComplex([("b", "c")])
    assert FULL.open_star("a") == (("a",), ("a", "b"), ("a", "c"),
                                   ("a", "b", "c"))
    assert FULL.star("a") == FULL
    with pytest.raises(InputError):
        FULL.link("z")


def test_is_simplicial_cone():
    assert FULL.is_simplicial_cone() == "a"
    assert BOUNDARY.is_simplicial_cone() is None
    assert SimplicialComplex([("v",)]).is_simplicial_cone() == "v"
    assert SimplicialComplex().is_simplicial_cone() is None


def test_cone_apexes_match_oracle():
    rng = random.Random(4)
    for _ in range(40):
        k = random_complex(rng, rng.randint(1, 6))
        assert set(k.cone_apexes()) == is_cone_apexes(k.facets)


def test_dominated_vertices():
    assert dominated_vertices(FULL) == [("a", "b"), ("a", "c"), ("b", "a"),
                                        ("b", "c"), ("c", "a"), ("c", "b")]
    assert dominated_vertices(BOUNDARY) == []
    path = SimplicialComplex([(0, 1), (1, 2)])  # clique complex of a path
    assert dominated_vertices(path) == [(0, 1), (2, 1)]


def test_strong_collapse_core():
    core, cert = strong_collapse_core(FULL)
    assert len(core.vertices) == 1
    assert verify_collapse_certificate(FULL, cert)
    core, cert = strong_collapse_core(BOUNDARY)
    assert core == BOUNDARY and cert.steps == ()
    assert dominated_vertices(core) == []


def test_strong_collapse_onto():
    edge = FULL.restrict({"a", "b"})
    cert = strong_collapse_onto(FULL, edge)
    assert cert is not None and len(cert) == 1
    path = SimplicialComplex([(0, 1), (1, 2)])
    cert = strong_collapse_onto(path, path.restrict({0, 1}))
    assert cert.steps == ((2, 1),)
    assert strong_collapse_onto(BOUNDARY, BOUNDARY.restrict({"a", "b"})) is None
    with pytest.raises(InputError):
        # the full triangle restricted to {a, b} is the edge, so a proper
        # subcomplex on those vertices is not a vertex-deletion subcomplex
        strong_collapse_onto(FULL, SimplicialComplex([("a",), ("b",)]))


def test_star_deletion_order_full_triangle():
    steps = star_deletion_order(
        SimplicialComplex([("a", "x", "y")]), "x", "a")
    assert steps == [
        (("x", "y"), ("a", "x", "y")),
        (("x",), ("a", "x")),
        (("a", "x"), ("a",)),
        (("a", "x", "y"), ("a", "y")),
    ]


def test_star_deletion_order_edge_and_path():
    edge = SimplicialComplex([("a", "x")])
    assert star_deletion_order(edge, "x", "a") == [
        (("x",), ("a", "x")), (("a", "x"), ("a",))]
    path = SimplicialComplex([(0, 1), (1, 2)])
    assert star_deletion_order(path, 2, 1) == [
        ((2,), (1, 2)), ((1, 2), (1,))]
    with pytest.raises(DominationError):
        star_deletion_order(BOUNDARY, "a", "b")


def test_star_deletion_order_is_a_face_graph_certificate():
    from dismantle import (DismantlingCertificate, face_graph,
                           replay_certificate)
    rng = random.Random(9)
    checked = 0
    while checked < 30:
        k = random_complex(rng, rng.randint(2, 6))
        pairs = dominated_vertices(k)
        if not pairs:
            continue
        checked += 1
        x, a = rng.choice(pairs)
        fg = face_graph(k)
        cert = DismantlingCertificate("graph", fg.digest(),
                                      tuple(star_deletion_order(k, x, a)))
        ok, _, reason, residual = replay_certificate(fg, cert)
        assert ok, reason
        from dismantle import face_graph as fg_fn
        assert residual == fg_fn(k.delete(x))


def test_derive_collapse_certificate():
    cert = derive_collapse_certificate(FULL, ["a", "b"])
    assert cert is not None and verify_collapse_certificate(FULL, cert)
    assert derive_collapse_certificate(BOUNDARY, ["a"]) is None


def test_replay_reports_failing_step():
    core, cert = strong_collapse_core(FULL)
    bad = cert.replace_step(0, witness=cert.steps[0][0] + "zz")
    ok, failed, reason, _ = replay_collapse_certificate(FULL, bad)
    assert not ok and failed == 0


def test_graph_complex_bridge_exhaustive_reflexive_five():
    import itertools

    from dismantle import Graph, clique_complex, find_dominated
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            g = Graph(range(n), edges=edges, loops=range(n))
            assert set(find_dominated(g)) == \
                set(dominated_vertices(clique_complex(g)))


def test_collapse_core_has_no_dominated_vertices():
    rng = random.Random(10)
    for _ in range(40):
        k = random_complex(rng, rng.randint(1, 6))
        core, cert = strong_collapse_core(k)
        assert dominated_vertices(core) == []
        assert verify_collapse_certificate(k, cert)


def test_vertex_operations_equal_the_constructor_on_raw_data():
    rng = random.Random(63)
    for _ in range(80):
        k = random_complex(rng, rng.randint(1, 7))
        facets = [set(f) for f in k.facets]
        assert k.vertex_set == set().union(*facets)
        x = rng.choice(k.vertices)
        expected = {
            "delete": SimplicialComplex(maximal_sets(f - {x}
                                                     for f in facets)),
            "link": SimplicialComplex(maximal_sets(f - {x} for f in facets
                                                   if x in f)),
            "star": SimplicialComplex(f for f in facets if x in f)}
        for op, want in expected.items():
            got = getattr(k, op)(x)
            assert got == want and got.digest() == want.digest()
            assert got.vertex_set == set(want.vertices)
        assert set(k.open_star(x)) == {s for s in k.simplices() if x in s}
    for op in ("delete", "link", "star", "open_star"):
        with pytest.raises(InputError):
            getattr(FULL, op)("z")
