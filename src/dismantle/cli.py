"""Command line interface.

Machine-readable JSON goes to stdout, human-readable summaries to stderr.
Exit codes: 0 success / property holds, 1 negative answer (not equivalent,
no dismantling), 2 errors, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .canon import label, parse_token, to_jsonable
from .certificate import DismantlingCertificate
from .complexes import (replay_collapse_certificate,
                        strong_collapse_core, strong_collapse_onto)
from .errors import DismantleError, InputError, ResourceError
from .formats import parse
from .functors import FUNCTORS, comp
from .graphs import (Graph, dismantle_core, dismantles_onto, dominates,
                     find_dominated, fold, is_stiff,
                     path_graph, replay_certificate, same_d_homotopy_type,
                     verify_certificate)
from .homcomplex import (clique_to_cell_dismantle,
                         fold_induced_hom_dismantle, hom_face_graph,
                         hom_face_poset, phi)
from .homgraph import (enumerate_morphisms, hom_graph, morphisms_adjacent,
                       sdr_homotopy)
from .posets import (Poset, dismantlable_elements, poset_core,
                     replay_poset_certificate, verify_poset_certificate,
                     weakly_dismantlable_elements)

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _category_of(args):
    for cat in ("graph", "poset", "complex"):
        if getattr(args, cat, None):
            return cat
    raise InputError("exactly one of --graph/--poset/--complex is required")


def _emit(report: dict, note: str | None = None) -> None:
    print(json.dumps(report, indent=2))
    if note:
        print(note, file=sys.stderr)


def _parse_ids(spec: str):
    return [parse_token(tok) for tok in spec.split(",") if tok]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_core(args) -> int:
    cat = _category_of(args)
    obj = parse(cat, _read(getattr(args, cat)[0]))
    if cat == "graph":
        core, cert = dismantle_core(obj)
    elif cat == "poset":
        core, cert = poset_core(obj, mode=args.mode)
    else:
        core, cert = strong_collapse_core(obj)
    _emit({"category": cat, "core": core.to_text(),
           "certificate": cert.to_json_dict()},
          f"core has {len(cert)} deletion(s)")
    return EXIT_OK


def _cmd_onto(args) -> int:
    cat = _category_of(args)
    obj = parse(cat, _read(getattr(args, cat)[0]))
    keep = _parse_ids(args.keep)
    if cat == "graph":
        cert = dismantles_onto(obj, keep)
    elif cat == "complex":
        cert = strong_collapse_onto(obj, obj.restrict(keep))
    else:
        raise InputError("onto is available for graphs and complexes only")
    if cert is None:
        _emit({"category": cat, "dismantles": False},
              "no dismantling onto the requested subobject")
        return EXIT_NO
    _emit({"category": cat, "dismantles": True,
           "certificate": cert.to_json_dict()},
          f"dismantles in {len(cert)} step(s)")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    g = parse("graph", _read(args.graph[0]))
    h = parse("graph", _read(args.graph[1]))
    equivalent = same_d_homotopy_type(g, h, max_nodes=args.max_iso_nodes)
    report = {"equivalent": equivalent}
    if not equivalent:
        report["reason"] = "cores non-isomorphic"
    _emit(report)
    return EXIT_OK if equivalent else EXIT_NO


def _correspondence(obj) -> dict:
    out = {}
    for el in (obj.vertices if isinstance(obj, Graph) else obj.elements
               if isinstance(obj, Poset) else obj.vertices):
        out[label(el)] = to_jsonable(el)
    return out


def _cmd_functor(args) -> int:
    name = args.name
    if name not in FUNCTORS:
        raise InputError(f"unknown functor {name!r}; "
                         f"choose from {sorted(FUNCTORS)}")
    expected, fn = FUNCTORS[name]
    cat = _category_of(args)
    obj = parse(cat, _read(getattr(args, cat)[0]))
    if expected is not object and not isinstance(obj, expected):
        raise InputError(f"functor {name} expects a "
                         f"{expected.__name__.lower()} input")
    image = fn(obj)
    out_cat = ("graph" if isinstance(image, Graph)
               else "poset" if isinstance(image, Poset) else "complex")
    _emit({"functor": name, "input_category": cat,
           "output_category": out_cat, "output": image.to_text(),
           "correspondence": _correspondence(image)},
          f"{name}: {len(image.to_text().splitlines())} output line(s)")
    return EXIT_OK


def _cmd_hom_graph(args) -> int:
    g = parse("graph", _read(args.graph[0]))
    h = parse("graph", _read(args.graph[1]))
    hg = hom_graph(g, h, max_extensions=args.max_morphisms)
    _emit({"morphisms": len(hg), "output": hg.to_text()},
          f"{len(hg)} morphism(s)")
    return EXIT_OK


def _cmd_hom_complex(args) -> int:
    g = parse("graph", _read(args.graph[0]))
    h = parse("graph", _read(args.graph[1]))
    p = hom_face_poset(g, h, max_extensions=args.max_morphisms,
                       max_cliques=args.max_cliques)
    _emit({"cells": len(p), "output": p.to_text()},
          f"{len(p)} cell(s)")
    return EXIT_OK


def _cmd_hom_dismantle(args) -> int:
    g = parse("graph", _read(args.graph[0]))
    h = parse("graph", _read(args.graph[1]))
    cert = fold_induced_hom_dismantle(
        g, h, args.side, parse_token(args.deleted), parse_token(args.witness),
        max_extensions=args.max_morphisms, max_cliques=args.max_cliques)
    _emit({"side": args.side, "certificate": cert.to_json_dict()},
          f"{len(cert)} deletion(s)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cat = _category_of(args)
    obj = parse(cat, _read(getattr(args, cat)[0]))
    cert = DismantlingCertificate.from_json(_read(args.certificate))
    replay = {"graph": replay_certificate,
              "poset": replay_poset_certificate,
              "complex": replay_collapse_certificate}[cat]
    ok, failed, reason, _ = replay(obj, cert)
    if ok:
        _emit({"valid": True, "steps": len(cert)}, "certificate is valid")
        return EXIT_OK
    _emit({"valid": False, "failed_step": failed, "reason": reason},
          f"certificate invalid at step {failed}: {reason}")
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# paper-demo: the worked examples, end to end

def _demo_items(seed: int):
    """Yield (name, callable) pairs; each callable returns True on pass."""
    from .graphs import complete_graph, cycle_graph, reflexive_closure

    p3 = path_graph(3)
    k3 = complete_graph(3).relabel({0: "a", 1: "b", 2: "c"})
    k2 = complete_graph(2)

    def by_letter():
        ms = enumerate_morphisms(p3, k3)
        table = {"u": "aca", "v": "bcb", "w": "bab", "x": "cac", "y": "cbc",
                 "z": "aba", "f": "acb", "g": "bca", "h": "bac", "j": "cab",
                 "k": "abc", "l": "cba"}
        out = {}
        for letter, word in table.items():
            want = {i: word[i] for i in range(3)}
            out[letter] = next(m for m in ms if m.mapping == want)
        return ms, out

    def morphism_table():
        ms, _ = by_letter()
        return len(ms) == 12

    def domination():
        return dominates(p3, 0, 2)

    def folding():
        return fold(p3, 2, 0) == Graph([0, 1], edges=[(0, 1)])

    def onto_k2():
        cert = dismantles_onto(p3, {0, 1})
        return cert is not None and cert.steps == ((2, 0),)

    def verify_fold():
        cert = DismantlingCertificate("graph", p3.digest(), ((2, 0),))
        return verify_certificate(p3, cert)

    def sdr():
        cert = DismantlingCertificate("graph", p3.digest(), ((2, 0),))
        maps = sdr_homotopy(p3, cert)
        return (len(maps) == 2 and maps[1].mapping == {0: 0, 1: 1, 2: 0}
                and morphisms_adjacent(p3, p3, maps[0], maps[1]))

    def hom_structure():
        ms, by = by_letter()
        hg = hom_graph(p3, k3)
        blocks = ["fguv", "hjwx", "klyz"]
        for block in blocks:
            for i, s in enumerate(block):
                for t in block[i + 1:]:
                    if not hg.adjacent(by[s].name, by[t].name):
                        return False
        connectors = {("u", "z"), ("v", "w"), ("x", "y")}
        extra = set()
        for u, v in hg.edges():
            letters = {next(s for s, m in by.items() if m.name == n)
                       for n in (u, v)}
            if not any(letters <= set(b) for b in blocks):
                extra.add(tuple(sorted(letters)))
        return extra == {tuple(sorted(c)) for c in connectors}

    def cycle_classes():
        ref = [cycle_graph(n, reflexive=True) for n in range(3, 9)]
        for i, g in enumerate(ref):
            for h in ref[i + 1:]:
                if same_d_homotopy_type(g, h):
                    return False
        one = complete_graph(1, reflexive=True)
        return same_d_homotopy_type(ref[0], one)

    def diamond():
        P = Poset("abcd", [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])
        names = {x for x, _, _ in dismantlable_elements(P)}
        weak = weakly_dismantlable_elements(P)
        cg = comp(P)
        return (names == {"b", "c"} and ("d", "a") in weak
                and dominates(cg, "a", "d")
                and {x for x, _ in find_dominated(cg)} == {"a", "b", "c", "d"})

    def atoms_identify():
        from .functors import identify_atoms_with_vertices
        for g in (p3, cycle_graph(4, reflexive=True), cycle_graph(5)):
            if identify_atoms_with_vertices(g) != reflexive_closure(g):
                return False
        return True

    def cells():
        _, by = by_letter()
        got = phi(p3, k3, [by[c] for c in "uvfg"]).name
        want = '{"0":["a","b"],"1":["c"],"2":["a","b"]}'
        got2 = phi(p3, k3, [by[c] for c in "uz"]).name
        want2 = '{"0":["a"],"1":["b","c"],"2":["a"]}'
        return got == want and got2 == want2

    def worked_sequence():
        from .functors import clique_poset
        from .posets import derive_poset_certificate
        _, by = by_letter()
        hg = hom_graph(p3, k3)
        cp = clique_poset(hg)
        seq = ("fuv guv fgu fgv fg uv hwx jwx hjw hjx wx hj "
               "kyz lyz kly klz yz kl").split()
        order = [tuple(sorted((by[c].name for c in word)))
                 for word in seq]
        cert = derive_poset_certificate(cp, order)
        if cert is None or not verify_poset_certificate(cp, cert):
            return False
        auto = clique_to_cell_dismantle(p3, k3)
        return len(cert) == 18 and len(auto) == 18

    def fold_induced():
        cert = fold_induced_hom_dismantle(p3, k3, "source", 2, 0)
        fg = hom_face_graph(p3, k3)
        sub = hom_face_graph(k2, k3)
        return (len(cert) == 18 and verify_certificate(fg, cert)
                and is_stiff(sub) and len(sub) == 12)

    def confluence():
        rng = random.Random(seed)
        cert = dismantles_onto(p3, {0, 1}, rng=rng)
        core_a, _ = dismantle_core(cycle_graph(3, reflexive=True))
        core_b, _ = dismantle_core(cycle_graph(3, reflexive=True), rng=rng)
        from .graphs import are_isomorphic
        return (cert is not None
                and are_isomorphic(core_a, core_b) is not None)

    return [
        ("twelve-morphisms", morphism_table),
        ("domination-in-path", domination),
        ("fold-path-to-edge", folding),
        ("dismantles-onto-edge", onto_k2),
        ("verify-fold-certificate", verify_fold),
        ("strong-deformation-retract", sdr),
        ("hom-graph-structure", hom_structure),
        ("reflexive-cycle-classes", cycle_classes),
        ("diamond-poset", diamond),
        ("atoms-identification", atoms_identify),
        ("cells-of-cliques", cells),
        ("clique-to-cell-sequence", worked_sequence),
        ("fold-induced-dismantling", fold_induced),
        ("randomized-confluence", confluence),
    ]


def _cmd_paper_demo(args) -> int:
    results = []
    for name, fn in _demo_items(args.seed):
        try:
            passed = bool(fn())
        except DismantleError as exc:
            passed = False
            print(f"{name}: error: {exc}", file=sys.stderr)
        results.append({"name": name, "passed": passed})
        print(f"{name}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    all_passed = all(r["passed"] for r in results)
    _emit({"items": results, "all_passed": all_passed})
    return EXIT_OK if all_passed else EXIT_ERROR


# ---------------------------------------------------------------------------
# argument parsing

def _add_io(sub, graphs=1, posets=False, complexes=False, poset_mode=False):
    if graphs:
        sub.add_argument("--graph", nargs=graphs, metavar="PATH")
    if posets:
        sub.add_argument("--poset", nargs=1, metavar="PATH")
    if complexes:
        sub.add_argument("--complex", nargs=1, metavar="PATH")
    if poset_mode:
        sub.add_argument("--mode", choices=("strict", "weak"),
                         default="strict")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dismantle",
        description="Dismantlability of graphs, posets and simplicial "
                    "complexes, with verifiable certificates.")
    parser.add_argument("--max-cliques", type=int, default=10**6)
    parser.add_argument("--max-morphisms", type=int, default=10**7)
    parser.add_argument("--max-iso-nodes", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized demo items")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("core", help="dismantle to the minimal core")
    _add_io(sub, graphs=1, posets=True, complexes=True, poset_mode=True)
    sub.set_defaults(fn=_cmd_core)

    sub = subs.add_parser("onto", help="dismantle onto an induced subobject")
    _add_io(sub, graphs=1, complexes=True)
    sub.add_argument("--keep", required=True,
                     help="comma-separated ids of the target")
    sub.set_defaults(fn=_cmd_onto)

    sub = subs.add_parser("equiv", help="decide homotopy equivalence")
    sub.add_argument("--graph", nargs=2, metavar="PATH", required=True)
    sub.set_defaults(fn=_cmd_equiv)

    sub = subs.add_parser("functor", help="apply a cross-category functor")
    sub.add_argument("name", choices=sorted(FUNCTORS))
    _add_io(sub, graphs=1, posets=True, complexes=True)
    sub.set_defaults(fn=_cmd_functor)

    sub = subs.add_parser("hom-graph", help="the graph of morphisms")
    sub.add_argument("--graph", nargs=2, metavar="PATH", required=True)
    sub.set_defaults(fn=_cmd_hom_graph)

    sub = subs.add_parser("hom-complex", help="the poset of cells")
    sub.add_argument("--graph", nargs=2, metavar="PATH", required=True)
    sub.set_defaults(fn=_cmd_hom_complex)

    sub = subs.add_parser("hom-dismantle",
                          help="fold-induced dismantling of the cell graph")
    sub.add_argument("--graph", nargs=2, metavar="PATH", required=True)
    sub.add_argument("--side", choices=("source", "target"), required=True)
    sub.add_argument("--deleted", required=True)
    sub.add_argument("--witness", required=True)
    sub.set_defaults(fn=_cmd_hom_dismantle)

    sub = subs.add_parser("verify", help="replay a certificate")
    _add_io(sub, graphs=1, posets=True, complexes=True)
    sub.add_argument("certificate", metavar="CERT.json")
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("paper-demo",
                          help="run the worked examples end to end")
    sub.set_defaults(fn=_cmd_paper_demo)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceError as exc:
        print(json.dumps({"error": str(exc), "code": "budget"}))
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DismantleError, OSError) as exc:
        print(json.dumps({"error": str(exc), "code": "error"}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
