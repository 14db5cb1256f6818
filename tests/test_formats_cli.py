import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dismantle import (Graph, ParseError, Poset, SimplicialComplex,
                       ValidationError, complete_graph, cycle_graph, label,
                       parse_complex, parse_graph, parse_poset, path_graph)
from dismantle.cli import run
from generators import random_complex, random_graph, random_poset


def test_parse_graph():
    g = parse_graph("v 0 loop\nv 1 loop\ne 0 1\n")
    assert g == Graph([0, 1], edges=[(0, 1)], loops=[0, 1])
    # e x x declares a loop, endpoints are declared implicitly
    assert parse_graph("e 2 2\ne 2 3") == Graph([2, 3], edges=[(2, 3)],
                                                loops=[2])
    assert parse_graph("# only a comment\n") == Graph()
    with pytest.raises(ParseError) as err:
        parse_graph("v 0\nq 1 2\n")
    assert err.value.line == 2


def test_parse_poset():
    p = parse_poset("p a\np d\nc d a\n")
    assert p == Poset("ad", [("d", "a")])
    with pytest.raises(ValidationError):
        parse_poset("c a b\nc b a\n")  # cover cycle
    with pytest.raises(ParseError):
        parse_poset("c a a\n")


def test_parse_complex():
    k = parse_complex("f a b\nf b c\n")
    assert k == SimplicialComplex([("a", "b"), ("b", "c")])
    with pytest.raises(ValidationError):
        parse_complex("f a b c\nf a b\n")


def test_label_rejects_empty_ids_and_every_whitespace_character():
    chars = [chr(code) for code in range(sys.maxunicode + 1)]
    printable = "".join(itertools.filterfalse(str.isspace, chars))
    assert label(printable) == printable
    spaces = list(filter(str.isspace, chars))
    for bad in ["", ("a", "b\tc")] + spaces + [f"a{c}b" for c in spaces]:
        with pytest.raises(ValueError):
            label(bad)
    assert label(("a", ("b", 7))) == "{a,{b,7}}"


def test_round_trip_all_categories():
    rng = random.Random(51)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 6))
        assert parse_graph(g.to_text()) == g
        p = random_poset(rng, rng.randint(0, 6))
        assert parse_poset(p.to_text()) == p
        k = random_complex(rng, rng.randint(1, 6))
        assert parse_complex(k.to_text()) == k


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj.to_text())
    return str(path)


def test_cli_core_and_verify(tmp_path, capsys):
    p3 = _write(tmp_path, "p3.g", path_graph(3))
    assert run(["core", "--graph", p3]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["core"].count("v ") == 2
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(report["certificate"]))
    assert run(["verify", "--graph", p3, str(cert_path)]) == 0
    # tampering with the witness breaks verification with the step index
    bad = report["certificate"].copy()
    bad["steps"] = [[bad["steps"][0][0], bad["steps"][0][0] + 1000]]
    cert_path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert run(["verify", "--graph", p3, str(cert_path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["failed_step"] == 0


def test_cli_onto(tmp_path, capsys):
    p3 = _write(tmp_path, "p3.g", path_graph(3))
    assert run(["onto", "--graph", p3, "--keep", "0,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["steps"] == [[2, 0]]
    c5 = _write(tmp_path, "c5.g", cycle_graph(5, reflexive=True))
    assert run(["onto", "--graph", c5, "--keep", "0,1,2,3"]) == 1


def test_cli_equiv(tmp_path, capsys):
    c4 = _write(tmp_path, "c4.g", cycle_graph(4, reflexive=True))
    c5 = _write(tmp_path, "c5.g", cycle_graph(5, reflexive=True))
    assert run(["equiv", "--graph", c4, c5]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == \
        "cores non-isomorphic"
    c3 = _write(tmp_path, "c3.g", cycle_graph(3, reflexive=True))
    k1 = _write(tmp_path, "k1.g", complete_graph(1, reflexive=True))
    assert run(["equiv", "--graph", c3, k1]) == 0


def test_cli_functor(tmp_path, capsys):
    diamond = Poset("abcd", [("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")])
    p = _write(tmp_path, "diamond.p", diamond)
    assert run(["functor", "comp", "--poset", p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["output_category"] == "graph"
    assert parse_graph(report["output"]).is_reflexive()
    assert run(["functor", "order-complex", "--poset", p]) == 0
    report = json.loads(capsys.readouterr().out)
    assert parse_complex(report["output"]) == SimplicialComplex(
        [("a", "b", "d"), ("a", "c", "d")])


def test_cli_hom_commands(tmp_path, capsys):
    p3 = _write(tmp_path, "p3.g", path_graph(3))
    k3 = _write(tmp_path, "k3.g",
                complete_graph(3).relabel({0: "a", 1: "b", 2: "c"}))
    assert run(["hom-graph", "--graph", p3, k3]) == 0
    assert json.loads(capsys.readouterr().out)["morphisms"] == 12
    assert run(["hom-complex", "--graph", p3, k3]) == 0
    assert json.loads(capsys.readouterr().out)["cells"] == 30
    assert run(["hom-dismantle", "--graph", p3, k3, "--side", "source",
                "--deleted", "2", "--witness", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)
               ["certificate"]["steps"]) == 18


def test_cli_error_and_budget_codes(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("q 1\n")
    assert run(["core", "--graph", str(bad)]) == 2
    capsys.readouterr()
    p4 = _write(tmp_path, "p4.g", path_graph(4))
    k4 = _write(tmp_path, "k4.g", complete_graph(4))
    assert run(["--max-morphisms", "5", "hom-graph", "--graph", p4, k4]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["code"] == "budget"
    assert run(["core", "--graph", str(tmp_path / "missing.g")]) == 2


def test_cli_cell_budget_exits_3_without_traceback(tmp_path):
    p3 = _write(tmp_path, "p3.g", path_graph(3))
    k3 = _write(tmp_path, "k3.g", complete_graph(3))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "dismantle.cli", "--max-cliques", "1",
         "hom-complex", "--graph", p3, k3],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)["code"] == "budget"


def test_cli_paper_demo(capsys):
    assert run(["paper-demo"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and len(report["items"]) >= 12
