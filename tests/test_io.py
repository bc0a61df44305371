import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from trusshom.cli import main
from trusshom.documents import (
    document_to_form_diagram,
    document_to_truss,
    parse_truss_document,
    serialize_truss_document,
)
from trusshom.duality import force_diagram_from_stress, form_diagram
from trusshom.errors import InputError
from trusshom.samples import wheel5
from trusshom.statics import analyze
from trusshom.svg import render_svg

from conftest import run_cli

Q = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["wheel5.json", "tri3.json", "collinear3.json", "square4.json", "loaded1.json"]
)
def test_parse_serialize_roundtrip_fixed_point(name):
    doc = parse_truss_document(fixture_text(name))
    text1 = serialize_truss_document(doc)
    doc2 = parse_truss_document(text1)
    assert doc2 == doc
    assert serialize_truss_document(doc2) == text1


def test_exact_fraction_and_decimal_coordinates():
    text = json.dumps(
        {
            "version": 1,
            "dim": 2,
            "vertices": [
                {"id": "a", "pos": ["1/3", "0.25"]},
                {"id": "b", "pos": [1, "2"]},
            ],
            "edges": [{"id": "ab", "tail": "a", "head": "b"}],
        }
    )
    doc = parse_truss_document(text)
    assert doc.vertices[0][1] == (Q(1, 3), Q(1, 4))
    assert doc.vertices[1][1] == (Q(1), Q(2))


def test_json_float_coordinates_rejected():
    text = json.dumps(
        {
            "version": 1,
            "dim": 2,
            "vertices": [{"id": "a", "pos": [0.333, 0]}, {"id": "b", "pos": [1, 0]}],
            "edges": [{"id": "ab", "tail": "a", "head": "b"}],
        }
    )
    with pytest.raises(InputError, match="float"):
        parse_truss_document(text)


def test_missing_vertex_reference_names_id():
    text = json.dumps(
        {
            "version": 1,
            "dim": 2,
            "vertices": [{"id": "a", "pos": ["0", "0"]}],
            "edges": [{"id": "ab", "tail": "a", "head": "ghost"}],
        }
    )
    with pytest.raises(InputError, match="ghost"):
        parse_truss_document(text)


def _square_document(inner_sign=1):
    return {
        "version": 1,
        "dim": 2,
        "vertices": [
            {"id": "a", "pos": ["0", "0"]},
            {"id": "b", "pos": ["1", "0"]},
            {"id": "c", "pos": ["1", "1"]},
            {"id": "d", "pos": ["0", "1"]},
        ],
        "edges": [
            {"id": "ab", "tail": "a", "head": "b"},
            {"id": "bc", "tail": "b", "head": "c"},
            {"id": "cd", "tail": "c", "head": "d"},
            {"id": "da", "tail": "d", "head": "a"},
        ],
        "faces": [
            {"id": "inner", "cycle": [[e, inner_sign] for e in ("ab", "bc", "cd", "da")]},
            {"id": "outer", "cycle": [["da", -1], ["cd", -1], ["bc", -1], ["ab", -1]]},
        ],
        "exterior": "outer",
    }


def test_boolean_dim_rejected(tmp_path):
    doc = _square_document()
    doc["dim"] = True
    f = tmp_path / "bool_dim.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="'dim' has the wrong type"):
        parse_truss_document(f.read_text())
    assert main(["analyze", str(f)]) == 1


def test_faces_must_be_a_list(tmp_path):
    doc = _square_document()
    doc["faces"] = 5
    f = tmp_path / "faces_int.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="'faces' has the wrong type"):
        parse_truss_document(f.read_text())
    assert main(["rotations", str(f)]) == 1


def test_boolean_face_signs_rejected(tmp_path):
    f = tmp_path / "bool_signs.json"
    f.write_text(json.dumps(_square_document(inner_sign=True)))
    with pytest.raises(InputError, match="cycle entries are"):
        parse_truss_document(f.read_text())
    assert main(["rotations", str(f)]) == 1
    # the same document with integer signs is valid
    f.write_text(json.dumps(_square_document(inner_sign=1)))
    assert main(["rotations", str(f)]) == 0


def test_empty_document_keeps_its_dimension(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"version": 1, "dim": 2, "vertices": [], "edges": []}))
    assert main(["analyze", str(f)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim"] == 2 and rep["maxwell"]["n"] == 2
    assert main(["maxwell", str(f), "--dim", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 3 and rep["identity"].startswith("3*0 - 0 = 0")


def _one_vertex_document(coord):
    return json.dumps({
        "version": 1,
        "dim": 2,
        "vertices": [{"id": "a", "pos": [coord, "0"]}],
        "edges": [],
    })


@pytest.mark.parametrize("coord", ["-0.25", "1/3", "-7/2", "12", "0"])
def test_documented_coordinate_forms_accepted(coord):
    (vertex,) = parse_truss_document(_one_vertex_document(coord)).vertices
    assert vertex[1][0] == Q(coord)


@pytest.mark.parametrize("coord", ["1e3", "1E-2", "+1", ".5", "1.", " 1", "\u0661"])
def test_other_coordinate_strings_rejected(coord):
    with pytest.raises(InputError, match="neither an exact decimal"):
        parse_truss_document(_one_vertex_document(coord))


def test_huge_exponent_coordinate_exits_1_quickly(tmp_path):
    f = tmp_path / "exponent.json"
    f.write_text(_one_vertex_document("1e10000000"))
    proc = run_cli("analyze", str(f), timeout=10)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "invalid input"


def test_integer_over_the_digit_limit_is_invalid_input(tmp_path):
    f = tmp_path / "digits.json"
    f.write_text(_one_vertex_document("1").replace('"1"', "1" * 5000))
    with pytest.raises(InputError, match="not valid JSON"):
        parse_truss_document(f.read_text())
    assert main(["analyze", str(f)]) == 1


def _loaded1_with_connectors(connectors):
    doc = json.loads(fixture_text("loaded1.json"))
    if connectors is None:
        del doc["boundary"]["connectors"]
    else:
        doc["boundary"]["connectors"] = connectors
    return doc


@pytest.mark.parametrize("connectors", [["la", "lb"], ["la", "lb", "lc", "y12"]])
def test_declared_connectors_must_match_the_loop(tmp_path, connectors):
    f = tmp_path / "loaded.json"
    f.write_text(json.dumps(_loaded1_with_connectors(connectors)))
    for argv in (["analyze", "--boundary"], ["relative"], ["check"]):
        assert main([*argv, str(f)]) == 1
    with pytest.raises(InputError, match="boundary.connectors"):
        document_to_truss(parse_truss_document(f.read_text())).boundary_decomposition()


@pytest.mark.parametrize("key", ["loop_vertices", "loop_edges", "connectors"])
def test_boundary_entries_must_be_id_strings(tmp_path, key):
    doc = _loaded1_with_connectors(["la", "lb", "lc"])
    doc["boundary"][key] = [doc["boundary"][key]]  # a list where an id belongs
    f = tmp_path / "loaded.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="boundary references missing"):
        parse_truss_document(f.read_text())
    assert main(["check", str(f)]) == 1


@pytest.mark.parametrize("connectors", [None, ["lc", "la", "lb"]])
def test_undeclared_or_reordered_connectors_accepted(tmp_path, connectors):
    f = tmp_path / "loaded.json"
    f.write_text(json.dumps(_loaded1_with_connectors(connectors)))
    assert main(["relative", str(f)]) == 0


def test_faces_auto_traced_when_absent():
    doc = parse_truss_document(fixture_text("wheel5.json"))
    assert doc.faces is None
    fd, loaded = document_to_form_diagram(doc)
    assert fd.complex.nfaces == 5
    assert loaded.face_ids == tuple(f"f{i}" for i in range(5))


def test_dim_override_pads_coordinates():
    doc = parse_truss_document(fixture_text("tri3.json"))
    loaded = document_to_truss(doc, dim=3)
    assert loaded.truss.dim == 3
    assert all(p[2] == 0 for p in loaded.truss.embedding.positions)
    with pytest.raises(InputError):
        document_to_truss(doc, dim=1)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def exact_segments(svg_text):
    segs = []
    for m in re.finditer(r'data-exact="([^"]+)"', svg_text):
        a, b, c, d = (Q(v) for v in m.group(1).split())
        segs.append(((a, b), (c, d)))
    return segs


def test_svg_byte_deterministic_and_classed():
    t = wheel5()
    (s,) = analyze(t).self_stress_basis
    one = render_svg(t, s)
    two = render_svg(t, s)
    assert one == two
    assert one.count('class="member tension"') == 4
    assert one.count('class="member compression"') == 4


def test_svg_dual_segments_parallel_to_primal():
    t = wheel5()
    fd = form_diagram(t)
    (s,) = analyze(t).self_stress_basis
    diag = force_diagram_from_stress(fd, s)
    form_svg = render_svg(t, s)
    force_svg = render_svg(diag, s)
    prim = exact_segments(form_svg)
    dual = exact_segments(force_svg)
    assert len(prim) == len(dual) == 8
    for (a1, b1), (a2, b2) in zip(prim, dual):
        v1 = (b1[0] - a1[0], b1[1] - a1[1])
        v2 = (b2[0] - a2[0], b2[1] - a2[1])
        assert v1[0] * v2[1] - v1[1] * v2[0] == 0


def test_svg_zero_stress_dual_degenerates_with_warning():
    t = wheel5()
    fd = form_diagram(t)
    diag = force_diagram_from_stress(fd, [Q(0)] * 8)
    svg = render_svg(diag)
    assert "degenerate" in svg


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_analyze_wheel5(tmp_path):
    code = main(["analyze", str(FIXTURES / "wheel5.json")])
    assert code == 0


def test_cli_analyze_report_content():
    proc = run_cli("analyze", "fixtures/wheel5.json")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["betti"] == {"b0": 3, "b1": 1}
    assert rep["maxwell"]["identity"] == "2*5 - 8 = 2 = 3 + 0 - 1"
    assert rep["self_stresses"][0]["s1"] == "1"
    assert rep["self_stresses"][0]["r1"] == "-1/2"


def test_cli_outputs_byte_deterministic(tmp_path):
    a = run_cli("analyze", "fixtures/wheel5.json")
    b = run_cli("analyze", "fixtures/wheel5.json")
    assert a.stdout == b.stdout
    s1 = tmp_path / "one.svg"
    s2 = tmp_path / "two.svg"
    p1 = run_cli("dual", "fixtures/wheel5.json", "--stress", "0", "--svg", str(s1))
    p2 = run_cli("dual", "fixtures/wheel5.json", "--stress", "0", "--svg", str(s2))
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout
    assert s1.read_bytes() == s2.read_bytes()


def test_cli_exit_codes(tmp_path):
    assert run_cli("analyze", "missing.json").returncode == 1
    # crossing edges: precondition violation when tracing faces
    bad = {
        "version": 1,
        "dim": 2,
        "vertices": [
            {"id": "a", "pos": ["0", "0"]},
            {"id": "b", "pos": ["1", "1"]},
            {"id": "c", "pos": ["1", "0"]},
            {"id": "d", "pos": ["0", "1"]},
        ],
        "edges": [
            {"id": "ab", "tail": "a", "head": "b"},
            {"id": "cd", "tail": "c", "head": "d"},
            {"id": "ac", "tail": "a", "head": "c"},
            {"id": "bd", "tail": "b", "head": "d"},
        ],
    }
    f = tmp_path / "crossing.json"
    f.write_text(json.dumps(bad))
    assert run_cli("dual", str(f)).returncode == 2
    # malformed json
    g = tmp_path / "broken.json"
    g.write_text("{not json")
    assert run_cli("analyze", str(g)).returncode == 1


def test_cli_relative_and_check_loaded1(tmp_path):
    out = tmp_path / "rel.svg"
    proc = run_cli("relative", "fixtures/loaded1.json", "--svg", str(out))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["equilibrium_dimension"] == 1
    assert out.exists()
    chk = run_cli("check", "fixtures/loaded1.json")
    assert chk.returncode == 0
    assert json.loads(chk.stdout)["ok"] is True


def test_cli_boundary_flag_on_analyze():
    proc = run_cli("analyze", "fixtures/loaded1.json", "--boundary")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["equilibrium"]["dimension"] == 1
    assert rep["equilibrium"]["connectors"] == ["la", "lb", "lc"]


def test_cli_spline_reports_cycle_dimension():
    proc = run_cli("spline", "fixtures/tri3.json", "--degree", "1", "--smoothness", "0")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["spline_space_dimension"] == 3


def test_explicit_faces_parse_and_dualize(tmp_path):
    doc = _square_document()
    f = tmp_path / "square_faced.json"
    f.write_text(json.dumps(doc))
    parsed = parse_truss_document(f.read_text())
    fd, loaded = document_to_form_diagram(parsed)
    assert loaded.face_ids == ("inner", "outer")
    assert fd.complex.exterior_face == 1
    proc = run_cli("dual", str(f))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    # no self-stress: the zero-stress dual collapses to the anchor
    assert all(v["pos"] == ["0", "0"] for v in rep["dual_vertices"])


def test_svg_rejects_spatial_truss():
    from trusshom.complexes import build_complex, Embedding
    from trusshom.statics import Truss

    t = Truss(
        build_complex(2, [(0, 1)]),
        Embedding.from_points([(0, 0, 0), (1, 0, 0)]),
    )
    with pytest.raises(InputError, match="planar"):
        render_svg(t)


def test_cli_internal_failures_exit_3(monkeypatch):
    from trusshom import cli
    from trusshom.errors import InternalCheckError

    def boom(args):
        raise InternalCheckError("forced")

    # build_parser resolves command functions by name at call time
    monkeypatch.setattr(cli, "cmd_check", boom)
    assert cli.main(["check", str(FIXTURES / "wheel5.json")]) == 3
