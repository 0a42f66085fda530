"""Command-line interface: output shapes and exit codes."""

import gc
import json
import math
import random
import warnings

import pytest
from click.testing import CliRunner

import knots.cli
from knots import ConwayPoly, catalog
from knots.cli import main


def _run(*args):
    return CliRunner().invoke(main, args)


def test_compute_conway_of_catalog_name():
    res = _run("compute", "trefoil-r", "--inv", "conway")
    assert res.exit_code == 0
    assert "1 + t^2" in res.output


def test_compute_literal_unknot():
    res = _run("compute", "()", "--inv", "conway")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1].endswith("1")


def test_compute_defaults_cover_applicable_invariants():
    res = _run("compute", "fig8")
    assert res.exit_code == 0
    for key in ("conway", "casson", "arf", "colorings"):
        assert key in res.output
    res = _run("compute", "hopf+")
    assert "lk2" in res.output and "arf" not in res.output


def test_compute_json_schema():
    res = _run("compute", "hopf-", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["name"] == "hopf-"
    assert doc["code"] == "U1- O2- ; U2- O1-"
    assert doc["invariants"]["conway"]["coeffs"] == [0, -1]
    assert doc["invariants"]["lk"] == [[0, -1], [-1, 0]]


@pytest.mark.parametrize("n", [101, 105])
def test_compute_json_colorings_of_a_large_torus_knot(n):
    # T(2, n) has determinant n: 9 three-colorings when 3 | n, else the 3
    # constant ones, and likewise 25 or 5 five-colorings.
    text = " ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n))
    res = _run("compute", text, "--format", "json")
    assert res.exit_code == 0
    colorings = json.loads(res.output)["invariants"]["colorings"]
    want = {p: p * p if n % p == 0 else p for p in (3, 5)}
    assert colorings == {str(p): [total, total - p] for p, total in want.items()}


def test_compute_arf_of_link_is_domain_error():
    res = _run("compute", "hopf+", "--inv", "arf")
    assert res.exit_code == 3


def test_compute_conway_of_non_planar_code_is_domain_error():
    res = _run("compute", "O1+ U2+ U1+ O2+", "--inv", "conway")
    assert res.exit_code == 3
    assert any(line.startswith("error:") for line in res.output.splitlines())


def test_compute_conway_prints_every_catalog_golden():
    for e in catalog.all():
        res = _run("compute", e.code, "--inv", "conway")
        assert res.exit_code == 0, e.name
        want = str(ConwayPoly(e.golden.conway))
        assert res.output.splitlines()[-1].split(None, 1) == ["conway", want], e.name


def test_compute_parse_error():
    res = _run("compute", "O1+ U2")
    assert res.exit_code == 2


def test_compute_unknown_name():
    res = _run("compute", "granny")
    assert res.exit_code == 3


def test_fuzz_passes_on_catalog_knot():
    res = _run("fuzz", "trefoil-r", "--steps", "60", "--seed", "7")
    assert res.exit_code == 0
    assert "PASS" in res.output


def test_fuzz_break_hook_fails(monkeypatch):
    # A walk that ends on another knot changes the invariants.
    fig8 = catalog.lookup("fig8").diagram
    monkeypatch.setattr(knots.cli, "random_walk", lambda d, plan: fig8)
    res = _run("fuzz", "trefoil-r", "--steps", "5")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_fuzz_json_reports_walk_shape():
    res = _run("fuzz", "hopf+", "--steps", "30", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["pass"] is True
    assert doc["steps"] == 30
    assert doc["mismatches"] == []


def test_geom_linked_triangles_trials():
    res = _run("geom", "linked-triangles", "--seed", "1", "--trials", "4")
    assert res.exit_code == 0
    assert res.output.count("trial") == 4
    assert "4 witnesses found" in res.output


def test_geom_k7_trials():
    res = _run("geom", "k7", "--seed", "1", "--trials", "2")
    assert res.exit_code == 0
    assert res.output.count("parity 1") == 2


def test_geom_k7_coplanar_file_degeneracy(tmp_path):
    pts = [[float(k % 3), float(k // 3), 0.0] for k in range(7)]
    f = tmp_path / "flat.json"
    f.write_text(json.dumps(pts))
    res = _run("geom", "k7", "--points", str(f))
    assert res.exit_code == 4


def test_geom_shrunk_points_give_the_unshrunk_witness(tmp_path):
    # Exact signs: a point file scaled by 1e-3 exits 0 with the same
    # witness as the unscaled file.
    rng = random.Random(7500)
    pts = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(7)]
    for command, n in (("linked-triangles", 6), ("k7", 7)):
        outs = []
        for scale in (1.0, 1e-3):
            f = tmp_path / f"{command}-{scale}.json"
            f.write_text(json.dumps([[scale * x for x in p] for p in pts[:n]]))
            res = _run("geom", command, "--points", str(f), "--format", "json")
            assert res.exit_code == 0, res.output
            outs.append(json.loads(res.output))
        assert outs[0] == outs[1]


def test_geom_k7_non_finite_file_is_a_domain_error(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        pts = [[0.1 * k, 0.2 * k * k, 0.05 * k**3] for k in range(7)]
        pts[3][1] = bad
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(pts))  # written as NaN / Infinity
        res = _run("geom", "k7", "--points", str(f))
        assert res.exit_code == 3, res.output
        assert "point 3 is not finite" in res.output


def test_geom_trials_below_one_are_a_usage_error():
    for command in ("k7", "linked-triangles"):
        res = _run("geom", command, "--trials", "0", "--format", "json")
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Invalid value for '--trials'" in res.output
        assert "Traceback" not in res.output


def test_geom_json_keys(tmp_path):
    res = _run("geom", "k7", "--seed", "2", "--trials", "1", "--format", "json")
    doc = json.loads(res.output)
    assert "witness" in doc and "parity" in doc


def test_catalog_listing():
    res = _run("catalog")
    assert res.exit_code == 0
    assert "trefoil-r" in res.output and "borromean" in res.output


def test_catalog_single_entry_shows_goldens():
    res = _run("catalog", "5_1")
    assert res.exit_code == 0
    assert "conway" in res.output and "[1, 0, 3, 0, 1]" in res.output


def test_catalog_json():
    res = _run("catalog", "whitehead", "--format", "json")
    doc = json.loads(res.output)
    assert doc["name"] == "whitehead"
    assert doc["invariants"]["conway"] == [0, 0, 0, -1]


def _k7_file(tmp_path, pts, raw=None):
    f = tmp_path / "points.json"
    f.write_text(json.dumps(pts) if raw is None else raw)
    return _run("geom", "k7", "--points", str(f))


def _generic_points(n):
    return [[0.1 * k, 0.2 * k * k, 0.05 * k**3] for k in range(n)]


def test_geom_linked_triangles_huge_coordinate_is_a_domain_error(tmp_path):
    f = tmp_path / "points.json"
    f.write_text(json.dumps([[10**400, 0, 0]] + _generic_points(6)[1:]))
    res = _run("geom", "linked-triangles", "--points", str(f))
    assert res.exit_code == 3, res.output
    assert "point 0 has a coordinate too large for a float" in res.output


def test_geom_k7_nine_point_file_is_a_domain_error(tmp_path):
    res = _k7_file(tmp_path, _generic_points(9))
    assert res.exit_code == 3, res.output
    assert "need exactly 7 points" in res.output


def test_geom_linked_triangles_seven_point_file_is_a_domain_error(tmp_path):
    f = tmp_path / "points.json"
    f.write_text(json.dumps(_generic_points(7)))
    res = _run("geom", "linked-triangles", "--points", str(f))
    assert res.exit_code == 3, res.output
    assert "need exactly 6 points" in res.output


def test_geom_k7_planar_points_are_a_domain_error(tmp_path):
    res = _k7_file(tmp_path, [p[:2] for p in _generic_points(7)])
    assert res.exit_code == 3, res.output
    assert "point 0 needs three numeric coordinates" in res.output


def test_geom_k7_four_dimensional_points_are_a_domain_error(tmp_path):
    res = _k7_file(tmp_path, [p + [1.0] for p in _generic_points(7)])
    assert res.exit_code == 3, res.output
    assert "point 0 needs three numeric coordinates" in res.output


def test_geom_k7_non_list_file_is_a_parse_error(tmp_path):
    res = _k7_file(tmp_path, {"points": _generic_points(7)})
    assert res.exit_code == 2, res.output
    assert "no JSON list of points" in res.output


def test_geom_k7_bad_json_is_a_parse_error(tmp_path):
    res = _k7_file(tmp_path, None, raw="[[0, 1, 2], [3, 4")
    assert res.exit_code == 2, res.output
    assert "is not JSON" in res.output


def test_geom_k7_points_file_that_is_not_text_is_a_parse_error(tmp_path):
    f = tmp_path / "points.json"
    f.write_bytes(b"[[0, 1, 2], [\xff\xfe 3, 4, 5]]")
    res = _run("geom", "k7", "--points", str(f))
    assert res.exit_code == 2, res.output
    assert "is not JSON" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", ["k7", "linked-triangles"])
def test_geom_points_directory_is_a_usage_error(tmp_path, command):
    res = _run("geom", command, "--points", str(tmp_path))
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output
    assert not isinstance(res.exception, IsADirectoryError)


def test_geom_points_file_is_closed_after_reading(tmp_path):
    f = tmp_path / "points.json"
    f.write_text(json.dumps(_generic_points(7)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _run("geom", "k7", "--points", str(f))
        gc.collect()
    assert res.exit_code == 0, res.output
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
