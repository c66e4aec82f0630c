"""Command-line interface and document round-trips."""
import csv
import io
import json
import math

import numpy as np
import pytest

import schauderlab.cli as cli
from schauderlab.decomposition import ModelSpace, make_coordinate_family, transport_family, validate_family
from schauderlab.documents import (
    family_from_doc,
    family_to_doc,
    norm_from_doc,
    norm_to_doc,
    parse_norm_spec,
    parse_phi_spec,
    phi_from_doc,
    phi_to_doc,
    render_json,
    scenario_from_doc,
    to_jsonable,
)
from schauderlab.errors import ConvergenceError, DocumentError
from schauderlab.orlicz import NormSpec, OrliczFunction


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def family_file(tmp_path):
    fam = make_coordinate_family(ModelSpace(6, NormSpec.power(2.0)), [2, 2, 2])
    path = tmp_path / "family.json"
    path.write_text(render_json(family_to_doc(fam)))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    fam = make_coordinate_family(ModelSpace(6, NormSpec.power(2.0)), [2, 2, 2])
    doc = {
        "P": family_to_doc(fam),
        "J": {"transport_of_P": {"epsilon": 0.05, "seed": 7}},
        "psi": {"variant": "power", "p": 2},
    }
    path = tmp_path / "scenario.json"
    path.write_text(render_json(doc))
    return str(path)


# ---------------------------------------------------------------------------
# document round-trips


def test_phi_doc_roundtrip():
    for phi in (
        OrliczFunction.power(3.0),
        OrliczFunction.scaled_exp(0.7),
        OrliczFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
    ):
        assert phi_from_doc(phi_to_doc(phi)) == phi


def test_norm_doc_roundtrip():
    for spec in (NormSpec.power(1.5), NormSpec.max_norm(), NormSpec.orlicz(OrliczFunction.scaled_exp(2.0))):
        assert norm_from_doc(norm_to_doc(spec)) == spec


def test_family_doc_roundtrip():
    fam = make_coordinate_family(ModelSpace(5, NormSpec.power(1.0)), [2, 3])
    doc = family_to_doc(fam)
    back = family_from_doc(doc)
    assert back.block_count == 2
    for a, b in zip(back.blocks, fam.blocks):
        np.testing.assert_array_equal(a, b)


def test_family_doc_complex_roundtrip_is_exact():
    space = ModelSpace(4, NormSpec.power(2.0), scalars="complex")
    fam = make_coordinate_family(space, [2, 2])
    rng = np.random.default_rng(33)
    s = np.eye(4) + 0.1 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    moved = transport_family(s, fam)
    assert np.any(moved.blocks.imag != 0)
    back = family_from_doc(json.loads(render_json(family_to_doc(moved))))
    np.testing.assert_array_equal(back.blocks, moved.blocks)
    assert validate_family(back).ok
    # a real family keeps its flat row-major lists
    real = make_coordinate_family(ModelSpace(2, NormSpec.power(2.0)), [1, 1])
    assert family_to_doc(real)["blocks"] == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


def test_family_doc_coordinate_shorthand():
    doc = {"N": 4, "norm": {"variant": "power", "p": 2}, "coordinate_blocks": [2, 2]}
    fam = family_from_doc(doc)
    assert fam.block_count == 2
    np.testing.assert_array_equal(fam.blocks[0], np.diag([1.0, 1.0, 0.0, 0.0]))


def test_parse_phi_spec_forms(tmp_path):
    assert parse_phi_spec("power:2") == OrliczFunction.power(2.0)
    assert parse_phi_spec("exp:1.5") == OrliczFunction.scaled_exp(1.5)
    pwl = parse_phi_spec("pwl:0,0;1,1;2,3")
    assert pwl.knots == ((0.0, 0.0), (1.0, 1.0), (2.0, 3.0))
    path = tmp_path / "phi.json"
    path.write_text(render_json(phi_to_doc(OrliczFunction.power(4.0))))
    assert parse_phi_spec(f"@{path}") == OrliczFunction.power(4.0)


def test_parse_phi_spec_rejects_garbage():
    with pytest.raises(DocumentError):
        parse_phi_spec("cubic:3")
    with pytest.raises(DocumentError):
        parse_phi_spec("power:x")


def test_parse_norm_spec_forms():
    assert parse_norm_spec("power:2") == NormSpec.power(2.0)
    assert parse_norm_spec("max") == NormSpec.max_norm()
    assert parse_norm_spec("orlicz:exp:1") == NormSpec.orlicz(OrliczFunction.scaled_exp(1.0))
    with pytest.raises(DocumentError):
        parse_norm_spec("manhattan")


def test_scenario_doc_with_explicit_j():
    fam = make_coordinate_family(ModelSpace(4, NormSpec.power(2.0)), [2, 2])
    doc = {
        "P": family_to_doc(fam),
        "J": family_to_doc(fam),
        "psi": {"variant": "power", "p": 2},
        "C": 1.5,
    }
    sc = scenario_from_doc(doc)
    assert sc.sup_bound == 1.5
    assert sc.epsilon is None
    np.testing.assert_array_equal(sc.j_family.blocks[0], fam.blocks[0])


def test_scenario_epsilon_override():
    fam = make_coordinate_family(ModelSpace(4, NormSpec.power(2.0)), [2, 2])
    doc = {
        "P": family_to_doc(fam),
        "J": {"transport_of_P": {"epsilon": 0.5, "seed": 3}},
        "psi": {"variant": "power", "p": 2},
    }
    sc = scenario_from_doc(doc, epsilon_override=0.001)
    assert sc.epsilon == 0.001


def test_to_jsonable_handles_special_floats():
    out = to_jsonable({"a": math.inf, "b": math.nan, "c": np.array([1.0, np.inf])})
    assert out["a"] == "inf"
    assert out["b"] == "nan"
    assert out["c"][1] == "inf"
    # and the result really serializes
    json.dumps(out)


def test_to_jsonable_complex():
    out = to_jsonable(np.array([1.0 + 2.0j]))
    assert out == {"real": [1.0], "imag": [2.0]}


# ---------------------------------------------------------------------------
# commands


def test_norm_command_prints_bare_number(capsys):
    rc, out, _ = run_cli(capsys, "norm", "--phi", "power:2", "--x", "3,4")
    assert rc == 0
    assert out.strip() == "5"


def test_norm_command_json_envelope(capsys):
    rc, out, _ = run_cli(capsys, "norm", "--phi", "power:2", "--x", "3,4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "norm"
    assert "generated_at" in doc
    assert doc["result"]["value"] == pytest.approx(5.0)


def test_khintchine_command(capsys):
    rc, out, _ = run_cli(capsys, "khintchine", "--p", "1", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["lower"] == pytest.approx(2.0**-0.5)
    assert res["upper"] == 1.0


def test_delta2_command(capsys):
    rc, out, _ = run_cli(capsys, "delta2", "--phi", "power:2", "--dyadic", "6", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "bounded"
    assert len(res["ratios"]) == 6


def test_rademacher_command(capsys, tmp_path):
    doc = {"norm": {"variant": "power", "p": 2}, "vectors": [[1, 0], [0, 1]]}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "rademacher", "--vectors", f"@{path}", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["mean"] == pytest.approx(math.sqrt(2.0))
    assert res["max"]["trials"] == 4


def test_constants_command_csv(capsys, family_file):
    rc, out, _ = run_cli(capsys, "constants", "--family", f"@{family_file}", "--format", "csv", "--samples", "16")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["constant", "value", "method", "trials", "witness_ref"]
    names = [r[0] for r in rows[1:]]
    assert "riesz" in names and "hilbertian" in names and "besselian" in names
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["riesz"][1]) == 1.0
    assert by_name["riesz"][2] == "spectral-exact"
    assert by_name["riesz"][4].startswith("sha1:")


def test_type_cotype_command(capsys, family_file):
    rc, out, _ = run_cli(
        capsys, "type-cotype", "--family", f"@{family_file}", "--lp", "2", "--samples", "64", "--format", "json"
    )
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["report"]["violations"] == []


def test_opening_angle_command(capsys):
    rc, out, _ = run_cli(capsys, "opening", "--angle", "30", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["theta"] == pytest.approx(0.5, abs=1e-12)


def test_lambda_command(capsys, family_file):
    rc, out, _ = run_cli(capsys, "lambda", "--family", f"@{family_file}", "--format", "json")
    assert rc == 0
    assert json.loads(out)["result"]["value"] == pytest.approx(1.0 / 16.0)


def test_sigma_command(capsys, scenario_file):
    rc, out, _ = run_cli(capsys, "sigma", "--scenario", f"@{scenario_file}", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["estimate"]["method"] == "spectral-exact"
    assert res["estimate"]["value"] > 0


def test_kato_command(capsys, scenario_file):
    rc, out, _ = run_cli(capsys, "kato", "--scenario", f"@{scenario_file}", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "similar"
    assert res["hypothesis_met"] is True


def test_similarity_command_text(capsys, scenario_file):
    rc, out, _ = run_cli(capsys, "similarity", "--scenario", f"@{scenario_file}")
    assert rc == 0
    assert "verdict: similar" in out
    # bulky matrices stay out of the text rendering
    assert "s_matrix" not in out


def test_c0_command(capsys, tmp_path):
    fam = make_coordinate_family(ModelSpace(4, NormSpec.max_norm()), [2, 2])
    doc = {
        "P": family_to_doc(fam),
        "J": {"transport_of_P": {"epsilon": 0.01, "seed": 1}},
        "psi": {"variant": "max"},
        "C": 1.0,
    }
    path = tmp_path / "c0.json"
    path.write_text(render_json(doc))
    rc, out, _ = run_cli(capsys, "c0-check", "--scenario", f"@{path}", "--format", "json")
    assert rc == 0
    assert json.loads(out)["result"]["verdict"] == "similar"


def test_validate_command(capsys, family_file):
    rc, out, _ = run_cli(capsys, "validate", "--family", f"@{family_file}", "--format", "json")
    assert rc == 0
    assert json.loads(out)["result"]["ok"] is True


def test_output_flag_writes_file(tmp_path, capsys, family_file):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "lambda", "--family", f"@{family_file}", "--format", "json", "--output", str(target)
    )
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["value"] == pytest.approx(0.0625)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_p_csv(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--parameter", "p", "--grid", "1:3:5")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "lower", "upper", "crossover", "error"]
    assert len(rows) == 6
    assert float(rows[1][1]) == pytest.approx(2.0**-0.5)
    assert all(r[4] == "" for r in rows[1:])


def test_sweep_error_row(capsys):
    # a failing grid point gives a row with its error; the sweep goes on
    rc, out, _ = run_cli(capsys, "sweep", "--parameter", "p", "--grid=-1,2")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[1][:4] == ["-1.0", "", "", ""]
    assert "p must be positive" in rows[1][4]
    assert rows[2][:3] == ["2.0", "1.0", "1.0"]
    assert float(rows[2][3]) == pytest.approx(1.8474163360806413, rel=1e-9)
    assert rows[2][4] == ""


def test_sweep_angle_csv(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--parameter", "angle", "--grid", "10,30,60")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        angle = float(row[0])
        assert float(row[1]) == pytest.approx(math.sin(math.radians(angle)), abs=1e-6)


def test_sweep_epsilon_csv(capsys, scenario_file):
    rc, out, _ = run_cli(
        capsys, "sweep", "--parameter", "epsilon", "--grid", "0.001,0.01,0.05",
        "--scenario", f"@{scenario_file}",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "epsilon"
    verdict_col = rows[0].index("verdict")
    assert [r[verdict_col] for r in rows[1:]] == ["similar"] * 3
    sigma_col = rows[0].index("sigma")
    sigmas = [float(r[sigma_col]) for r in rows[1:]]
    assert sigmas == sorted(sigmas)  # growing epsilon, growing sigma


def test_sweep_epsilon_requires_scenario(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--parameter", "epsilon", "--grid", "0.1")
    assert rc == 2
    assert "scenario" in err


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_exit_code_2_on_bad_gauge(capsys):
    rc, _, err = run_cli(capsys, "norm", "--phi", "cubic:3", "--x", "1,2")
    assert rc == 2
    assert "error" in err


def test_exit_code_2_on_bad_document(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"N": 4}')
    rc, _, err = run_cli(capsys, "lambda", "--family", f"@{path}")
    assert rc == 2


def test_exit_code_3_on_numerical_failure(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("bracket failed")

    monkeypatch.setattr(cli, "luxemburg_norm", explode)
    rc, _, err = run_cli(capsys, "norm", "--phi", "power:2", "--x", "1,2")
    assert rc == 3
    assert "numerical failure" in err


def test_json_replay_is_deterministic(capsys, scenario_file):
    def stripped(text):
        doc = json.loads(text)
        doc.pop("generated_at")
        return json.dumps(doc, sort_keys=True)

    _, first, _ = run_cli(capsys, "similarity", "--scenario", f"@{scenario_file}", "--format", "json")
    _, second, _ = run_cli(capsys, "similarity", "--scenario", f"@{scenario_file}", "--format", "json")
    assert stripped(first) == stripped(second)


def test_csv_floats_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--parameter", "p", "--grid", "1.84742,2.0")
    rows = list(csv.reader(io.StringIO(out)))
    # repr round-trip: reading the text back gives the exact float
    from schauderlab.geometry import khintchine_constants

    val = float(rows[1][1])
    assert val == khintchine_constants(1.84742).lower
