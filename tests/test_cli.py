"""Command-line interface and document round-trips."""
import csv
import hashlib
import io
import json
import math
import re

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
    perturbation_transport,
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


@pytest.mark.parametrize("blocks", [5, "1,0,0,1", {"real": [1, 0, 0, 1]}, None])
def test_family_doc_refuses_blocks_that_are_not_a_list(blocks):
    doc = {"N": 2, "norm": {"variant": "power", "p": 2}, "blocks": blocks}
    with pytest.raises(DocumentError, match="'blocks' must be a list"):
        family_from_doc(doc)


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


def exact(value):
    """Nested value with every leaf's type spelled out, so 1 == 1.0 == True differ."""
    if isinstance(value, list):
        return [exact(v) for v in value]
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    return (type(value), value)


@pytest.mark.parametrize(
    "array, expected",
    [
        (np.array([[1.5, -0.0], [2.0, 1e-300]]), [[1.5, -0.0], [2.0, 1e-300]]),
        (np.array([1.25, 2.5], dtype=np.float32), [1.25, 2.5]),
        (np.array([3, -4], dtype=np.int64), [3, -4]),
        (np.array([7], dtype=np.uint8), [7]),
        (np.array([True, False]), [True, False]),
        (np.array(2.5), 2.5),
        (np.array(3), 3),
        (np.array(True), True),
        (np.zeros((0, 2)), []),
    ],
)
def test_to_jsonable_real_arrays(array, expected):
    assert exact(to_jsonable(array)) == exact(expected)
    assert exact(to_jsonable({"a": array})) == exact({"a": expected})


def test_to_jsonable_non_finite_and_complex_arrays_keep_their_forms():
    assert to_jsonable(np.array([1.0, np.nan, -np.inf])) == [1.0, "nan", "-inf"]
    assert to_jsonable(np.array([[np.inf]], dtype=np.float32)) == [["inf"]]
    assert to_jsonable(np.array(np.nan)) == "nan"
    out = to_jsonable(np.array([[1.0 + 2.0j, np.nan - 1.0j]]))
    assert out == {"real": [[1.0, "nan"]], "imag": [[2.0, -1.0]]}
    assert to_jsonable(np.array(0.5j)) == {"real": 0.0, "imag": 0.5}


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


def test_rademacher_command_survives_huge_vectors(capsys, tmp_path):
    # the squared l3 norms overflow; the quadratic mean scales with the vectors
    vectors = np.random.default_rng(44).standard_normal((5, 6))
    means = []
    for scale in (1.0, 1e160):
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps({"norm": {"variant": "power", "p": 3}, "vectors": (vectors * scale).tolist()}))
        rc, out, _ = run_cli(capsys, "rademacher", "--vectors", f"@{path}", "--format", "json")
        assert rc == 0
        means.append(json.loads(out)["result"]["quadratic_mean"])
    assert means[1] == pytest.approx(1e160 * means[0], rel=1e-14)


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


def test_unwritable_output_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "absent" / "x.txt"
    rc, out, err = run_cli(capsys, "khintchine", "--p", "1.5", "--output", str(target))
    assert rc == 2
    assert err.startswith("error: cannot write")
    assert "x.txt" in err
    assert out == ""


def test_sigma_refuses_zero_samples(capsys, tmp_path):
    # l3 has no euclidean shortcut: at zero samples no candidate exists
    fam = make_coordinate_family(ModelSpace(4, NormSpec.power(3.0)), [2, 2])
    doc = {"P": family_to_doc(fam), "J": {"transport_of_P": {"epsilon": 0.05, "seed": 1}}, "psi": {"variant": "max"}}
    path = tmp_path / "l3.json"
    path.write_text(render_json(doc))
    for samples in ("0", "-3"):
        rc, out, err = run_cli(capsys, "sigma", "--scenario", f"@{path}", "--samples", samples)
        assert rc == 2
        assert err.startswith("error: samples must be >= 1")
        assert out == ""


# the least arguments each command parses with; documents are not read
PARSE_ARGS = {
    "norm": ["--phi", "power:2", "--x", "3,4"],
    "delta2": ["--phi", "power:2", "--dyadic", "4"],
    "khintchine": ["--p", "1.5"],
    "rademacher": ["--vectors", "@v.json"],
    "constants": ["--family", "@f.json"],
    "type-cotype": ["--family", "@f.json", "--lp", "2"],
    "opening": ["--angle", "30"],
    "lambda": ["--family", "@f.json"],
    "sigma": ["--scenario", "@s.json"],
    "kato": ["--scenario", "@s.json"],
    "similarity": ["--scenario", "@s.json"],
    "c0-check": ["--scenario", "@s.json"],
    "validate": ["--family", "@f.json"],
    "sweep": ["--parameter", "p", "--grid", "1,2"],
}
SAMPLING_COMMANDS = {"constants", "type-cotype", "opening", "sigma", "similarity", "c0-check", "sweep"}


@pytest.mark.parametrize("command", sorted(PARSE_ARGS))
def test_only_sampling_commands_take_samples_and_seed(capsys, command):
    argv = [command, *PARSE_ARGS[command], "--samples", "8", "--seed", "1"]
    if command in SAMPLING_COMMANDS:
        args = cli.build_parser().parse_args(argv)
        assert (args.samples, args.seed) == (8, 1)
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 8 --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(PARSE_ARGS))
def test_only_constants_has_a_csv_form(capsys, command):
    argv = [command, *PARSE_ARGS[command], "--format", "csv"]
    if command == "constants":
        assert cli.build_parser().parse_args(argv).format == "csv"
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    # sweep has no --format and writes CSV
    assert cli.build_parser().parse_args(argv[:-2]).format == ("csv" if command == "sweep" else "text")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--family"],
        ["kato", "--scenario"],
        ["rademacher", "--vectors"],
        ["opening", "--pair"],
    ],
)
def test_exit_code_2_on_missing_document_file(capsys, tmp_path, argv):
    rc, out, err = run_cli(capsys, *argv, f"@{tmp_path / 'absent.json'}")
    assert rc == 2
    assert err.startswith("error:")
    assert "absent.json" in err
    assert out == ""


@pytest.mark.parametrize("content", [None, "{not json"])
def test_exit_code_2_on_unreadable_psi_file(capsys, tmp_path, family_file, content):
    # --psi @file goes through the same document loader as --family
    path = tmp_path / "psi.json"
    if content is not None:
        path.write_text(content)
    rc, out, err = run_cli(capsys, "constants", "--family", f"@{family_file}", "--psi", f"@{path}")
    assert rc == 2
    assert err.startswith("error:")
    assert "psi.json" in err
    assert out == ""


def test_parser_is_built_once_and_helps_like_a_fresh_one(capsys):
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    for argv in (["--help"], ["constants", "--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert capsys.readouterr().out == shown


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


# ---------------------------------------------------------------------------
# output bytes

# SHA-256 of each command's output on the scenario below, recorded before
# the reports were serialised in one pass; "generated_at" is blanked.
OUTPUT_DIGESTS = {
    ("kato", "json"): "fb4f69d9807374cf340c3f3f9f3d5bc491ddd0cf96875c15a1dd45bb789841c1",
    ("kato", "text"): "4faca6c603021e1c1414eefe606589b47a186e0cad631b98d9aff992efdb2642",
    ("similarity", "json"): "d6a835ff91d23c3689cb8ae63f08adf41545c1d6a03bbda129916776815f1c8b",
    ("similarity", "text"): "4faca6c603021e1c1414eefe606589b47a186e0cad631b98d9aff992efdb2642",
    ("validate", "json"): "a2bd51346c1ab283889c9027b31d6067e825cb4f1e138907caca80812a74e3e9",
    ("validate", "text"): "a7e6cc521324ee23206a7e998b547dbb5f5d4285a6b40fd8a472ac46bcecf953",
    ("lambda", "json"): "a13febaf71bd9ea9d439eecfac9553786e8af032092bf6ef6fb253773a52862d",
    ("lambda", "text"): "664b27c451b5f8a1ce38e0f188c3052656749f5cbeb1615413bdc67d22b7d489",
    # recorded while constants still ran the unit-disc-grid enumeration
    ("constants", "json"): "e3053b06bd6ad148ea47291f9c505c19662282d0a3a16e67e3c2b0e497df70d0",
    ("constants", "text"): "e38267d5e960d2efeebbfd9a99fd58c68580ebb755ff401c5b8f7dbbbdb4ebde",
    ("constants", "csv"): "a5aab38724cd6025f95443380332418bfd60dcfc3da3994091a5572b7bf0875a",
}


@pytest.fixture(scope="module")
def digest_documents(tmp_path_factory):
    # N=8, K=4 coordinate blocks, transported with epsilon 0.05 and seed 11
    base = tmp_path_factory.mktemp("digests")
    p = make_coordinate_family(ModelSpace(8, NormSpec.power(2.0)), [2, 2, 2, 2])
    scenario = {
        "P": family_to_doc(p),
        "J": {"transport_of_P": {"epsilon": 0.05, "seed": 11}},
        "psi": {"variant": "power", "p": 2},
    }
    (base / "scenario.json").write_text(render_json(scenario))
    (base / "family.json").write_text(render_json(family_to_doc(perturbation_transport(p, 0.05, 11))))
    return {"--scenario": f"@{base / 'scenario.json'}", "--family": f"@{base / 'family.json'}"}


@pytest.mark.parametrize("command, fmt", sorted(OUTPUT_DIGESTS))
def test_output_bytes_are_unchanged(capsys, digest_documents, command, fmt):
    flag = "--family" if command in ("validate", "lambda", "constants") else "--scenario"
    rc, out, _ = run_cli(capsys, command, flag, digest_documents[flag], "--format", fmt)
    assert rc == 0
    blanked = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out)
    assert hashlib.sha256(blanked.encode()).hexdigest() == OUTPUT_DIGESTS[command, fmt]


def test_constants_enumerates_the_sign_patterns_once(capsys, monkeypatch, digest_documents):
    modes = []
    original = cli.geometry.unconditional_constant

    def counting(family, mode, *args):
        modes.append(mode)
        return original(family, mode, *args)

    monkeypatch.setattr(cli.geometry, "unconditional_constant", counting)
    rc, out, _ = run_cli(capsys, "constants", "--family", digest_documents["--family"], "--format", "json")
    assert rc == 0
    assert modes == ["zero-one", "signs"]
    rows = {row["constant"]: row for row in json.loads(out)["result"]["constants"]}
    grid = dict(rows["unconditional-unit-disc-grid"], constant="unconditional-signs")
    assert grid == rows["unconditional-signs"]
