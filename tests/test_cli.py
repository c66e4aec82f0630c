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
from schauderlab.stability import nearest_in_span


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


def test_integer_fields_take_whole_floats():
    # JSON may write 4 as 4.0; only a fractional part is refused
    doc = {"N": 4.0, "norm": {"variant": "power", "p": 2}, "coordinate_blocks": [2.0, 2]}
    fam = family_from_doc(doc)
    assert fam.dim == 4 and type(fam.dim) is int
    np.testing.assert_array_equal(fam.blocks, family_from_doc({**doc, "N": 4, "coordinate_blocks": [2, 2]}).blocks)
    sc = scenario_from_doc({"P": doc, "J": {"transport_of_P": {"epsilon": 0.1, "seed": 3.0}}, "psi": doc["norm"]})
    np.testing.assert_array_equal(sc.j_family.blocks, perturbation_transport(fam, 0.1, 3).blocks)


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
    np.testing.assert_array_equal(sc.j_family.blocks[0], fam.blocks[0])


def test_scenario_epsilon_override():
    fam = make_coordinate_family(ModelSpace(4, NormSpec.power(2.0)), [2, 2])
    doc = {
        "P": family_to_doc(fam),
        "J": {"transport_of_P": {"epsilon": 0.5, "seed": 3}},
        "psi": {"variant": "power", "p": 2},
    }
    sc = scenario_from_doc(doc, epsilon_override=0.001)
    np.testing.assert_array_equal(sc.j_family.blocks, perturbation_transport(fam, 0.001, 3).blocks)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_non_finite_epsilon_is_refused_before_any_transport(epsilon):
    fam = make_coordinate_family(ModelSpace(4, NormSpec.power(2.0)), [2, 2])
    with pytest.raises(ValueError, match="epsilon must be finite") as info:
        perturbation_transport(fam, epsilon, 0)
    assert not isinstance(info.value, DocumentError)
    # an override is no part of the document: its refusal stays a ValueError
    doc = {"P": family_to_doc(fam), "J": {"transport_of_P": {"epsilon": 0.5}}, "psi": {"variant": "power", "p": 2}}
    with pytest.raises(ValueError, match="epsilon must be finite") as info:
        scenario_from_doc(doc, epsilon_override=epsilon)
    assert not isinstance(info.value, DocumentError)
    doc["J"]["transport_of_P"]["epsilon"] = epsilon
    with pytest.raises(DocumentError, match="bad transport specification: epsilon must be finite"):
        scenario_from_doc(doc)


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


@pytest.mark.parametrize("degrees", [20.0, 35.0, 80.0])
def test_opening_pair_command_in_l2_is_the_sine_of_the_angle(capsys, degrees):
    t = math.radians(degrees)
    pair = {"ambient": {"N": 3, "norm": {"variant": "power", "p": 2}},
            "A": [[1, 0, 0]], "B": [[math.cos(t), math.sin(t), 0]]}
    rc, out, _ = run_cli(capsys, "opening", "--pair", json.dumps(pair), "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["method"] == "spectral-exact"
    assert res["theta"] == pytest.approx(math.sin(t), rel=1e-12)


def test_opening_pair_command_in_linf_replays_its_witnesses(capsys):
    rng = np.random.default_rng(61)
    a_rows, b_rows = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
    pair = {"ambient": {"N": 5, "norm": {"variant": "max"}}, "A": a_rows.tolist(), "B": b_rows.tolist()}
    rc, out, _ = run_cli(capsys, "opening", "--pair", json.dumps(pair), "--samples", "16", "--format", "json")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["method"] == "sampled-lower-bound"
    assert res["theta"] == max(res["direction_ab"], res["direction_ba"]) > 0
    for witness, target, value in (
        (res["witness_ab"], b_rows, res["direction_ab"]),
        (res["witness_ba"], a_rows, res["direction_ba"]),
    ):
        x = np.array(witness["x"])
        assert np.abs(x).max() == pytest.approx(1.0, rel=1e-12)
        assert nearest_in_span(x, target.T, NormSpec.max_norm())[0] == pytest.approx(value, rel=1e-8)
        assert np.abs(x - np.array(witness["nearest"])).max() == pytest.approx(value, rel=1e-8)


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


def test_c0_check_takes_no_C_flag(capsys):
    # C comes from the scenario only; the flag is refused at parse time
    with pytest.raises(SystemExit) as exc:
        cli.main(["c0-check", "--scenario", "@s.json", "--C", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --C 1" in capsys.readouterr().err


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


def test_sweep_angle_records_a_non_finite_angle_in_its_row(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--parameter", "angle", "--grid", "30,nan,60")
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["30.0", "nan", "60.0"]
    assert rows[2][1:] == ["", "", "", "", "bad angle nan: the angle must be finite"]
    assert rows[1][-1] == rows[3][-1] == ""


def test_sweep_epsilon_records_a_non_finite_epsilon_in_its_row(capsys, scenario_file):
    rc, out, err = run_cli(
        capsys, "sweep", "--parameter", "epsilon", "--grid", "inf,0.01,nan", "--scenario", f"@{scenario_file}"
    )
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["inf", "0.01", "nan"]
    assert rows[1][1:] == [""] * 9 + ["epsilon must be finite, got inf"]
    assert rows[3][-1] == "epsilon must be finite, got nan"
    assert rows[2][-2:] == ["similar", ""]


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


L2_DOC = {"variant": "power", "p": 2}


def edited(doc: dict, **fields) -> dict:
    """``doc`` with ``fields`` changed; a field set to ... is dropped."""
    return {k: v for k, v in {**doc, **fields}.items() if v is not ...}


def family(**fields) -> dict:
    return edited({"N": 4, "norm": L2_DOC, "coordinate_blocks": [2, 2]}, **fields)


def scenario(**fields) -> dict:
    return edited({"P": family(), "J": {"transport_of_P": {"epsilon": 0.05, "seed": 1}}, "psi": L2_DOC}, **fields)


def pair(**fields) -> dict:
    return edited({"ambient": {"N": 2, "norm": L2_DOC}, "A": [[1, 0]], "B": [[0, 1]]}, **fields)


def validate(doc: dict) -> list[str]:
    return ["validate", "--family", json.dumps(doc)]


def square_blocks(*blocks) -> list[str]:
    return validate(family(N=2, coordinate_blocks=..., blocks=list(blocks)))


def kato(doc: dict) -> list[str]:
    return ["kato", "--scenario", json.dumps(doc)]


def sweep(doc: dict) -> list[str]:
    return ["sweep", "--parameter", "epsilon", "--grid", "0.01,0.02", "--scenario", json.dumps(doc)]


def opening(doc: dict) -> list[str]:
    return ["opening", "--pair", json.dumps(doc)]


def rademacher(doc) -> list[str]:
    return ["rademacher", "--vectors", json.dumps(doc)]


def constants(psi: str) -> list[str]:
    return ["constants", "--family", json.dumps(family()), "--psi", psi]


def orlicz(phi) -> dict:
    return family(norm={"variant": "orlicz", "phi": phi})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("norm", ["power:3", "power:2", "max", "exp:1"])
def test_rademacher_refuses_non_finite_vectors(capsys, norm, bad):
    # exit 2 with one line naming the vector, instead of exact-enumeration
    # tags on min = inf and max = -inf (closed forms) or a solver error
    # that names no vector (exp:1)
    docs = {"power:3": {"variant": "power", "p": 3}, "power:2": {"variant": "power", "p": 2},
            "max": {"variant": "max"}, "exp:1": {"variant": "orlicz", "phi": {"kind": "exp", "alpha": 1}}}
    rc, out, err = run_cli(capsys, *rademacher({"vectors": [[1, bad], [0.5, 2]], "norm": docs[norm]}),
                           "--format", "json")
    assert rc == 2
    assert err == "error: vector 0 has a non-finite entry\n"
    assert out == ""


# argv, and the text the message must hold: it names the document or spec
MALFORMED = {
    "gauge-document-missing": (validate(orlicz({"kind": "exp"})), "gauge document is missing 'alpha'"),
    "gauge-document-value": (validate(orlicz({"kind": "power", "p": "x"})), "bad gauge document"),
    "gauge-document-kind": (validate(orlicz([1])), "gauge document needs a 'kind' field"),
    "norm-document-missing": (validate(family(norm={"variant": "power"})), "norm document is missing 'p'"),
    "norm-document-value": (validate(family(norm={"variant": "power", "p": None})), "bad norm document"),
    "family-N-null": (validate(family(N=None)), "bad family document"),
    "family-N-list": (validate(family(N=[4])), "bad family document"),
    "family-N-zero": (validate(family(N=0)), "bad family document"),
    "family-N-fraction": (validate(family(N=4.7)), "bad family document: N must be an integer, got 4.7"),
    "family-N-string": (validate(family(N="4")), "bad family document: N must be an integer, got '4'"),
    "family-N-bool": (validate(family(N=True)), "bad family document: N must be an integer"),
    "coordinate-block-fraction": (validate(family(N=5, coordinate_blocks=[2, 2.9])),
                                  "bad coordinate blocks: a block size must be an integer, got 2.9"),
    "coordinate-block-string": (validate(family(coordinate_blocks=[2, "2"])), "bad coordinate blocks"),
    "coordinate-blocks-string": (validate(family(coordinate_blocks="22")), "bad coordinate blocks"),
    "family-missing-norm": (validate(family(norm=...)), "family document is missing 'norm'"),
    "family-not-an-object": (["lambda", "--family", "[4]"], "family document must be an object"),
    "coordinate-blocks": (validate(family(coordinate_blocks=[3, 3])), "bad coordinate blocks"),
    "complex-block": (square_blocks({"real": [1, 0, 0, 1]}), "block 0 is missing 'imag'"),
    "block-entry": (square_blocks(["a", 0, 0, 1]), "bad block 0"),
    "block-entry-type": (square_blocks([{}, 0, 0, 1]), "bad block 0"),
    "family-blocks": (square_blocks([0, 0, 0, 0]), "bad family blocks"),
    "scenario-missing": (kato(scenario(psi=...)), "scenario document is missing 'psi'"),
    "scenario-P-N-null": (kato(scenario(P=family(N=None))), "bad family document"),
    "scenario-J-N-list": (kato(scenario(J=family(N=[4]))), "bad family document"),
    "transport-missing": (kato(scenario(J={"transport_of_P": {"seed": 1}})),
                          "transport specification is missing 'epsilon'"),
    "transport-value": (kato(scenario(J={"transport_of_P": {"epsilon": "x"}})), "bad transport specification"),
    "transport-epsilon-nan": (kato(scenario(J={"transport_of_P": {"epsilon": math.nan, "seed": 1}})),
                              "bad transport specification: epsilon must be finite, got nan"),
    "transport-epsilon-inf": (kato(scenario(J={"transport_of_P": {"epsilon": -math.inf}})),
                              "bad transport specification: epsilon must be finite, got -inf"),
    "transport-not-an-object": (kato(scenario(J={"transport_of_P": [1]})),
                                "transport specification must be an object"),
    "transport-seed": (kato(scenario(J={"transport_of_P": {"epsilon": 0.1, "seed": -1}})),
                       "bad transport specification"),
    "transport-seed-fraction": (kato(scenario(J={"transport_of_P": {"epsilon": 0.1, "seed": 1.5}})),
                                "bad transport specification: seed must be an integer, got 1.5"),
    "transport-seed-string": (kato(scenario(J={"transport_of_P": {"epsilon": 0.1, "seed": "1"}})),
                              "bad transport specification"),
    "C": (["c0-check", "--scenario", json.dumps(scenario(C="big"))], "bad C value"),
    "sweep-N-null": (sweep(scenario(P=family(N=None))), "bad family document"),
    "sweep-N-list": (sweep(scenario(P=family(N=[4]))), "bad family document"),
    "sweep-transport": (sweep(scenario(J={"transport_of_P": [1]})), "transport specification must be an object"),
    "sweep-scenario-missing": (sweep(scenario(psi=...)), "scenario document is missing 'psi'"),
    "subspace-document-missing": (opening(pair(B=...)), "subspace document is missing 'B'"),
    "subspace-document-N-null": (opening(pair(ambient={"N": None, "norm": L2_DOC})), "bad subspace document"),
    "subspace-document-N-fraction": (opening(pair(ambient={"N": 2.5, "norm": L2_DOC})),
                                     "bad subspace document: N must be an integer, got 2.5"),
    "angle-inf": (["opening", "--angle", "inf"], "bad angle inf: the angle must be finite"),
    "angle-nan": (["opening", "--angle", "nan"], "bad angle nan"),
    "subspace-document-entry": (opening(pair(A=[["a", 0]])), "bad subspace document"),
    "subspace-basis-shape": (opening(pair(A=[[1, 0, 0]])), "bad subspace basis"),
    "subspace-basis-wide": (opening(pair(A=[[1, 0], [0, 1], [1, 1]])), "bad subspace basis"),
    "vectors-document-missing": (rademacher({"norm": L2_DOC}), "vectors document is missing 'vectors'"),
    "vectors-document-norm": (rademacher({"vectors": [[1, 0]]}), "vectors document needs a 'norm' field"),
    "vectors-document-value": (rademacher({"norm": L2_DOC, "vectors": [["a"]]}), "bad vectors document"),
    "vectors-document-type": (rademacher(5), "bad vectors document"),
    "x": (["norm", "--phi", "power:2", "--x", "1,a"], "bad vector '1,a'"),
    "delta2-grid": (["delta2", "--phi", "power:2", "--grid", "0.5,b"], "bad vector '0.5,b'"),
    "grid-parts": (["sweep", "--parameter", "p", "--grid", "1:2"], "grid '1:2' must be start:stop:count"),
    "grid-count": (["sweep", "--parameter", "p", "--grid", "1:2:x"], "bad grid '1:2:x'"),
    "grid-list": (["sweep", "--parameter", "p", "--grid", "1,a"], "bad vector '1,a'"),
    "gauge-spec": (["norm", "--phi", "power:x", "--x", "1"], "bad gauge spec 'power:x'"),
    "gauge-spec-nan-value": (["norm", "--phi", "pwl:0,0;1,nan;2,3", "--x", "1,2"],
                             "bad gauge spec 'pwl:0,0;1,nan;2,3': knots must be finite"),
    "gauge-spec-nan-abscissa": (["norm", "--phi", "pwl:0,0;nan,1;2,3", "--x", "1,2"], "knots must be finite"),
    "gauge-document-inf-knot": (validate(orlicz({"kind": "pwl", "knots": [[0, 0], [1, 1], [math.inf, 2]]})),
                                "bad gauge document: knots must be finite"),
    "delta2-grid-nan": (["delta2", "--phi", "power:2", "--grid", "0.5,nan,0.1"],
                        "grid must be strictly decreasing and positive"),
    "delta2-grid-inf": (["delta2", "--phi", "power:2", "--grid", "inf,0.5"], "with finite points"),
    "gauge-spec-overflowing-slope": (["norm", "--phi", "pwl:0,0;1e-320,1;1,3", "--x", "1,2"],
                                     "bad gauge spec 'pwl:0,0;1e-320,1;1,3': knot slopes must be finite"),
    "c0-check-without-C": (["c0-check", "--scenario", json.dumps(scenario())], "c0-check needs C in the scenario"),
    # the pair rule: an explicit J lives in P's space and has P's block count
    "scenario-J-other-norm": (kato(scenario(J=family(norm={"variant": "max"}))),
                              "bad scenario document: P and J live in different spaces"),
    "scenario-J-complex": (["similarity", "--scenario", json.dumps(scenario(J=family(scalars="complex")))],
                           "bad scenario document: P and J live in different spaces"),
    "scenario-J-blocks": (["sigma", "--scenario", json.dumps(scenario(J=family(coordinate_blocks=[1, 1, 2])))],
                          "bad scenario document: P has 2 blocks but J has 3"),
    "sweep-J-other-norm": (sweep(scenario(J=family(norm={"variant": "max"}))),
                           "bad scenario document: P and J live in different spaces"),
    # kato runs the l2 aggregate and c0-check the sup aggregate, whatever the scenario says
    "kato-psi-max": (kato(scenario(psi={"variant": "max"})),
                     'kato needs psi = power:2 in the scenario, got {"variant": "max"}'),
    "c0-check-psi-l2": (["c0-check", "--scenario", json.dumps(scenario(P=family(norm={"variant": "max"}), C=1.0))],
                        'c0-check needs psi = max in the scenario, got {"variant": "power", "p": 2.0}'),
    "type-cotype-unconditional-nan": (["type-cotype", "--family", json.dumps(family()), "--lp", "3",
                                       "--unconditional", "nan"], "unconditional constant is never below 1, got nan"),
    "type-cotype-lower-nan": (["type-cotype", "--family", json.dumps(family()), "--psi", "power:2", "--lower", "nan",
                               "--phi", "power:2", "--upper", "2"], "the sandwich constants must not be NaN"),
    "type-cotype-upper-nan": (["type-cotype", "--family", json.dumps(family()), "--psi", "power:2", "--lower", "1",
                               "--phi", "power:2", "--upper", "nan"], "the sandwich constants must not be NaN"),
    "gauge-spec-unknown": (["norm", "--phi", "cubic:3", "--x", "1"], "unknown gauge spec 'cubic:3'"),
    "norm-spec": (constants("power:x"), "bad norm spec 'power:x'"),
    "norm-spec-unknown": (constants("manhattan"), "unknown norm spec 'manhattan'"),
    "norm-spec-gauge": (constants("orlicz:exp:x"), "bad gauge spec 'exp:x'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_and_names_the_document(capsys, case):
    argv, named = MALFORMED[case]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err
    assert out == ""


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


@pytest.mark.parametrize("norm", ['{"variant": "power", "p": 3}', '{"variant": "orlicz", "phi": {"kind": "exp", "alpha": 1}}'])
def test_constants_without_an_unconditional_ratio_exit_3(capsys, norm):
    # the blocks sum to 0, so no sampled vector gives the unconditional
    # constant a denominator: a numerical failure, not a value of -inf
    block = [1.0] + [0.0] * 15
    family = f'{{"N": 4, "norm": {norm}, "blocks": [{block}, {[-v for v in block]}]}}'
    rc, out, err = run_cli(capsys, "constants", "--family", family, "--samples", "4", "--format", "csv")
    assert rc == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_exit_code_3_on_linalg_error(capsys, monkeypatch):
    # LinAlgError is a ValueError; it is still a numerical failure, not an input error
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli.stability, "opening", explode)
    rc, out, err = run_cli(capsys, "opening", "--angle", "30")
    assert rc == 3
    assert err == "numerical failure: SVD did not converge\n" and out == ""


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
    # the besselian row holds 1/sqrt(lambda_max) = 0.8771571583501155; every
    # other row is as recorded while constants ran the unit-disc-grid enumeration
    ("constants", "json"): "359ad96be33bb3fd7c68d053cab996624ffdadf1da42db5d9194c80b9cfbddd8",
    ("constants", "text"): "94b05a8fb9fd29a619c7769b95f9f320434d62bff27858481a4876b21b462c70",
    ("constants", "csv"): "78e29e5e0e50230c4856f7de2250873ab2a91d763c85b9ac6f4b287f0242c539",
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
