import hashlib
import json
import warnings

import numpy as np
import pytest

import cli_corpus
from dflab import jsonio
from dflab.bell import Behavior
from dflab.cli import main
from dflab.core import DecoherenceFunctional, make_space
from dflab.lemma1 import lemma1_df, lemma1_epsilon, lemma1_space
from dflab.maximality import random_weakly_positive_nonsp
from dflab.quantum import behavior_table, quantum_df, random_tensor_model

EPS1 = lemma1_epsilon(2.0, 1)


def write_df(path, D):
    jsonio.save_df(D, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_classical_ok(tmp_path, capsys):
    space = make_space(["0", "1"])
    path = write_df(tmp_path / "c.json", DecoherenceFunctional(space, np.diag([0.5, 0.5])))
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 0
    assert "weak positivity: pass" in out


def test_validate_family_with_oversized_eps_fails_with_witness(tmp_path, capsys):
    # eps beyond 1/(1+lam) breaks binary positivity on the second block
    lam, eps = 2.0, 0.4
    A = np.array([[1.0, lam], [lam, 1.0]])
    matrix = 0.5 * np.kron(eps * A, np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.eye(2) - eps * A, np.diag([0.0, 1.0])
    )
    path = write_df(tmp_path / "bad.json", DecoherenceFunctional(lemma1_space(), matrix))
    code, out, _ = run(capsys, ["validate", "--input", path])
    assert code == 1
    assert "witness indices [1, 3]" in out
    assert "-0.2" in out


def test_validate_overflowing_matrix_is_input_error(tmp_path, capsys):
    # 2·Σ|S| overflows, so no scan verdict is sound; it used to print a pass,
    # and then numpy's overflow warning before the error line
    path = tmp_path / "big.json"
    entries = [[1, 0], [-1.7e308, 0], [-1.7e308, 0], [1, 0]]
    path.write_text(json.dumps({"dim": 2, "labels": ["a", "b"], "entries": entries}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["validate", "--input", str(path), "--json"])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err == "error: no rounding bound holds: 2 * sum |S| is not finite\n"


def test_maximality_pnn_overflowing_matrix_is_input_error(tmp_path, capsys):
    # the pnn pass formed the cube of an S with infinite entries, and numpy
    # warned of the overflow and the NaN forms before the error line
    path = tmp_path / "big.json"
    entries = [[1, 0], [-1.7e308, 0], [-1.7e308, 0], [1, 0]]
    path.write_text(json.dumps({"dim": 2, "labels": ["a", "b"], "entries": entries}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["maximality", "--input", str(path), "--pnn"])
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (2, "")
    assert err == "error: no rounding bound holds: 2 * sum |S| is not finite\n"


def test_validate_truncated_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "labels": ["a", "b"], "entries": [[1, 0]')
    code, _, err = run(capsys, ["validate", "--input", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "entries",
    [[[1, 0, 0]], [["x", "0"]], [[None, 0]], [1.0], [[1, 0], [0]], 5, "ab",
     ["10"], [[True, False]], [[1, "0"]]],
)
def test_validate_malformed_entries_is_input_error(tmp_path, capsys, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "labels": ["a"], "entries": entries}))
    code, _, err = run(capsys, ["validate", "--input", str(path)])
    assert code == 2
    assert err.startswith("error: ")


def test_gen_quantum_malformed_model_entries_is_input_error(tmp_path, capsys):
    model = random_tensor_model(np.random.default_rng(0), 2, 2)
    data = jsonio.model_to_dict(model)
    data["alice"][0][1] = data["alice"][0][1].tolist()
    data["alice"][0][1][3] = [0.0, 1.0, 2.0]
    model_path = tmp_path / "model.json"
    model_path.write_text(jsonio.dump_json(data))
    code, _, err = run(
        capsys, ["gen", "quantum", "--model", str(model_path), "--out", str(tmp_path / "q.json")]
    )
    assert code == 2
    assert err.startswith("error: ")


def test_validate_json_output_roundtrips(tmp_path, capsys):
    path = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code, out, _ = run(capsys, ["validate", "--input", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["weakPositivity"]["verdict"] == "pass"
    assert payload["report"]["strongPositivity"]["isSP"] is False
    assert payload["tolerances"]["pos"] == 1e-10


def test_compose_two_classical_files(tmp_path, capsys):
    space = make_space(["0", "1"])
    a = write_df(tmp_path / "a.json", DecoherenceFunctional(space, np.diag([0.5, 0.5])))
    out_path = tmp_path / "ab.json"
    code, _, _ = run(
        capsys, ["compose", "--a", a, "--b", a, "--out", str(out_path)]
    )
    assert code == 0
    loaded = jsonio.load_df(out_path)
    assert loaded.dim == 4
    assert np.allclose(loaded.matrix, np.diag([0.25] * 4))


def test_compose_power_check_detects_failure(tmp_path, capsys):
    path = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code, out, _ = run(
        capsys, ["compose", "--a", path, "--power", "2", "--check", "--json"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["composability"]["verdict"] == "fail"
    assert payload["composability"]["witnessValue"] < 0
    assert payload["composability"]["n"] == 2


def test_compose_power_zero(tmp_path, capsys):
    space = make_space(["0", "1"])
    a = write_df(tmp_path / "a.json", DecoherenceFunctional(space, np.diag([0.5, 0.5])))
    out_path = tmp_path / "unit.json"
    code, _, _ = run(capsys, ["compose", "--a", a, "--power", "0", "--out", str(out_path)])
    assert code == 0
    unit = jsonio.load_df(out_path)
    assert unit.dim == 1
    assert unit.matrix[0, 0] == 1.0


def test_compose_requires_exactly_one_mode(tmp_path, capsys):
    space = make_space(["0", "1"])
    a = write_df(tmp_path / "a.json", DecoherenceFunctional(space, np.diag([0.5, 0.5])))
    code, _, err = run(capsys, ["compose", "--a", a])
    assert code == 2
    assert "error" in err


def test_gen_lemma1_auto_eps(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, _, _ = run(
        capsys, ["gen", "lemma1", "--lambda", "2", "--n", "1", "--out", str(out_path)]
    )
    assert code == 0
    D = jsonio.load_df(out_path)
    assert D.matrix[0, 0].real == pytest.approx(EPS1 / 2, abs=1e-12)
    assert D.matrix[0, 0].real == pytest.approx(0.130602, abs=1e-6)


@pytest.mark.parametrize(
    "argv",
    [["lemma1", "--n", "1100"], ["gen", "lemma1", "--lambda", "1e300", "--n", "2"]],
    ids=["lemma1", "gen"],
)
def test_lemma1_power_beyond_float_range_is_input_error(tmp_path, capsys, argv):
    out_path = tmp_path / "gen.json"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("is beyond the float range\n")
    assert not out_path.exists()


def test_gen_dv(tmp_path, capsys):
    out_path = tmp_path / "dv.json"
    code, _, _ = run(capsys, ["gen", "dv", "--v", "[1, 0]", "--out", str(out_path)])
    assert code == 0
    D = jsonio.load_df(out_path)
    assert D.dim == 4
    assert np.allclose(D.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))


def test_gen_classical(tmp_path, capsys):
    out_path = tmp_path / "cl.json"
    code, _, _ = run(
        capsys, ["gen", "classical", "--p", "[0.25, 0.75]", "--out", str(out_path)]
    )
    assert code == 0
    D = jsonio.load_df(out_path)
    assert np.allclose(D.matrix, np.diag([0.25, 0.75]))


@pytest.mark.parametrize(
    "argv",
    [
        ["dv", "--v", '[["x", 0]]'],   # float("x") must not escape as a traceback
        ["classical", "--p", "[true]"],  # JSON true is a bool, not the number 1
        ["dv", "--v", "[[true, 0], [0, 1]]"],
        ["classical", "--p", "[" + "9" * 400 + "]"],  # beyond the float range
        ["dv", "--v", "[[0, " + "9" * 5000 + "]]"],  # past the int digit limit
    ],
)
def test_gen_number_list_rejects_non_numbers(tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    code, _, err = run(capsys, ["gen", *argv, "--out", str(out_path)])
    assert code == 2
    assert err.startswith("error: cannot read ")
    assert not out_path.exists()


FACTORS_SHAPE = "error: malformed DF object: factors must be null or a list of [name, count] pairs\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("factors", 5, FACTORS_SHAPE),
        ("factors", [1, 2], FACTORS_SHAPE),
        ("factors", [["a", 2.5]], "error: malformed DF object: a factor count must be an integer, not float\n"),
        ("factors", [["a", "2"]], "error: malformed DF object: a factor count must be an integer, not str\n"),
        ("factors", [["a", True], ["b", 2]],
         "error: malformed DF object: a factor count must be an integer, not bool\n"),
        ("dim", "2", "error: malformed DF object: dim must be an integer, not str\n"),
        ("dim", 2.5, "error: malformed DF object: dim must be an integer, not float\n"),
    ],
)
def test_validate_non_integer_count_is_input_error(tmp_path, capsys, field, value, message):
    path = tmp_path / "cl.json"
    code, _, _ = run(capsys, ["gen", "classical", "--p", "[0.5, 0.5]", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["validate", "--input", str(path), "--json"])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("value", ["2", 2.0, True], ids=["string", "float", "boolean"])
@pytest.mark.parametrize("field", ["m", "d"])
def test_bell_check_non_integer_behavior_count_is_input_error(tmp_path, capsys, field, value):
    model = random_tensor_model(np.random.default_rng(42), 2, 2)
    df_path = write_df(tmp_path / "q.json", quantum_df(model))
    behavior = jsonio.behavior_to_dict(Behavior(2, 2, behavior_table(model)))
    behavior[field] = value
    behavior_path = tmp_path / "p.json"
    behavior_path.write_text(jsonio.dump_json(behavior))
    code, out, err = run(
        capsys, ["bell-check", "--df", df_path, "--behavior", str(behavior_path)]
    )
    assert (code, out) == (2, "")
    assert err == f"error: malformed behavior object: {field} must be an integer, not {type(value).__name__}\n"


@pytest.mark.parametrize("value", ["2", 2.0], ids=["string", "float"])
def test_gen_quantum_non_integer_model_dim_is_input_error(tmp_path, capsys, value):
    data = jsonio.model_to_dict(random_tensor_model(np.random.default_rng(0), 2, 2))
    data["dim"] = value
    model_path = tmp_path / "model.json"
    model_path.write_text(jsonio.dump_json(data))
    out_path = tmp_path / "q.json"
    code, _, err = run(
        capsys, ["gen", "quantum", "--model", str(model_path), "--out", str(out_path)]
    )
    assert code == 2
    assert err == f"error: malformed quantum model object: dim must be an integer, not {type(value).__name__}\n"
    assert not out_path.exists()


def test_gen_then_validate_roundtrip(tmp_path, capsys):
    for argv, expected_exit in (
        (["gen", "lemma1", "--lambda", "3", "--n", "1"], 0),
        (["gen", "dv", "--v", "[0.6, 0.8]"], 0),
        (["gen", "classical", "--p", "[0.1, 0.9]"], 0),
    ):
        out_path = tmp_path / f"{argv[1]}.json"
        code, _, _ = run(capsys, argv + ["--out", str(out_path)])
        assert code == 0
        code, _, _ = run(capsys, ["validate", "--input", str(out_path)])
        assert code == expected_exit


def test_gen_quantum_from_model_file(tmp_path, capsys):
    rng = np.random.default_rng(55)
    model = random_tensor_model(rng, 2, 2)
    model_path = tmp_path / "model.json"
    model_path.write_text(jsonio.dump_json(jsonio.model_to_dict(model)))
    out_path = tmp_path / "q.json"
    code, _, _ = run(
        capsys, ["gen", "quantum", "--model", str(model_path), "--out", str(out_path)]
    )
    assert code == 0
    D = jsonio.load_df(out_path)
    assert D.dim == 16
    assert np.abs(D.matrix - quantum_df(model).matrix).max() < 1e-12
    code, _, _ = run(capsys, ["validate", "--input", str(out_path), "--level", "strong"])
    assert code == 0


def test_gen_rejects_bad_probabilities(tmp_path, capsys):
    code, _, err = run(
        capsys, ["gen", "classical", "--p", "[0.5, 0.6]", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "error" in err


def test_lemma1_command_json_byte_stable(capsys):
    code1, out1, _ = run(capsys, ["lemma1", "--n", "1", "--lambda", "2", "--json"])
    code2, out2, _ = run(capsys, ["lemma1", "--n", "1", "--lambda", "2", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["lemma1"]["lemmaHolds"] is True
    assert payload["lemma1"]["witnessValue"] == pytest.approx(-0.039967, abs=1e-6)
    assert payload["validation"]["weakPositivity"]["vectorsChecked"] == 15


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
@pytest.mark.parametrize("n", range(1, 11))
def test_lemma1_search_bytes_equal_fixed_lambda_bytes(capsys, n, json_flag):
    # the search's own n-copy report stands in for a fresh check at its lam
    code, searched, _ = run(capsys, ["lemma1", "--n", str(n), "--json"])
    lam = json.loads(searched)["lemma1"]["params"]["lambda"]
    if not json_flag:
        code, searched, _ = run(capsys, ["lemma1", "--n", str(n)])
    fixed_code, fixed, _ = run(
        capsys, ["lemma1", "--n", str(n), "--lambda", repr(lam), *json_flag]
    )
    assert code == fixed_code == 0
    assert searched == fixed


def test_maximality_command(tmp_path, capsys):
    path = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code, out, _ = run(capsys, ["maximality", "--input", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lemma2"]["matched"] is True
    assert payload["lemma2"]["lhs"] == pytest.approx(-EPS1 / 8.0, abs=1e-12)
    assert payload["lemma2"]["witness"] == [0, 10, 20, 30]


def test_maximality_rejects_psd_input(tmp_path, capsys):
    space = make_space(["0", "1"])
    path = write_df(tmp_path / "sp.json", DecoherenceFunctional(space, np.diag([0.5, 0.5])))
    code, _, err = run(capsys, ["maximality", "--input", path])
    assert code == 2
    assert "positive semidefinite" in err


def test_maximality_pnn_search(tmp_path, capsys):
    space = make_space(["0", "1"])
    M = np.array([[1.0, -0.5], [-0.5, 1.0]])
    path = write_df(tmp_path / "m.json", DecoherenceFunctional(space, M))
    code, out, _ = run(capsys, ["maximality", "--input", path, "--pnn", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pnnViolation"]["found"] is True
    assert payload["pnnViolation"]["value"] < 0


# Exit code and sha256 of the stdout of `maximality --json` and of
# `maximality --pnn --json` on random_weakly_positive_nonsp(default_rng([19,
# dim]), dim), recorded with the pnn search that scanned every grid point: at
# dims 3 and 6 the search finds a violation, at dim 8 it exhausts PNN_BUDGET.
MAXIMALITY_STDOUT = {
    (3, False): (0, "042c02f709efd39bfe447a8f897610d1d9990818c1af88e1a24edbf779fbcc1f"),
    (3, True): (0, "5c5178d503b42a0cfb2adea549815cb5f09b28d9a3be066cdf07acebdbb48a65"),
    (6, False): (0, "dcf1c3f068553616f2398c624bcc11e0455b062053bde0643c1b97d550ba3f45"),
    (6, True): (0, "b6e4e6d6f0893477386a8087b97227051f05528f0dc6a90df3dde09f0f99f5f3"),
    (8, False): (0, "6561e43ed5bf982b40dfe9c7337ba8d019acc03b67b0a579b27be5ddc2921718"),
    (8, True): (1, "ff1a06a97ffe96637a92c5a916a27efdc518691f202d60e5258c224962925f66"),
}


@pytest.mark.parametrize("dim, pnn", list(MAXIMALITY_STDOUT))
def test_maximality_stdout_is_pinned(tmp_path, capsys, dim, pnn):
    D = random_weakly_positive_nonsp(np.random.default_rng([19, dim]), dim)
    path = write_df(tmp_path / f"d{dim}.json", D)
    argv = ["maximality", "--input", path, "--json"] + (["--pnn"] if pnn else [])
    code, out, _ = run(capsys, argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MAXIMALITY_STDOUT[dim, pnn]
    if pnn and dim == 8:
        assert json.loads(out)["pnnViolation"]["found"] is False


def test_bell_check_quantum_model(tmp_path, capsys):
    rng = np.random.default_rng(42)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    behavior = Behavior(model.settings, model.outcomes, behavior_table(model))
    df_path = write_df(tmp_path / "q.json", D)
    behavior_path = tmp_path / "p.json"
    jsonio.save_behavior(behavior, behavior_path)
    code, out, _ = run(
        capsys, ["bell-check", "--df", df_path, "--behavior", str(behavior_path)]
    )
    assert code == 0
    assert "PASS" in out


def test_bell_check_detects_mismatched_behavior(tmp_path, capsys):
    rng = np.random.default_rng(43)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    table = behavior_table(model)
    table[0, 0] = np.full((2, 2), 0.25)  # overwrite one setting pair
    behavior = Behavior(2, 2, table)
    df_path = write_df(tmp_path / "q.json", D)
    behavior_path = tmp_path / "p.json"
    jsonio.save_behavior(behavior, behavior_path)
    code, out, _ = run(
        capsys, ["bell-check", "--df", df_path, "--behavior", str(behavior_path)]
    )
    assert code == 1
    assert "FAIL" in out


def test_bell_check_non_finite_behavior_is_input_error(tmp_path, capsys):
    model = random_tensor_model(np.random.default_rng(42), 2, 2)
    df_path = write_df(tmp_path / "q.json", quantum_df(model))
    table = behavior_table(model)
    table[0, 0, 0, 0] = np.nan
    behavior_path = tmp_path / "p.json"
    behavior_path.write_text(jsonio.dump_json({"m": 2, "d": 2, "P": table.tolist()}))
    code, out, err = run(
        capsys, ["bell-check", "--df", df_path, "--behavior", str(behavior_path)]
    )
    assert code == 2
    assert out == ""
    assert err == "error: behavior probabilities must be finite\n"


@pytest.mark.parametrize("cell", ["0.25", True], ids=["string", "boolean"])
def test_bell_check_non_numeric_behavior_is_input_error(tmp_path, capsys, cell):
    df_path = write_df(tmp_path / "q.json", quantum_df(random_tensor_model(
        np.random.default_rng(42), 2, 2)))
    table = np.full((2, 2, 2, 2), 0.25).tolist()
    table[0][0][0][0] = cell
    behavior_path = tmp_path / "p.json"
    behavior_path.write_text(jsonio.dump_json({"m": 2, "d": 2, "P": table}))
    code, out, err = run(
        capsys, ["bell-check", "--df", df_path, "--behavior", str(behavior_path)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed behavior object")


@pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float", "past-digit-limit"])
@pytest.mark.parametrize("command", ["validate", "bell-check"])
def test_file_integer_beyond_float_range_is_input_error(tmp_path, capsys, command, digits):
    model = random_tensor_model(np.random.default_rng(44), 2, 2)
    df = jsonio.df_to_dict(quantum_df(model))
    behavior = jsonio.behavior_to_dict(Behavior(2, 2, behavior_table(model)))
    if command == "validate":
        df["entries"] = df["entries"].tolist()
        df["entries"][0][0] = "BIG"
    else:
        behavior["P"] = behavior["P"].tolist()
        behavior["P"][0][0][0][0] = "BIG"
    df_path, behavior_path = tmp_path / "q.json", tmp_path / "p.json"
    for path, data in ((df_path, df), (behavior_path, behavior)):
        path.write_text(jsonio.dump_json(data).replace('"BIG"', "9" * digits))
    argv = {
        "validate": ["validate", "--input", str(df_path)],
        "bell-check": ["bell-check", "--df", str(df_path), "--behavior", str(behavior_path)],
    }[command]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err == "error: cannot read an integer beyond the float range\n"


def test_workers_flag_does_not_change_verdicts(tmp_path, capsys):
    path = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code1, out1, _ = run(capsys, ["validate", "--input", path, "--json"])
    code2, out2, _ = run(capsys, ["validate", "--input", path, "--json",
                                  "--workers", "2"])
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["report"]["weakPositivity"]["verdict"] == r2["report"]["weakPositivity"]["verdict"]
    assert r1["report"]["level"] == r2["report"]["level"]
    assert out1 == out2


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_non_finite_or_non_positive_tol_is_usage_error(tmp_path, capsys, tol):
    path = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code, out, err = run(capsys, ["validate", "--input", path, f"--tol={tol}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerances must be finite and positive")


def positivity_json(strategy, checked, verdict, witness, value):
    witness_text = "null" if witness is None else f"[\n      {witness}\n    ]"
    return (
        "{\n"
        '  "positivity": {\n'
        f'    "strategy": "{strategy}",\n'
        f'    "vectorsChecked": {checked},\n'
        f'    "verdict": "{verdict}",\n'
        f'    "witness": {witness_text},\n'
        f'    "witnessValue": {value}\n'
        "  },\n"
        '  "tolerances": {\n'
        '    "eq": 1e-10,\n'
        '    "pos": 1e-10\n'
        "  }\n"
        "}\n"
    )


def test_compose_check_block_reduced_golden(tmp_path, capsys):
    # Block-reduced scans every block in index order, entrywise non-negative
    # ones included: the Lemma 1 DF (x) a 3-outcome classical DF has six 2x2
    # blocks of 3 vectors each, and of four equal failing blocks the first
    # one gives the witness.
    lemma1 = write_df(tmp_path / "l1.json", lemma1_df(2.0, EPS1))
    code, _, _ = run(capsys, ["gen", "classical", "--p", "[0.2,0.3,0.5]",
                              "--out", str(tmp_path / "c.json")])
    assert code == 0
    argv = ["compose", "--a", lemma1, "--b", str(tmp_path / "c.json"), "--check",
            "--json"]
    code, out, _ = run(capsys, argv + ["--block-reduced"])
    assert (code, out) == (0, positivity_json("block-reduced", 18, "pass", None, "null"))
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, positivity_json("brute-force", 4095, "pass", None, "null"))

    block = np.array([[0.5, 0.25], [0.25, -0.125]])  # fails on its second history
    space = make_space([str(i) for i in range(8)])
    eight = write_df(tmp_path / "e.json", DecoherenceFunctional(space, np.kron(np.eye(4), block)))
    one = write_df(tmp_path / "one.json", DecoherenceFunctional(make_space(["0"]), np.ones((1, 1))))
    argv = ["compose", "--a", eight, "--b", one, "--check", "--json"]
    code, out, _ = run(capsys, argv + ["--block-reduced"])
    assert (code, out) == (1, positivity_json("block-reduced", 1, "fail", 1, -0.125))
    code, out, _ = run(capsys, argv)  # key 1 is the last history
    assert (code, out) == (1, positivity_json("brute-force", 1, "fail", 7, -0.125))


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_df_json_roundtrip_bit_exact(tmp_path):
    D = lemma1_df(2.0, EPS1)
    first = tmp_path / "d.json"
    jsonio.save_df(D, first)
    loaded = jsonio.load_df(first)
    assert np.array_equal(loaded.matrix, D.matrix)
    assert loaded.space == D.space
    second = tmp_path / "d2.json"
    jsonio.save_df(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_human_output_summarizes_large_matrices(tmp_path, capsys):
    v = [0.0] * 16
    v[0] = 1.0
    code, out, _ = run(
        capsys, ["gen", "dv", "--v", json.dumps(v), "--out", str(tmp_path / "big.json")]
    )
    assert code == 0
    assert "too large to print" in out  # dim 32 exceeds the printing cutoff


def test_compose_power_cap_needs_block_reduced(tmp_path, capsys):
    space = make_space([str(i) for i in range(8)])
    path = write_df(
        tmp_path / "c8.json", DecoherenceFunctional(space, np.eye(8) / 8.0)
    )
    code, _, err = run(capsys, ["compose", "--a", path, "--power", "2", "--check"])
    assert code == 2  # 8^2 = 64 exceeds the whole-cube enumeration cap
    assert "error" in err
    code, out, _ = run(
        capsys,
        ["compose", "--a", path, "--power", "2", "--check", "--block-reduced", "--json"],
    )
    assert code == 0
    assert json.loads(out)["composability"]["verdict"] == "pass"


def test_cli_corpus_is_unchanged():
    # Every case of tests/cli_corpus.txt rerun: exit code, stdout, stderr,
    # warnings and the file --out wrote. Output changed on purpose is
    # recorded with `python tests/cli_corpus.py`, as one diff of that file.
    text, old = cli_corpus.render(), cli_corpus.committed()
    assert text == old, cli_corpus.diff(old, text)
