"""Golden CLI corpus: every dflab subcommand, as text and as --json, on
seeded inputs, with its failing lifts, cap errors and input errors.

Each case runs ``dflab.cli.main`` in this process and records its argv, exit
code, stdout and stderr, the warnings it raised, and the sha256 of the file
its ``--out`` names (or that none was written). The temporary directory that
holds the inputs is written as ``$TMP``. Stream lines are prefixed with
``|``, and a stream that does not end in a newline is marked, so the record
is exact.

    python tests/cli_corpus.py           # rewrite tests/cli_corpus.txt
    python tests/cli_corpus.py --check   # exit 1 with a diff if it differs

``tests/test_cli.py::test_cli_corpus_is_unchanged`` regenerates the corpus
and compares it with the committed file, so output changed on purpose shows
as one diff of that file. Only the standard library, numpy and dflab are
used.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dflab import cli, jsonio  # noqa: E402
from dflab.bell import Behavior  # noqa: E402
from dflab.core import DecoherenceFunctional, make_space  # noqa: E402
from dflab.lemma1 import lemma1_df, lemma1_epsilon, lemma1_space  # noqa: E402
from dflab.maximality import random_weakly_positive_nonsp  # noqa: E402
from dflab.quantum import behavior_table, quantum_df, random_tensor_model  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "cli_corpus.txt"
TMP = "$TMP"


def _df(path: Path, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.complex128)
    space = make_space([str(i) for i in range(matrix.shape[0])])
    jsonio.save_df(DecoherenceFunctional(space, matrix), path)


def _raw(path: Path, data) -> None:
    path.write_text(json.dumps(data))


def write_inputs(tmp: Path) -> None:
    """Every input file the cases read, from fixed values and seeds."""
    _df(tmp / "classical.json", np.diag([0.5, 0.5]))
    jsonio.save_df(lemma1_df(2.0, lemma1_epsilon(2.0, 1)), tmp / "l1.json")
    lam, eps = 2.0, 0.4  # eps beyond 1/(1+lam): the second block fails
    A = np.array([[1.0, lam], [lam, 1.0]])
    bad = (0.5 * np.kron(eps * A, np.diag([1.0, 0.0]))
           + 0.5 * np.kron(np.eye(2) - eps * A, np.diag([0.0, 1.0])))
    jsonio.save_df(DecoherenceFunctional(lemma1_space(), bad), tmp / "family-bad.json")
    _df(tmp / "classical3.json", np.diag([0.2, 0.3, 0.5]))
    # four equal blocks that fail on their second history
    _df(tmp / "eight.json", np.kron(np.eye(4), [[0.5, 0.25], [0.25, -0.125]]))
    _df(tmp / "one.json", np.ones((1, 1)))
    _df(tmp / "uniform8.json", np.eye(8) / 8.0)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(20, 20))
    _df(tmp / "psd20.json", g @ g.T / (g @ g.T).sum())
    g = rng.normal(size=(31, 31))
    dense = np.eye(31) + 0.1 * (g + g.T)  # one connected block above the cap
    _df(tmp / "dense31.json", dense / dense.sum())
    for dim in (3, 6, 8):
        jsonio.save_df(random_weakly_positive_nonsp(np.random.default_rng([19, dim]), dim),
                       tmp / f"nonsp{dim}.json")
    # eigenvector and composed form disagree once --tol admits the asymmetry
    _df(tmp / "asymmetric.json", [[0.5, -0.8], [-0.76, 0.5]])
    _df(tmp / "pnn.json", [[1.0, -0.5], [-0.5, 1.0]])
    _df(tmp / "nonneg.json", [[0.5, 0.25], [0.25, 0.5]])
    entries = [[1, 0], [-1.7e308, 0], [-1.7e308, 0], [1, 0]]
    _raw(tmp / "overflow.json", {"dim": 2, "labels": ["a", "b"], "entries": entries})
    (tmp / "truncated.json").write_text('{"dim": 2, "labels": ["a", "b"], "entries": [[1, 0]')
    for name, entries in (("entries-triple", [[1, 0, 0]]), ("entries-string", [["x", "0"]]),
                          ("entries-bool", [[True, False]]), ("entries-short", [1.0])):
        _raw(tmp / f"{name}.json", {"dim": 1, "labels": ["a"], "entries": entries})
    cells = [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]
    for name, field, value in (("dim-string", "dim", "2"), ("dim-float", "dim", 2.5),
                               ("factors-int", "factors", 5),
                               ("factors-float", "factors", [["a", 2.5]])):
        _raw(tmp / f"{name}.json", {"dim": 2, "labels": ["a", "b"], "entries": cells,
                                    field: value})
    (tmp / "big-int.json").write_text(
        '{"dim": 1, "labels": ["a"], "entries": [[' + "9" * 400 + ", 0]]}")
    model = random_tensor_model(np.random.default_rng(42), 2, 2)
    jsonio.save_df(quantum_df(model), tmp / "q.json")
    jsonio.save_behavior(Behavior(2, 2, behavior_table(model)), tmp / "behavior.json")
    table = behavior_table(model)
    table[0, 0] = np.full((2, 2), 0.25)  # one setting pair overwritten
    jsonio.save_behavior(Behavior(2, 2, table), tmp / "behavior-bad.json")
    data = jsonio.behavior_to_dict(Behavior(2, 2, behavior_table(model)))
    data["P"] = data["P"].tolist()
    data["P"][0][0][0][0] = float("nan")
    (tmp / "behavior-nan.json").write_text(jsonio.dump_json(data))
    data["P"][0][0][0][0] = 0.25
    data["m"] = 2.0
    (tmp / "behavior-float-m.json").write_text(jsonio.dump_json(data))
    model = random_tensor_model(np.random.default_rng(55), 2, 2)
    (tmp / "model.json").write_text(jsonio.dump_json(jsonio.model_to_dict(model)))


def _both(*argv: str) -> list[list[str]]:
    return [list(argv), [*argv, "--json"]]


def cases() -> list[list[str]]:
    """The argv of every case, with ``$TMP`` for the input directory."""
    t = TMP + "/"
    out = []
    # validate: pass, planted FAIL, strong level, tolerance and workers
    for name in ("classical", "l1", "family-bad", "nonsp6", "psd20"):
        out += _both("validate", "--input", t + f"{name}.json")
        out += _both("validate", "--input", t + f"{name}.json", "--level", "strong")
    out += _both("validate", "--input", t + "l1.json", "--tol", "1e-8")
    out += _both("validate", "--input", t + "family-bad.json", "--workers", "2")
    out += _both("validate", "--input", t + "psd20.json", "--workers", "2")
    # compose with --b: check, out, block-reduced, and the FAIL lifts
    ab = ("compose", "--a", t + "l1.json", "--b", t + "classical3.json")
    out += _both(*ab, "--check")
    out += _both(*ab, "--check", "--block-reduced")
    out += _both(*ab, "--out", t + "ab.json")
    out += _both(*ab, "--check", "--block-reduced", "--out", t + "ab.json")
    eight = ("compose", "--a", t + "eight.json", "--b", t + "one.json", "--check")
    out += _both(*eight)
    out += _both(*eight, "--block-reduced")
    out += _both(*eight, "--block-reduced", "--out", t + "eight1.json")
    # compose with --power
    power = ("compose", "--a", t + "l1.json", "--power")
    out += _both(*power, "2", "--check")
    out += _both(*power, "2", "--check", "--block-reduced")
    out += _both(*power, "1", "--check")
    out += _both(*power, "2", "--out", t + "l1x2.json")
    out += _both(*power, "2", "--check", "--out", t + "l1x2.json")
    out += _both(*power, "3", "--check", "--block-reduced", "--out", t + "l1x3.json")
    out += _both("compose", "--a", t + "classical.json", "--power", "0",
                 "--out", t + "unit.json")
    out += _both("compose", "--a", t + "uniform8.json", "--power", "2", "--check")
    out += _both("compose", "--a", t + "uniform8.json", "--power", "2", "--check",
                 "--block-reduced")
    # compose errors, in the order they surface
    out += _both("compose", "--a", t + "l1.json")
    out += _both("compose", "--a", t + "missing.json")
    out += _both("compose", "--a", t + "l1.json", "--b", t + "l1.json", "--power", "2")
    out += _both("compose", "--a", t + "l1.json", "--power", "2")
    out += _both("compose", "--a", t + "missing.json", "--power", "2")
    out += _both("compose", "--a", t + "l1.json", "--b", t + "missing.json", "--check")
    # lemma1: the lambda search, fixed lambda, fixed lambda and eps, errors
    for n in range(1, 7):
        out += _both("lemma1", "--n", str(n))
    out += _both("lemma1", "--n", "1", "--lambda", "2")
    out += _both("lemma1", "--n", "3", "--lambda", "16")
    out += _both("lemma1", "--n", "2", "--lambda", "3", "--eps", "0.05")
    out += _both("lemma1", "--n", "2", "--eps", "0.01")
    out += _both("lemma1", "--n", "1", "--lambda", "2", "--eps", "0.4")
    out += _both("lemma1", "--n", "1", "--lambda", "0.5")
    out += _both("lemma1", "--n", "0")
    out += _both("lemma1", "--n", "1100")
    # maximality: the Lemma 2 lift, the pnn search, and their errors
    for dim in (3, 6, 8):
        out += _both("maximality", "--input", t + f"nonsp{dim}.json")
        out += _both("maximality", "--input", t + f"nonsp{dim}.json", "--pnn")
    out += _both("maximality", "--input", t + "l1.json")
    out += _both("maximality", "--input", t + "asymmetric.json", "--tol", "0.05")
    out += _both("maximality", "--input", t + "pnn.json", "--pnn")
    out += _both("maximality", "--input", t + "classical.json")
    out += _both("maximality", "--input", t + "nonneg.json", "--pnn")
    out += _both("maximality", "--input", t + "missing.json", "--pnn")
    # bell-check in both modes, a FAIL and malformed behaviors
    bell = ("bell-check", "--df", t + "q.json", "--behavior")
    for behavior in ("behavior", "behavior-bad"):
        out += _both(*bell, t + f"{behavior}.json")
        out += _both(*bell, t + f"{behavior}.json", "--mode", "weak")
    out += _both(*bell, t + "behavior-nan.json")
    out += _both(*bell, t + "behavior-float-m.json")
    # gen, all four kinds, and their errors
    gen = ("gen",)
    out += _both(*gen, "lemma1", "--lambda", "2", "--n", "1", "--out", t + "g-l1.json")
    out += _both(*gen, "lemma1", "--eps", "0.1", "--out", t + "g-l1eps.json")
    out += _both(*gen, "lemma1", "--lambda", "3", "--n", "2", "--out", t + "g-l1n2.json")
    out += _both(*gen, "dv", "--v", "[0.6, 0.8]", "--out", t + "g-dv.json")
    out += _both(*gen, "dv", "--v", "[[0.6, 0], [0, 0.8]]", "--out", t + "g-dvc.json")
    out += _both(*gen, "dv", "--v", json.dumps([1.0] + [0.0] * 15), "--out", t + "g-dv16.json")
    out += _both(*gen, "classical", "--p", "[0.25, 0.75]", "--out", t + "g-cl.json")
    out += _both(*gen, "classical", "--p", "[0.2,0.3,0.5]", "--tol", "1e-8",
                 "--out", t + "g-cl3.json")
    out += _both(*gen, "quantum", "--model", t + "model.json", "--out", t + "g-q.json")
    for argv in (["lemma1"], ["dv"], ["classical"], ["quantum"],
                 ["classical", "--p", "[0.5, 0.6]"], ["classical", "--p", "[true]"],
                 ["dv", "--v", '[["x", 0]]'], ["dv", "--v", "{}"],
                 ["lemma1", "--lambda", "1e300", "--n", "2"],
                 ["quantum", "--model", t + "missing.json"]):
        out += _both(*gen, *argv, "--out", t + "g-err.json")
    # malformed input files and tolerances, text and JSON alike
    for name in ("missing", "overflow", "truncated", "entries-triple", "entries-string",
                 "entries-bool", "entries-short", "dim-string", "dim-float",
                 "factors-int", "factors-float", "big-int", "dense31"):
        out += _both("validate", "--input", t + f"{name}.json")
    for tol in ("nan", "inf", "0", "-1e-9"):
        out += _both("validate", "--input", t + "l1.json", f"--tol={tol}")
    out += _both("validate", "--input", t + "missing.json", "--tol=nan")
    out += _both("lemma1", "--n", "2", "--workers", "0")
    return out


def _stream(name: str, text: str) -> list[str]:
    lines = text.split("\n")
    tail = lines.pop()  # "" when the text ends in a newline
    body = [f"{name}:"] + [f"| {line}" if line else "|" for line in lines]
    return body + ([f"| {tail}", "\\ no newline at end"] if tail else [])


def run_case(argv: list[str], tmp: Path) -> list[str]:
    """The record of one case: its command, exit code, streams, warnings and
    written file."""
    real = [arg.replace(TMP, str(tmp)) for arg in argv]
    out_path = Path(real[real.index("--out") + 1]) if "--out" in real else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(real)
    record = [f"$ dflab {shlex.join(argv)}", f"exit {code}"]
    record += _stream("stdout", stdout.getvalue().replace(str(tmp), TMP))
    record += _stream("stderr", stderr.getvalue().replace(str(tmp), TMP))
    record += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    if out_path is not None:
        written = (hashlib.sha256(out_path.read_bytes()).hexdigest()
                   if out_path.exists() else "nothing written")
        record.append(f"out: {written}")
    return record


def render() -> str:
    """The whole corpus, regenerated."""
    with tempfile.TemporaryDirectory(prefix="dflab-corpus-") as name:
        tmp = Path(name)
        write_inputs(tmp)
        records = ["\n".join(run_case(argv, tmp)) for argv in cases()]
    return "\n\n".join(records) + "\n"


def committed() -> str:
    """The corpus as committed, byte for byte."""
    return CORPUS.read_bytes().decode() if CORPUS.exists() else ""


def diff(old: str, new: str) -> str:
    return "".join(difflib.unified_diff(old.splitlines(True), new.splitlines(True),
                                        "tests/cli_corpus.txt", "regenerated"))


def main(argv: list[str]) -> int:
    text = render()
    if argv == ["--check"]:
        sys.stdout.write(diff(committed(), text))
        return int(text != committed())
    CORPUS.write_bytes(text.encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
