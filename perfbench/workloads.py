"""Seeded inputs, operations and result oracles for the four workloads.

A workload is a set of input classes, a pool of seeded inputs per class and a
mix: the fixed sequence of classes one round of the closed loop runs. Rounds
repeat until the run's time is up, so every run measures the same op mix.
The counts per round are chosen so that the median op and the tail op each
fall well inside one class.

Every operation goes through dflab's public API (or its CLI, for ``cli``) and
returns its raw results; ``check`` re-derives the expected answer another way
and returns an error message, or None when the result is right.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dflab
from dflab import jsonio

PLANTED = (0, 2)    # the planted violator {0, 2} has key 0.625 * 2^dim
POOL = 4            # distinct seeded inputs per class
DRAWS = 16          # Lemma 2 draws per dim; their costs differ, so runs average many
REL_TOL = 1e-9      # re-evaluated form values must agree to this relative tolerance


@dataclass
class Workload:
    """Input pools, the op per class, and the round the closed loop repeats."""

    name: str
    pools: dict[str, list[Any]]
    mix: list[str]          # the classes of one round, in order
    tail_class: str
    run: Callable[[str, Any], Any]
    check: Callable[[str, Any, Any], str | None]
    workers: dict[str, int] = field(default_factory=dict)
    vectors: Callable[[Any], int] = lambda result: 0   # vectors_checked it reports
    warm_up: bool = True
    digest: str = ""
    notes: collections.Counter = field(default_factory=collections.Counter)


def _space(dim: int) -> dflab.HistorySpace:
    return dflab.make_space([f"h{k}" for k in range(dim)])


def psd_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized positive definite matrix: 3/4 diag(p) plus a random Gram part."""
    p = rng.dirichlet(np.full(dim, 2.0))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = g @ g.conj().T
    gram = (gram + gram.conj().T) / 2.0
    return 0.75 * np.diag(p).astype(np.complex128) + gram * (0.25 / gram.sum().real)


def planted_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Normalized matrix whose lowest-key violator is exactly PLANTED.

    Starting from a positive definite M, the pair entry (i, j) gets -s with
    s = <ij|M|ij> > 0, so the form of {i, j} becomes -s. A vector without
    both i and j keeps its non-negative form, and {i, j} is the lowest key
    of all vectors containing both. Positive rescaling keeps every sign.
    """
    m = psd_matrix(rng, dim)
    i, j = PLANTED
    s = (m[i, i] + m[j, j] + 2.0 * m[i, j]).real
    m[i, j] -= s
    m[j, i] -= s
    return m / (1.0 - 2.0 * s)


def _form(matrix: np.ndarray, indices) -> float:
    u = np.zeros(matrix.shape[0])
    u[list(indices)] = 1.0
    return float((u @ matrix @ u).real)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- cube

def cube(seed: int, nproc: int) -> Workload:
    """validate_df over whole binary cubes, dims 22-25."""
    rng = np.random.default_rng([seed, 1])
    specs = {  # class: (dim, planted, workers)
        "pass22": (22, False, 1),
        "pass24-par": (24, False, nproc),
        "fail24": (24, True, 1),
        "pass24": (24, False, 1),
        "pass25": (25, False, 1),
    }
    pools = {}
    for name, (dim, planted, _) in specs.items():
        make = planted_matrix if planted else psd_matrix
        pools[name] = [
            dflab.df_from_matrix(make(rng, dim), _space(dim), require_normalized=True)
            for _ in range(POOL)
        ]
    workers = {name: spec[2] for name, spec in specs.items()}

    def run(cls, D):
        return dflab.validate_df(D, workers=workers[cls])

    def check(cls, D, report):
        weak = report.weak
        if not specs[cls][1]:
            if report.level != dflab.ValidationLevel.STRONGLY_POSITIVE:
                return f"PSD input reached level {report.level.name}"
            if weak.vectors_checked != 2 ** D.dim - 1:
                return f"pass scanned {weak.vectors_checked} vectors"
            return None
        if weak.verdict != dflab.Verdict.FAIL or weak.witness.indices != PLANTED:
            return f"expected planted witness {PLANTED}, got {weak.verdict} {weak.witness}"
        key = 2 ** (D.dim - 1 - PLANTED[0]) + 2 ** (D.dim - 1 - PLANTED[1])
        if weak.vectors_checked != key:
            return f"fail scanned {weak.vectors_checked} vectors, witness key is {key}"
        value = dflab.df_evaluate(D, weak.witness, weak.witness).real
        if not (value < 0 and _close(value, weak.witness_value)):
            return f"witness re-evaluates to {value}, report says {weak.witness_value}"
        if report.level != dflab.ValidationLevel.NORMALIZED:
            return f"violating input reached level {report.level.name}"
        return None

    # As many ops faster than pass24 (pass22) as slower ones, so the median
    # sits mid-class in pass24; pass25 is the slowest class and holds the
    # tail, three times a round so that few rounds give the tail its samples.
    mix = ["pass22", "pass24", "pass22", "pass25", "pass24", "pass24-par", "pass22",
           "fail24", "pass25", "pass22", "pass24", "pass22", "pass24", "pass25"]
    digest = _digest(pools, lambda D: D.matrix.tobytes())
    return Workload("cube", pools, mix, "pass25", run, check, workers,
                    vectors=lambda report: report.weak.vectors_checked, digest=digest)


# ---------------------------------------------------------------- compose

def compose(seed: int) -> Workload:
    """Thousands of small scans: Lemma 1, composability, Lemma 2 and pnn."""
    rng = np.random.default_rng([seed, 2])
    notes: collections.Counter = collections.Counter()
    pools: dict[str, list[Any]] = {}
    for n in range(1, 11):
        pools[f"lemma1-search-n{n}"] = [n]
        pools[f"lemma1-fixed-n{n}"] = [
            (n, certified_lambda(n) * 2.0 ** int(rng.integers(0, 4))) for _ in range(POOL)
        ]
    for n in (2, 3, 4):
        pools[f"block-n{n}"] = [_lemma1_point(rng, k) for k in range(POOL)]
    pools["brute-n2"] = [_lemma1_point(rng, k) for k in range(POOL)]
    for dim in range(4, 13):
        pools[f"lemma2-dim{dim}"] = [
            (dim, int(rng.integers(2 ** 62))) for _ in range(DRAWS)
        ]

    def run(cls, inp):
        kind = cls.split("-")[0]
        if kind == "lemma1":
            if cls.startswith("lemma1-search"):
                return dflab.lemma1_experiment(inp)
            n, lam = inp
            return dflab.lemma1_experiment(n, lam=lam)
        if kind in ("block", "brute"):
            lam, n0 = inp
            n = int(cls[-1])
            D = dflab.lemma1_df(lam, dflab.lemma1_epsilon(lam, n0))
            strategy = (dflab.Strategy.BLOCK_REDUCED if kind == "block"
                        else dflab.Strategy.BRUTE_FORCE)
            return dflab.check_composability(D, n, strategy)
        dim, draw_seed = inp
        D = dflab.random_weakly_positive_nonsp(np.random.default_rng(draw_seed), dim)
        return D, dflab.verify_lemma2(D), dflab.pnn_violation_search(D.matrix)

    def check(cls, inp, result):
        kind = cls.split("-")[0]
        if kind == "lemma1":
            return None if result.lemma_holds else f"lemma 1 does not hold at {inp}"
        if kind in ("block", "brute"):
            lam, n0 = inp
            n = int(cls[-1])
            D = dflab.lemma1_df(lam, dflab.lemma1_epsilon(lam, n0))
            if n <= n0:
                return None if result.passed else f"power {n} <= {n0} fails"
            # Power n > n0 holds the (n0+1)-copy witness, tensored with the
            # full event on the other copies, so its form is the witness's.
            power = functools.reduce(np.kron, [D.matrix] * (n0 + 1))
            value = _form(power, dflab.lemma1_witness(n0).indices)
            if result.passed:
                if value < -dflab.TOL_POS:
                    return f"power {n} > {n0} passes; witness form {value}"
                # Negative, but inside the absolute cutoff TOL_POS: the
                # verdict follows the program's tolerance, so count it apart.
                notes["composability pass inside TOL_POS"] += 1
                return None
            Dn = dflab.tensor_power(D, n)
            event = dflab.Event.from_indices(Dn.space, result.witness_indices)
            value = dflab.df_evaluate(Dn, event, event).real
            if not (value < 0 and _close(value, result.witness_value)):
                return f"witness re-evaluates to {value}, report says {result.witness_value}"
            return None
        D, lemma2, pnn = result
        if np.linalg.eigvalsh(D.matrix)[0] >= 0:
            return "drawn DF is PSD"
        if not (lemma2.matched and lemma2.lhs < 0):
            return f"lemma 2 witness lhs {lemma2.lhs} rhs {lemma2.rhs}"
        direct = _form(np.kron(D.matrix, lemma2.partner.matrix), lemma2.witness.indices)
        if not _close(direct, lemma2.lhs):
            return f"lemma 2 witness re-evaluates to {direct}, report says {lemma2.lhs}"
        if pnn is not None:
            value = _form(np.kron(D.matrix, pnn.partner), pnn.witness.indices)
            if not (value < 0 and _close(value, pnn.value)):
                return f"pnn witness re-evaluates to {value}, report says {pnn.value}"
        return None

    # lemma1-search-n4 (one input, about 4 ms) is about twice as slow as the
    # slowest of the 23 classes below it, and Lemma 2 at dims 8-10 (about
    # 12-18 ms) is more than twice as slow as it. With 24 ops above it and
    # 36 of it per round, the median op sits mid-way through its samples.
    mix = (list(pools) + 35 * ["lemma1-search-n4"]
           + 5 * ["lemma2-dim8", "lemma2-dim9", "lemma2-dim10"])
    digest = _digest(pools, lambda inp: repr(inp).encode())
    return Workload("compose", pools, mix, "lemma2-dim12", run, check,
                    vectors=_compose_vectors, digest=digest, notes=notes)


def _compose_vectors(result) -> int:
    """vectors_checked of a Lemma 1 or composability report; Lemma 2 ops report none."""
    if isinstance(result, dflab.Lemma1Report):
        return result.n_copy_verdict.vectors_checked
    if isinstance(result, dflab.ComposabilityReport):
        return result.vectors_checked
    return 0


def certified_lambda(n: int) -> float:
    """From lam = certified_lambda(n) * 2^k, k = 0..3, every block of the
    n-copy power carries a norm certificate, so the check scans no vectors."""
    return 16.0 if n >= 9 else 8.0


def _lemma1_point(rng: np.random.Generator, k: int) -> tuple[float, int]:
    """(lam, n0): a Lemma 1 point whose n0-copy power is weakly positive.

    Lemma 1 holds at lam = 2, 4 and 8 for n0 <= 4. n0 cycles 1, 2, 3 with
    ``k`` so every seed has the same mix of passing and failing checks.
    """
    return 2.0 ** int(rng.integers(1, 4)), 1 + k % 3


# ---------------------------------------------------------------- dense-io

MODELS = {"m3d2": (3, 2), "m2d3": (2, 3), "m4d2": (4, 2)}   # dims 64, 81, 256


def dense_io(seed: int, workdir: Path) -> Workload:
    """Quantum DFs through save/load, the eigensolver and Bell consistency."""
    rng = np.random.default_rng([seed, 3])
    pools = {}
    for name, (m, d) in MODELS.items():
        pools[name] = []
        for _ in range(POOL):
            model = dflab.random_tensor_model(rng, d, d, m, d)
            x, y = (int(v) for v in rng.integers(0, m, size=2))
            pools[name].append((model, (x, y), float(rng.uniform(0.02, 0.05))))

    def run(cls, inp):
        model, (x, y), delta = inp
        m, d = MODELS[cls]
        D = dflab.quantum_df(model)
        table = dflab.behavior_table(model)
        path = workdir / f"{cls}.json"
        jsonio.save_df(D, path)
        raw = jsonio.load_df(path)
        loaded = dflab.df_from_matrix(raw.matrix, raw.space)
        spectral = dflab.check_strong_positivity(loaded)
        own = dflab.check_behavior_consistency(loaded, dflab.Behavior(m, d, table))
        perturbed = table.copy()
        cells = perturbed[x, y].reshape(-1)   # a view: writes go to perturbed
        top = int(np.argmax(cells))
        moved = delta * cells[top]
        cells[top] -= moved
        cells[(top + 1) % cells.size] += moved
        other = dflab.check_behavior_consistency(loaded, dflab.Behavior(m, d, perturbed))
        return D, loaded, spectral, own, other, moved

    def check(cls, inp, result):
        D, loaded, spectral, own, other, moved = result
        if loaded.space != D.space or not np.array_equal(loaded.matrix, D.matrix):
            return "load_df does not return the matrix save_df wrote"
        if not spectral.is_sp:
            return f"quantum DF has min eigenvalue {spectral.min_eigenvalue}"
        if not own.verdict:
            return f"own behavior table fails, worst deviation {own.worst_deviation}"
        if moved <= 1e-6 or other.verdict:
            return f"perturbed table (moved {moved}) passes consistency"
        return None

    # m3d2 and m2d3 ops can take the same time, so m2d3 runs four times a
    # round: the median falls between its second and third op. m4d2 is the
    # tail class.
    mix = ["m3d2", "m2d3", "m2d3", "m4d2", "m2d3", "m2d3"]
    digest = _digest(pools, lambda inp: b"".join(
        [inp[0].rho.tobytes()]
        + [P.tobytes() for fam in inp[0].alice + inp[0].bob for P in fam.projectors]
        + [repr(inp[1:]).encode()]))
    return Workload("dense-io", pools, mix, "m4d2", run, check, digest=digest)


# ---------------------------------------------------------------- cli

def cli(seed: int, workdir: Path, root: Path, env: dict) -> Workload:
    """Fresh ``python -m dflab.cli`` processes, one at a time, on small files."""
    rng = np.random.default_rng([seed, 4])
    pools: dict[str, list[Any]] = {name: [] for name in
                                   ("gen", "validate", "compose", "lemma1",
                                    "maximality", "bell-check")}
    compose_file = workdir / "lemma1-lam2.json"
    jsonio.save_df(dflab.lemma1_df(2.0, dflab.lemma1_epsilon(2.0, 1)), compose_file)
    for k in range(POOL):
        lam, n0 = _lemma1_point(rng, k)
        pools["gen"].append(
            ["gen", "lemma1", "--lambda", repr(lam), "--n", str(n0),
             "--out", str(workdir / f"gen{k}.json")])
        planted = k == POOL - 1
        path = workdir / f"validate{k}.json"
        matrix = (planted_matrix if planted else psd_matrix)(rng, 10)
        jsonio.save_df(dflab.df_from_matrix(matrix, _space(10)), path)
        pools["validate"].append(["validate", "--input", str(path), "--level", "strong"])
        pools["compose"].append(["compose", "--a", str(compose_file), "--power", "2",
                                 "--check"])
        pools["lemma1"].append(["lemma1", "--n", "4"])
        path = workdir / f"maximality{k}.json"
        D = dflab.random_weakly_positive_nonsp(rng, 6)
        jsonio.save_df(D, path)
        pools["maximality"].append(["maximality", "--input", str(path)])
        model = dflab.random_tensor_model(rng, 2, 2, 2, 2)
        df_path, behavior_path = workdir / f"bell{k}.json", workdir / f"behavior{k}.json"
        jsonio.save_df(dflab.quantum_df(model), df_path)
        jsonio.save_behavior(dflab.Behavior(2, 2, dflab.behavior_table(model)),
                             behavior_path)
        pools["bell-check"].append(["bell-check", "--df", str(df_path),
                                    "--behavior", str(behavior_path)])
    for argvs in pools.values():
        for argv in argvs:
            argv.append("--json")

    def run(cls, argv):
        proc = subprocess.run([sys.executable, "-m", "dflab.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def check(cls, argv, result):
        return check_cli(cls, argv, *result)

    inputs = {str(p) for p in workdir.iterdir()}   # files written so far; not gen outputs
    digest = _digest(pools, lambda argv: b"".join(
        [repr([a.replace(str(workdir), "") for a in argv]).encode()]
        + [Path(a).read_bytes() for a in argv if a in inputs]))
    # All six commands cost about the same (start-up dominates); the tail
    # class only sets the minimum number of rounds.
    return Workload("cli", pools, list(pools), "lemma1", run, check,
                    warm_up=False, digest=digest)


def check_cli(cls: str, argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """Exit code and JSON verdict fields of one CLI invocation."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code}, no JSON output: {stderr.strip()[-200:]}"
    if cls == "gen":
        ok = code == 0 and out["dim"] == 4 and jsonio.load_df(out["out"]).dim == 4
        return None if ok else f"gen exit {code}, output {out}"
    if cls == "validate":
        path = argv[argv.index("--input") + 1]
        matrix = jsonio.load_df(path).matrix
        weak = out["report"]["weakPositivity"]
        if np.linalg.eigvalsh(matrix)[0] > 0:
            ok = code == 0 and out["ok"] and out["report"]["level"] == "strongly-positive"
        else:
            ok = (code == 1 and not out["ok"] and weak["verdict"] == "fail"
                  and tuple(weak["witness"]) == PLANTED
                  and _close(_form(matrix, PLANTED), weak["witnessValue"]))
        return None if ok else f"validate exit {code}, report {out['report']['level']}"
    if cls == "compose":
        # Exit 1 is the expected negative result: two copies at lam = 2 fail.
        report = out["composability"]
        matrix = jsonio.load_df(argv[argv.index("--a") + 1]).matrix
        value = _form(np.kron(matrix, matrix), report["witnessIndices"] or [])
        ok = (code == 1 and report["verdict"] == "fail" and value < 0
              and _close(value, report["witnessValue"]))
        return None if ok else f"compose exit {code}, report {report}"
    if cls == "lemma1":
        ok = code == 0 and out["lemma1"]["lemmaHolds"]
        return None if ok else f"lemma1 exit {code}"
    if cls == "maximality":
        report = out["lemma2"]
        ok = code == 0 and report["matched"] and report["lhs"] < 0
        return None if ok else f"maximality exit {code}, lhs {report['lhs']}"
    ok = code == 0 and out["consistency"]["verdict"]
    return None if ok else f"bell-check exit {code}"


# ---------------------------------------------------------------- shared

def _digest(pools: dict[str, list[Any]], encode: Callable[[Any], bytes]) -> str:
    h = hashlib.sha256()
    for name, inputs in pools.items():
        h.update(name.encode())
        for inp in inputs:
            h.update(encode(inp))
    return h.hexdigest()


def build(name: str, seed: int, nproc: int, workdir: Path, root: Path,
          env: dict) -> Workload:
    if name == "cube":
        return cube(seed, nproc)
    if name == "compose":
        return compose(seed)
    if name == "dense-io":
        return dense_io(seed, workdir)
    return cli(seed, workdir, root, env)
