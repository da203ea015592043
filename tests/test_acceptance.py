"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Printed reference constants are the rounded decimals of
the exact values; every assertion also pins the full-precision value computed
by an independent route (materialized tensor powers, eigendecompositions,
closed forms, exhaustive enumeration).
"""

import itertools
import json
import time

import numpy as np
import pytest

from dflab.axioms import (
    Strategy,
    Verdict,
    check_strong_positivity,
    check_weak_positivity,
)
from dflab.bell import Behavior, check_behavior_consistency
from dflab.cli import main
from dflab.compose import check_composability, tensor, tensor_power
from dflab.core import df_evaluate, df_from_matrix, make_space
from dflab.kernels import scan_ascending
from dflab.lemma1 import (
    find_lambda,
    lemma1_df,
    lemma1_epsilon,
    lemma1_witness,
    lemma1_witness_value,
    lemma1_witness_value_numeric,
    ncopy_positivity_check,
)
from dflab.maximality import is_nonneg_hermitian, verify_lemma2
from dflab.quantum import behavior_table, dv_family, quantum_df, random_tensor_model
from oracles import contraction_check, dv_closed_form, quadratic_form


def report(criterion, elapsed, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_two_copy_failure_at_lambda_2(capsys):
    start = time.perf_counter()
    code = main(["lemma1", "--n", "1", "--lambda", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)

    eps = lemma1_epsilon(2.0, 1)
    closed = 0.5 * eps * (1.0 - eps * (1.0 + 2.0 ** 2))

    validation = payload["validation"]
    assert validation["hermitian"]["ok"] is True
    assert validation["normalization"]["ok"] is True
    assert validation["weakPositivity"]["verdict"] == "pass"
    assert validation["weakPositivity"]["vectorsChecked"] == 2 ** 4 - 1
    assert validation["weakPositivity"]["strategy"] == "brute-force"

    witness_value = payload["lemma1"]["witnessValue"]
    assert abs(witness_value - (-0.039967)) <= 1e-6
    assert abs(witness_value - closed) <= 1e-10
    assert payload["lemma1"]["lemmaHolds"] is True

    # the two-copy power itself fails binary positivity, and the explicit
    # two-point witness reproduces the closed form on the materialized matrix
    D = lemma1_df(2.0, eps)
    D2 = tensor_power(D, 2)
    fail = check_weak_positivity(D2)
    assert fail.verdict is Verdict.FAIL
    direct = df_evaluate(D2, lemma1_witness(1), lemma1_witness(1)).real
    assert abs(direct - closed) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, f"witness value {witness_value:.6f}")


def test_criterion_2_block_reduction_vs_brute_force_at_lambda_4():
    start = time.perf_counter()
    lam, eps = 4.0, 1.0 / 33.0

    blocked = check_composability(lemma1_df(lam, eps), 2, Strategy.BLOCK_REDUCED)
    assert blocked.verdict is Verdict.PASS

    certified = ncopy_positivity_check(lam, eps, 2)
    assert certified.verdict is Verdict.CERTIFIED

    D2 = tensor_power(lemma1_df(lam, eps), 2)
    brute = check_weak_positivity(D2)
    assert brute.verdict is Verdict.PASS
    assert brute.vectors_checked == 2 ** 16 - 1

    closed = lemma1_witness_value(lam, eps, 2)
    numeric = lemma1_witness_value_numeric(lam, eps, 2)
    assert abs(closed - (-2.226e-4)) <= 1e-7
    assert abs(numeric - (-2.226e-4)) <= 1e-7
    assert abs(closed - numeric) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, elapsed, f"3-copy witness value {closed:.4e}")


def test_criterion_3_search_succeeds_for_three_copies(capsys):
    start = time.perf_counter()
    code = main(["lemma1", "--n", "3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)

    lam = payload["lemma1"]["params"]["lambda"]
    eps = payload["lemma1"]["params"]["epsilon"]
    assert lam <= 2.0 ** 20
    assert payload["lemma1"]["nCopyVerdict"]["verdict"] in ("pass", "certified")
    assert payload["lemma1"]["witnessValue"] < -1e-10
    assert abs(payload["lemma1"]["witnessValue"] - payload["lemma1"]["witnessValueNumeric"]) <= 1e-10

    # an independent run of the search agrees, and the per-block enumeration
    # (2^8 vectors per block) confirms any certificate
    params, ncopy_report = find_lambda(3)
    assert params.lam == lam
    assert ncopy_report.verdict.value == payload["lemma1"]["nCopyVerdict"]["verdict"]
    blocked = check_composability(
        lemma1_df(params.lam, params.eps), 3, Strategy.BLOCK_REDUCED
    )
    assert blocked.verdict is Verdict.PASS
    assert abs(lemma1_witness_value(lam, eps, 3) - payload["lemma1"]["witnessValue"]) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, elapsed, f"lambda {lam:g}, witness value {payload['lemma1']['witnessValue']:.4e}")


def test_criterion_4_composition_counterexample_end_to_end():
    start = time.perf_counter()
    eps = lemma1_epsilon(2.0, 1)
    D = lemma1_df(2.0, eps)
    result = verify_lemma2(D)

    exact_min = -eps / 2.0
    exact_lhs = -eps / 8.0
    assert abs(result.min_eigenvalue - exact_min) <= 1e-9
    assert abs(result.min_eigenvalue - (-0.130602)) <= 1e-6
    assert abs(result.lhs - exact_lhs) <= 1e-9
    assert abs(result.rhs - exact_lhs) <= 1e-9
    assert abs(result.lhs - (-0.0326505)) <= 1e-6
    assert abs(result.lhs - result.rhs) <= 1e-10
    assert result.matched

    partner, witness = result.partner, result.witness
    composed = tensor(D, partner)
    assert composed.dim == 32
    fail = check_weak_positivity(composed, strategy=Strategy.BLOCK_REDUCED)
    assert fail.verdict is Verdict.FAIL
    assert witness.indices == (0, 10, 20, 30)
    constructed_value = df_evaluate(composed, witness, witness).real
    assert abs(constructed_value - result.lhs) <= 1e-10
    assert abs(constructed_value - result.rhs) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, elapsed, f"lhs = rhs = {result.lhs:.7f}")


def test_criterion_5_random_quantum_models_are_sp_and_consistent():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    dims = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
    worst_eig = 0.0
    worst_dev = 0.0
    for trial in range(100):
        da, db = dims[trial % len(dims)]
        model = random_tensor_model(rng, da, db, settings=2, outcomes=2)
        D = quantum_df(model)
        spectral = check_strong_positivity(D)
        worst_eig = min(worst_eig, spectral.min_eigenvalue)
        assert spectral.min_eigenvalue >= -1e-10
        behavior = Behavior(2, 2, behavior_table(model))
        consistency = check_behavior_consistency(D, behavior, mode="strong")
        assert consistency.verdict
        worst_dev = max(worst_dev, consistency.worst_deviation)
        assert consistency.worst_deviation <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, elapsed, f"min eig >= {worst_eig:.2e}, worst deviation {worst_dev:.2e}")


def test_criterion_6_dv_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_entry = 0.0
    worst_contraction = 0.0
    for trial in range(50):
        m = 2 + trial % 5
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        v /= np.linalg.norm(v)
        entry_gap = float(np.abs(dv_family(v).matrix - dv_closed_form(v)).max())
        worst_entry = max(worst_entry, entry_gap)
        assert entry_gap <= 1e-12
        result, ok = contraction_check(v)
        assert ok
        gap = float(np.abs(result - np.outer(v.conj(), v) / m).max())
        worst_contraction = max(worst_contraction, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"worst gaps {worst_entry:.1e} / {worst_contraction:.1e}")


def test_criterion_7_nonnegative_class_diagonal_characterization():
    from dflab.maximality import nondecohering_property_partition

    start = time.perf_counter()
    space = make_space(
        ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], factors=[("p", 2), ("q", 2)]
    )
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(64):
        for magnitude in (0.07, 1e-12):
            M = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    M[i, j] = M[j, i] = magnitude
            D = df_from_matrix(M, space)
            found = nondecohering_property_partition(D)
            effectively_diagonal = mask == 0 or magnitude < 1e-10
            if effectively_diagonal:
                assert found is None
            else:
                k, partition, pair = found
                cross = df_evaluate(D, partition.cells[pair[0]], partition.cells[pair[1]])
                assert abs(cross) > 1e-10
    elapsed = time.perf_counter() - start
    report(7, elapsed, "all 64 sparsity patterns x 2 magnitudes")


def test_criterion_8_closure_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    worst_eig = 0.0
    for _ in range(200):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        parts = []
        for d in dims:
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            M = g @ g.conj().T
            M /= M.sum().real
            parts.append(df_from_matrix(M, make_space([f"h{i}" for i in range(d)])))
        product = tensor(parts[0], parts[1])
        eig = check_strong_positivity(product).min_eigenvalue
        worst_eig = min(worst_eig, eig)
        assert eig >= -1e-10

    for _ in range(200):
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        parts = []
        for d in dims:
            raw = np.abs(rng.normal(size=(d, d)))
            raw = (raw + raw.T) / 2
            parts.append(df_from_matrix(raw, make_space([f"h{i}" for i in range(d)])))
        product = tensor(parts[0], parts[1])
        assert is_nonneg_hermitian(product)
        if product.dim <= 16:
            assert scan_ascending(product.matrix, 1e-10).key is None
        else:
            for _ in range(64):
                u = rng.integers(0, 2, size=product.dim)
                assert quadratic_form(product.matrix, u).real >= -1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, elapsed, f"400 tensor products, min eigenvalue {worst_eig:.2e}")


def test_criterion_9_strategy_oracle_equivalence():
    start = time.perf_counter()
    lambdas = (1.5, 2.0, 3.0, 4.0, 8.0)
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    checked = 0
    for lam in lambdas:
        for frac in fractions:
            eps = frac / (1.0 + lam)
            D = lemma1_df(lam, eps)
            for n in (1, 2):
                brute = check_composability(D, n, Strategy.BRUTE_FORCE)
                blocked = check_composability(D, n, Strategy.BLOCK_REDUCED)
                assert brute.passed == blocked.passed, (lam, frac, n)
                checked += 1
    elapsed = time.perf_counter() - start
    report(9, elapsed, f"{checked} grid verdict pairs agree")
