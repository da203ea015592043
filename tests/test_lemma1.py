import math
import struct
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

import oracles
from dflab import jsonio
from dflab.axioms import Strategy, Verdict, check_weak_positivity, validate_df
from dflab.compose import check_composability, tensor_power
from dflab.core import TOL_POS, DflabError, ValidationLevel, df_evaluate
from dflab.lemma1 import (
    Lemma1Params,
    coupling_matrix,
    find_lambda,
    lemma1_copy_space,
    lemma1_df,
    lemma1_epsilon,
    lemma1_experiment,
    lemma1_witness,
    lemma1_witness_value,
    lemma1_witness_value_numeric,
    ncopy_positivity_check,
    norm_bound,
    witness_is_negative,
)
from oracles import quadratic_form

EPS1 = lemma1_epsilon(2.0, 1)


def test_params_validation():
    with pytest.raises(DflabError):
        Lemma1Params(1.0, 0.1, 1)
    with pytest.raises(DflabError):
        Lemma1Params(2.0, 0.5, 1)  # eps above 1/(1+lam)
    with pytest.raises(DflabError):
        Lemma1Params(2.0, 0.1, 0)
    Lemma1Params(2.0, 1.0 / 3.0, 1)  # boundary allowed


def test_family_blocks():
    D = lemma1_df(2.0, EPS1)
    b0 = D.matrix[np.ix_([0, 2], [0, 2])].real
    b1 = D.matrix[np.ix_([1, 3], [1, 3])].real
    assert np.allclose(b0, [[0.130602, 0.261204], [0.261204, 0.130602]], atol=1e-6)
    assert np.allclose(b1, [[0.369398, -0.261204], [-0.261204, 0.369398]], atol=1e-6)
    # cross-block entries vanish
    assert np.abs(D.matrix[np.ix_([0, 2], [1, 3])]).max() == 0.0


def test_family_partitions_strongly_decohere():
    from dflab.axioms import check_partition_decoherence
    from dflab.core import single_property_partition

    for lam in (1.5, 2.0, 5.0):
        D = lemma1_df(lam, lemma1_epsilon(lam, 1))
        for k in (0, 1):
            part = single_property_partition(D.space, k)
            assert check_partition_decoherence(D, part, mode="strong").verdict


def test_epsilon_values():
    assert EPS1 == pytest.approx(0.26120387, abs=1e-8)
    assert lemma1_epsilon(4.0, 2) == pytest.approx(1.0 / 33.0, abs=1e-15)
    assert lemma1_epsilon(1e6, 1) < 1e-8
    for lam in (1.1, 2.0, 7.0):
        for n in (1, 2, 5):
            assert lemma1_epsilon(lam, n) <= 1.0 / (1.0 + lam) + 1e-15


def test_witness_indices():
    w1 = lemma1_witness(1)
    assert w1.space.size == 16
    assert w1.indices == (1, 11)
    w2 = lemma1_witness(2)
    assert w2.space.size == 64
    # independent index computation through the space encoding
    space = lemma1_copy_space(3)
    assert w2.indices == (
        space.encode((0, 0, 0, 0, 0, 1)),
        space.encode((1, 0, 1, 0, 1, 1)),
    )
    assert w2.indices == (1, 43)
    for n in (1, 2, 3, 5):
        assert lemma1_witness(n).weight == 2


def test_witness_value_closed_vs_materialized():
    # oracle: evaluate the explicit two-point form on the materialized power
    for lam, n in ((2.0, 1), (4.0, 2)):
        eps = lemma1_epsilon(lam, n)
        closed = lemma1_witness_value(lam, eps, n)
        D_power = tensor_power(lemma1_df(lam, eps), n + 1)
        direct = df_evaluate(D_power, lemma1_witness(n), lemma1_witness(n)).real
        assert closed == pytest.approx(direct, abs=1e-10)


def test_witness_value_factorized_matches_closed():
    for lam in (1.5, 2.0, 4.0, 16.0):
        for n in (1, 2, 3, 6):
            eps = lemma1_epsilon(lam, n)
            closed = lemma1_witness_value(lam, eps, n)
            numeric = lemma1_witness_value_numeric(lam, eps, n)
            assert closed == pytest.approx(numeric, abs=1e-10)


def test_witness_value_sign_threshold():
    for lam in (1.5, 2.0, 4.0):
        for n in (1, 2):
            threshold = 1.0 / (lam ** (n + 1) + 1.0)
            for frac in (0.5, 0.9, 1.1):
                eps = frac * threshold
                if eps > 1.0 / (1.0 + lam):
                    continue
                value = lemma1_witness_value(lam, eps, n)
                if frac < 1.0:
                    assert value > 1e-12
                else:
                    assert value < -1e-12


def test_witness_value_zero_at_threshold():
    lam, n = 2.0, 1
    eps = 1.0 / (lam ** (n + 1) + 1.0)
    assert abs(lemma1_witness_value(lam, eps, n)) < 1e-12


def test_block_positivity_small_cases():
    for lam, eps, n in ((2.0, EPS1, 1), (4.0, 1.0 / 33.0, 2)):
        report = check_composability(lemma1_df(lam, eps), n, Strategy.BLOCK_REDUCED)
        assert report.verdict is Verdict.PASS


def test_block_positivity_matches_full_brute_force():
    for lam in (1.5, 2.0, 4.0):
        for frac in (0.4, 0.8, 1.0):
            eps = frac / (1.0 + lam)
            for n in (1, 2):
                block = check_composability(
                    lemma1_df(lam, eps), n, Strategy.BLOCK_REDUCED
                )
                full = check_weak_positivity(
                    tensor_power(lemma1_df(lam, eps), n)
                )
                assert block.passed == full.passed, (lam, frac, n)


def test_block_positivity_fail_witness_lifts():
    lam, eps, n = 2.0, 1.0 / 3.0, 2  # boundary eps breaks two copies
    report = ncopy_positivity_check(lam, eps, n)
    assert report.verdict is Verdict.FAIL
    D2 = tensor_power(lemma1_df(lam, eps), n)
    value = quadratic_form(D2.matrix, report.witness.indicator).real
    assert value == pytest.approx(report.witness_value, abs=1e-12)


def test_ncopy_fail_scans_unscaled_blocks():
    # The eps-scaled block form is -7.5e-11, inside the absolute TOL_POS, but
    # the unscaled block A (x) B (x) B is scanned, so the violation is found.
    lam = 128.0
    report = ncopy_positivity_check(lam, lemma1_epsilon(lam, 2), 3)
    assert report.verdict is Verdict.FAIL
    assert report.witness.indices == (11, 33)
    assert report.witness_value == pytest.approx(-7.504e-11, rel=1e-6)


def test_norm_bound_values():
    bound = norm_bound(4.0, 1.0 / 33.0, 0, 1)
    assert bound == pytest.approx(1.0 - 5.0 / 33.0, abs=1e-12)
    assert bound == pytest.approx(0.8485, abs=1e-4)
    with pytest.raises(DflabError):
        norm_bound(2.0, 0.1, 1, 0)


@pytest.mark.parametrize(
    "compute",
    [
        lambda: lemma1_epsilon(2.0, 1100),
        lambda: lemma1_epsilon(1e300, 2),
        lambda: lemma1_witness_value(1e300, 1e-301, 2),
        lambda: lemma1_witness_value(1.0001, 1e-300, 1100),
        lambda: witness_is_negative(1e300, 1e-301, 2),
        lambda: norm_bound(2.0, 1e-300, 700, 1),
        lambda: norm_bound(2.0, 1 / 3, 0, 2500),
    ],
    ids=["epsilon-n", "epsilon-lam", "witness-lam", "witness-n", "sign", "norm-a", "norm-b"],
)
def test_float_powers_beyond_range_are_input_errors(compute):
    with pytest.raises(DflabError, match="beyond the float range"):
        compute()


def test_norm_bound_certificate_sound():
    # a positive bound must imply a passing enumeration
    for lam in (2.0, 4.0, 8.0):
        for n in (1, 2, 3):
            eps = lemma1_epsilon(lam, n)
            for n1 in range(0, n):
                n2 = n - n1
                if norm_bound(lam, eps, n1, n2) > 0.0:
                    from dflab.kernels import scan_ascending

                    A = coupling_matrix(lam)
                    B = np.eye(2) - eps * A
                    block = reduce(np.kron, [A] * n1 + [B] * n2)
                    key, _, _ = scan_ascending(block, 1e-10)
                    assert key is None, (lam, n, n1, n2)


def test_norm_bound_tends_to_one():
    lam = 2.0 ** 20
    for n in (1, 2, 3):
        eps = lemma1_epsilon(lam, n)
        for n1 in range(0, n):
            assert norm_bound(lam, eps, n1, n - n1) > 0.99


def test_ncopy_check_certifies_lam4():
    report = ncopy_positivity_check(4.0, 1.0 / 33.0, 2)
    assert report.verdict is Verdict.CERTIFIED
    assert report.strategy is Strategy.NORM_BOUND
    assert report.vectors_checked == 0


def test_find_lambda_small_n():
    # with the certificate-then-enumeration fallback, lam = 2 already passes
    # for every small n (cross-checked against full brute force above)
    for n in (1, 2, 3):
        params, report = find_lambda(n)
        assert params.lam == 2.0
        assert params.eps == pytest.approx(lemma1_epsilon(2.0, n), abs=1e-15)
        assert lemma1_witness_value(params.lam, params.eps, n) < -1e-10


def test_find_lambda_result_satisfies_contract():
    for n in (1, 2, 3, 4):
        params, report = find_lambda(n)
        assert params.lam <= 2.0 ** 20
        assert report.passed
        assert ncopy_positivity_check(params.lam, params.eps, n).passed
        assert lemma1_witness_value(params.lam, params.eps, n) < -1e-10


def test_find_lambda_certificate_only_regime():
    # beyond the per-block enumeration cap only certificates can decide; the
    # witness value scale collapses but its sign test still fires
    from dflab.lemma1 import witness_is_negative

    params, report = find_lambda(5)
    assert params.lam == 8.0
    report = ncopy_positivity_check(params.lam, params.eps, 5)
    assert report.verdict is Verdict.CERTIFIED
    value = lemma1_witness_value(params.lam, params.eps, 5)
    assert value < 0
    assert witness_is_negative(params.lam, params.eps, 5)
    assert lemma1_experiment(5).lemma_holds


def test_experiment_reports():
    for n in (1, 2, 3):
        report = lemma1_experiment(n)
        assert report.lemma_holds
        assert report.witness_value == pytest.approx(
            report.witness_value_numeric, abs=1e-10
        )
        assert report.n_copy_verdict.passed


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _positivity_fields(report):
    witness = None if report.witness is None else report.witness.indices
    return (report.verdict, witness, _bits(report.witness_value),
            report.vectors_checked, report.strategy)


# the lam the doubling search settles on, for n = 1..10
SEARCHED_LAMBDA = {1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 8.0, 6: 8.0, 7: 8.0,
                   8: 8.0, 9: 16.0, 10: 16.0}


@pytest.mark.parametrize("n", sorted(SEARCHED_LAMBDA))
def test_experiment_checks_each_power_once_per_lambda(monkeypatch, n):
    tried = []

    def counted(lam, eps, n, tol=TOL_POS):
        tried.append(lam)
        return ncopy_positivity_check(lam, eps, n, tol)

    monkeypatch.setattr("dflab.lemma1.ncopy_positivity_check", counted)
    lam = SEARCHED_LAMBDA[n]
    searched = lemma1_experiment(n)
    assert searched.params.lam == lam
    # one check per lam tried: 2, 4, ..., lam and no re-check at the winner
    assert tried == [2.0 ** k for k in range(1, int(math.log2(lam)) + 1)]

    fixed = lemma1_experiment(n, lam=lam)
    assert fixed.params == searched.params
    assert _positivity_fields(searched.n_copy_verdict) == _positivity_fields(
        fixed.n_copy_verdict
    )
    assert _bits(searched.witness_value) == _bits(fixed.witness_value)
    assert _bits(searched.witness_value_numeric) == _bits(fixed.witness_value_numeric)
    assert searched.lemma_holds is fixed.lemma_holds is True

    params, report = find_lambda(n)
    fresh = ncopy_positivity_check(params.lam, params.eps, n)
    assert _positivity_fields(report) == _positivity_fields(fresh)


def test_experiment_with_given_eps_checks_the_moved_point(monkeypatch):
    tried = []

    def counted(lam, eps, n, tol=TOL_POS):
        tried.append((lam, eps))
        return ncopy_positivity_check(lam, eps, n, tol)

    monkeypatch.setattr("dflab.lemma1.ncopy_positivity_check", counted)
    report = lemma1_experiment(4, eps=0.03)
    assert tried == [(2.0, lemma1_epsilon(2.0, 4)), (2.0, 0.03)]
    assert _positivity_fields(report.n_copy_verdict) == _positivity_fields(
        ncopy_positivity_check(2.0, 0.03, 4)
    )


def test_experiment_cross_check_detects_mismatch(monkeypatch):
    # at n = 5 both witness values are ~1e-26, below any absolute tolerance
    original = lemma1_witness_value_numeric
    monkeypatch.setattr(
        "dflab.lemma1.lemma1_witness_value_numeric",
        lambda lam, eps, n: 2.0 * original(lam, eps, n),
    )
    with pytest.raises(DflabError, match="disagree"):
        lemma1_experiment(5)


def test_experiment_cross_check_near_threshold():
    # the witness value cancels to ~1e-13 here; both routes round alike
    lam, n = 2.0, 1
    eps = (1.0 + 1e-12) / (lam ** (n + 1) + 1.0)
    report = lemma1_experiment(n, lam=lam, eps=eps)
    assert report.witness_value < 0


def test_experiment_explicit_params():
    report = lemma1_experiment(1, lam=2.0)
    assert report.params.eps == pytest.approx(EPS1, abs=1e-15)
    assert report.witness_value == pytest.approx(-0.039967, abs=1e-6)


def test_family_never_strongly_positive():
    for lam in (1.5, 2.0, 3.0, 8.0):
        for frac in (0.3, 0.7, 1.0):
            eps = frac / (1.0 + lam)
            report = validate_df(lemma1_df(lam, eps))
            assert report.level == ValidationLevel.WEAKLY_POSITIVE
            assert report.strong.min_eigenvalue == pytest.approx(
                eps * (1.0 - lam) / 2.0, abs=1e-10
            )


@pytest.mark.parametrize("n", range(1, 11))
def test_experiment_json_matches_the_route_through_lemma1_df(n):
    # the numeric witness value read from a validated lemma1_df, as a
    # caller would, gives the same report bytes as the family's own matrix
    report = lemma1_experiment(n)
    p = report.params
    reference = replace(
        report, witness_value_numeric=oracles.lemma1_numeric_via_df(p.lam, p.eps, p.n)
    )
    assert (jsonio.dump_json(jsonio.lemma1_report_to_dict(report))
            == jsonio.dump_json(jsonio.lemma1_report_to_dict(reference)))
