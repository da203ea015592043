import itertools

import numpy as np
import pytest

from dflab import maximality
from dflab.axioms import check_weak_positivity, validate_df
from dflab.compose import tensor
from dflab.core import (
    TOL_EQ,
    DflabError,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
)
from dflab.lemma1 import lemma1_df, lemma1_epsilon
from dflab.maximality import (
    is_nonneg_hermitian,
    min_eig_witness,
    nondecohering_property_partition,
    pnn_violation_search,
    random_weakly_positive_nonsp,
    verify_lemma2,
)
from oracles import quadratic_form

EPS1 = lemma1_epsilon(2.0, 1)


def test_min_eig_witness_diagonal():
    space = make_space(["0", "1"])
    D = df_from_matrix(np.diag([-1.0, 1.0]), space)
    value, vector = min_eig_witness(D)
    assert value == pytest.approx(-1.0)
    assert np.allclose(vector, [1.0, 0.0])


def test_min_eig_witness_family():
    value, vector = min_eig_witness(lemma1_df(2.0, EPS1))
    assert value == pytest.approx(-EPS1 / 2.0, abs=1e-12)
    expected = np.zeros(4)
    expected[0], expected[2] = 1.0 / np.sqrt(2), -1.0 / np.sqrt(2)
    assert np.abs(vector - expected).max() < 1e-10


def test_min_eig_witness_phase_canonical():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        space = make_space([f"h{i}" for i in range(dim)])
        _, vector = min_eig_witness(df_from_matrix((g + g.conj().T) / 2, space))
        first = vector[np.abs(vector) > 1e-12][0]
        assert abs(first.imag) < 1e-12 and first.real > 0


def test_counterexample_partner_family():
    D = lemma1_df(2.0, EPS1)
    report = verify_lemma2(D)
    partner, witness = report.partner, report.witness
    assert partner.dim == 8
    assert witness.weight == 4
    assert witness.indices == (0, 10, 20, 30)
    assert set(np.unique(witness.indicator)) <= {0, 1}
    assert validate_df(partner).level == ValidationLevel.STRONGLY_POSITIVE


def test_counterexample_partner_rejects_psd():
    space = make_space(["0", "1"])
    D = df_from_matrix(np.diag([0.5, 0.5]), space)
    with pytest.raises(DflabError):
        verify_lemma2(D)


def test_verify_lemma2_family_values():
    report = verify_lemma2(lemma1_df(2.0, EPS1))
    assert report.input_dim == 4
    assert report.min_eigenvalue == pytest.approx(-EPS1 / 2.0, abs=1e-12)
    assert report.lhs == pytest.approx(report.rhs, abs=1e-10)
    assert report.lhs == pytest.approx(-EPS1 / 8.0, abs=1e-12)
    assert report.lhs == pytest.approx(-0.0326505, abs=1e-6)
    assert report.matched
    assert report.lhs < -1e-10


def test_verify_lemma2_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(8):
        dim = int(rng.integers(2, 6))
        D = random_weakly_positive_nonsp(rng, dim)
        report = verify_lemma2(D)
        assert report.matched, dim
        assert report.lhs < -1e-10


def test_verify_lemma2_rejects_psd():
    space = make_space(["0", "1"])
    with pytest.raises(DflabError):
        verify_lemma2(df_from_matrix(np.diag([0.5, 0.5]), space))


def test_generator_produces_weakly_positive_nonsp():
    rng = np.random.default_rng(23)
    for _ in range(6):
        D = random_weakly_positive_nonsp(rng, 4)
        report = validate_df(D)
        assert report.level == ValidationLevel.WEAKLY_POSITIVE
        assert report.strong.min_eigenvalue < -1e-8


def test_is_nonneg_hermitian():
    space = make_space(["0", "1"])
    lam = 2.0
    block = EPS1 * np.array([[1.0, lam], [lam, 1.0]]) / (2 * EPS1 * (1 + lam))
    assert is_nonneg_hermitian(df_from_matrix(block, space))
    assert not is_nonneg_hermitian(lemma1_df(2.0, EPS1))
    complex_phase = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    assert not is_nonneg_hermitian(df_from_matrix(complex_phase, space))


def two_property_space():
    return make_space(
        ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], factors=[("p", 2), ("q", 2)]
    )


def test_nondecohering_partition_diagonal_returns_none():
    space = two_property_space()
    D = df_from_matrix(np.diag([0.1, 0.2, 0.3, 0.4]), space)
    assert nondecohering_property_partition(D) is None


def test_nondecohering_partition_first_property():
    space = two_property_space()
    M = np.diag([0.2, 0.2, 0.3, 0.3]).astype(complex)
    M[0, 2] = M[2, 0] = 0.1  # histories (0,0) and (1,0) differ in property 0
    D = df_from_matrix(M, space)
    found = nondecohering_property_partition(D)
    assert found is not None
    k, partition, pair = found
    assert k == 0
    assert pair == (0, 1)
    cross = df_evaluate(D, partition.cells[0], partition.cells[1])
    assert abs(cross) >= 0.1


def test_nondecohering_partition_second_property():
    space = two_property_space()
    M = np.diag([0.2, 0.2, 0.3, 0.3]).astype(complex)
    M[0, 1] = M[1, 0] = 0.05  # same first property, different second
    D = df_from_matrix(M, space)
    k, partition, pair = nondecohering_property_partition(D)
    assert k == 1
    assert abs(df_evaluate(D, partition.cells[pair[0]], partition.cells[pair[1]])) > 1e-10


def test_nondecohering_partition_requires_class_membership():
    D = lemma1_df(2.0, EPS1)  # has a negative entry
    with pytest.raises(DflabError):
        nondecohering_property_partition(D)


def test_nondecohering_partition_exhaustive_patterns():
    # every off-diagonal sparsity pattern on the 2-property 4-history space
    space = two_property_space()
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(64):
        M = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                M[i, j] = M[j, i] = 0.05
        D = df_from_matrix(M, space)
        found = nondecohering_property_partition(D)
        if mask == 0:
            assert found is None
        else:
            k, partition, pair = found
            assert pair[0] != pair[1]
            cross = df_evaluate(D, partition.cells[pair[0]], partition.cells[pair[1]])
            assert abs(cross) > 1e-10


def test_nondecohering_partition_subtolerance_entries_count_as_diagonal():
    space = two_property_space()
    M = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    M[0, 3] = M[3, 0] = 1e-12
    D = df_from_matrix(M, space)
    assert nondecohering_property_partition(D) is None


def test_pnn_search_finds_partner_for_negative_entry():
    M = np.array([[1.0, -0.5], [-0.5, 1.0]])
    violation = pnn_violation_search(M)
    assert violation is not None
    # first grid partner with a violating vector: t = 2, s = 2^-6
    assert violation.partner[0, 1] == pytest.approx(2.0)
    assert violation.partner[1, 1] == pytest.approx(2.0 ** -6)
    assert violation.witness.indices == (1, 2)
    assert violation.value == pytest.approx(1.0 + 2.0 ** -6 - 2.0, abs=1e-12)
    # witness soundness on the composed matrix
    composed = np.kron(M, violation.partner.astype(complex))
    value = quadratic_form(composed, violation.witness.indicator).real
    assert value == pytest.approx(violation.value, abs=1e-12)


def test_pnn_search_complex_phase_with_negative_real_part():
    M = np.array([[1.0, -0.3 + 0.4j], [-0.3 - 0.4j, 1.0]])
    violation = pnn_violation_search(M)
    assert violation is not None
    assert violation.value < -1e-10


def test_pnn_search_complex_phase_with_nonnegative_real_part_finds_nothing():
    # a real non-negative partner leaves every binary form of the product a
    # sum of Re(M_ij) * partner entries, so matrices outside the class only
    # through their imaginary parts admit no violation on this grid; the
    # empty result is recorded as a valid outcome
    M = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]])
    assert pnn_violation_search(M) is None


def test_pnn_search_rejects_class_members():
    with pytest.raises(DflabError):
        pnn_violation_search(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_pnn_search_budget_exhaustion_returns_none(monkeypatch):
    monkeypatch.setattr(maximality, "PNN_BUDGET", 5)
    M = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert pnn_violation_search(M) is None


def test_nonneg_class_closed_under_tensor():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        m1 = np.abs(rng.normal(size=(d1, d1)))
        m2 = np.abs(rng.normal(size=(d2, d2)))
        m1 = (m1 + m1.T) / 2
        m2 = (m2 + m2.T) / 2
        s1 = make_space([f"a{i}" for i in range(d1)])
        s2 = make_space([f"b{i}" for i in range(d2)])
        D1, D2 = df_from_matrix(m1, s1), df_from_matrix(m2, s2)
        product = tensor(D1, D2)
        assert is_nonneg_hermitian(product)
        assert check_weak_positivity(product).passed


def test_lemma2_composition_fails_weak_positivity():
    D = lemma1_df(2.0, EPS1)
    lemma2 = verify_lemma2(D)
    partner, witness = lemma2.partner, lemma2.witness
    composed = tensor(D, partner)
    from dflab.axioms import Strategy

    report = check_weak_positivity(composed, strategy=Strategy.BLOCK_REDUCED)
    assert not report.passed
    # the constructed witness itself certifies the violation exactly
    value = df_evaluate(composed, witness, witness).real
    assert value == pytest.approx(-EPS1 / 8.0, abs=1e-12)


def scaled(D, factor):
    return df_from_matrix(D.matrix * factor, D.space)


@pytest.mark.parametrize("factor", [1.0, 1e6, 1e12])
def test_lemma2_matches_at_every_scale(factor):
    # an absolute tolerance missed most correct witnesses at 1e12
    for dim in range(2, 13):
        for seed in range(5):
            D = random_weakly_positive_nonsp(np.random.default_rng([seed, dim]), dim)
            report = verify_lemma2(scaled(D, factor))
            assert report.matched, (dim, seed, report.lhs, report.rhs)


def test_lemma2_tampered_partner_does_not_match(monkeypatch):
    # a partner from a perturbed eigenvector misses rhs by about 15 %; at
    # lambda_min = -4e-10 that gap is inside an absolute 1e-10
    D = random_weakly_positive_nonsp(np.random.default_rng(4), 4)
    D = scaled(D, -4e-10 / np.linalg.eigvalsh(D.matrix)[0])
    honest = maximality.dv_family

    def tampered(v):
        w = v + 0.1 * np.roll(v, 1)
        return honest(w / np.linalg.norm(w))

    monkeypatch.setattr(maximality, "dv_family", tampered)
    report = verify_lemma2(D)
    assert abs(report.lhs - report.rhs) > 0.1 * abs(report.rhs)
    assert abs(report.lhs - report.rhs) <= TOL_EQ
    assert not report.matched


def test_lemma2_matches_on_a_large_scale_one_corpus():
    rng = np.random.default_rng(2024)
    unmatched = []
    for draw in range(2000):
        D = random_weakly_positive_nonsp(rng, int(rng.integers(2, 13)))
        if not verify_lemma2(D).matched:
            unmatched.append(draw)
    assert unmatched == []
