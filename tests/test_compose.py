import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab.axioms import Strategy, Verdict, check_strong_positivity, check_weak_positivity
from dflab.compose import (
    check_composability,
    detect_blocks,
    singleton_df,
    tensor,
    tensor_power,
)
from dflab.core import (
    TOL_EQ,
    DflabError,
    DimensionCapError,
    Event,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
)
from dflab.lemma1 import lemma1_df, lemma1_epsilon, lemma1_witness_value
from oracles import event_product, quadratic_form


def classical_df(probs):
    space = make_space([str(i) for i in range(len(probs))])
    return df_from_matrix(np.diag(probs).astype(complex), space, require_normalized=True)


def random_sp_df(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = g @ g.conj().T
    M /= M.sum().real
    space = make_space([f"h{i}" for i in range(dim)])
    return df_from_matrix(M, space, require_normalized=True)


def test_tensor_classical():
    product = tensor(classical_df([0.5, 0.5]), classical_df([0.5, 0.5]))
    assert np.allclose(product.matrix, np.diag([0.25] * 4))
    assert product.validation_level == ValidationLevel.NORMALIZED


def test_tensor_with_singleton_is_identity():
    D = classical_df([0.3, 0.7])
    product = tensor(D, singleton_df())
    assert np.allclose(product.matrix, D.matrix)


def test_tensor_dimension_cap():
    # 65 * 64 = 4160 > 4096; the cap is checked before kron materializes it
    with pytest.raises(DimensionCapError):
        tensor(classical_df([1.0 / 65] * 65), classical_df([1.0 / 64] * 64))


def test_rectangle_factorization_exhaustive_2x2():
    rng = np.random.default_rng(1)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s1 = make_space(["a0", "a1"])
    s2 = make_space(["b0", "b1"])
    D1 = df_from_matrix((g1 + g1.conj().T) / 2, s1)
    D2 = df_from_matrix((g2 + g2.conj().T) / 2, s2)
    D12 = tensor(D1, D2)
    events1 = [Event(s1, np.array(bits)) for bits in itertools.product((0, 1), repeat=2)]
    events2 = [Event(s2, np.array(bits)) for bits in itertools.product((0, 1), repeat=2)]
    for A1, A2, B1, B2 in itertools.product(events1, events2, events1, events2):
        lhs = df_evaluate(D12, event_product(A1, A2), event_product(B1, B2))
        rhs = df_evaluate(D1, A1, B1) * df_evaluate(D2, A2, B2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rectangle_factorization_exhaustive_4x4():
    # all 2^4 events on each side, every rectangle pair, via one dense check
    D1 = lemma1_df(2.0, lemma1_epsilon(2.0, 1))
    D2 = lemma1_df(3.0, lemma1_epsilon(3.0, 1))
    D12 = tensor(D1, D2)
    events = np.array(
        [bits for bits in itertools.product((0, 1), repeat=4)], dtype=float
    )
    gram1 = events @ D1.matrix @ events.T
    gram2 = events @ D2.matrix @ events.T
    rectangles = (events[:, None, :, None] * events[None, :, None, :]).reshape(
        256, 16
    )
    lhs = rectangles @ D12.matrix @ rectangles.T
    rhs = np.kron(gram1, gram2)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_tensor_preserves_hermiticity_and_normalization():
    rng = np.random.default_rng(6)
    for _ in range(10):
        D1 = random_sp_df(rng, int(rng.integers(2, 5)))
        D2 = random_sp_df(rng, int(rng.integers(2, 5)))
        product = tensor(D1, D2)
        assert np.abs(product.matrix - product.matrix.conj().T).max() < 1e-12
        assert complex(product.matrix.sum()) == pytest.approx(1.0, abs=1e-10)


def test_sp_closure_under_tensor():
    rng = np.random.default_rng(7)
    for _ in range(10):
        D1 = random_sp_df(rng, 3)
        D2 = random_sp_df(rng, 3)
        sp1 = check_strong_positivity(D1)
        sp2 = check_strong_positivity(D2)
        assert sp1.is_sp and sp2.is_sp
        product = tensor(
            D1.at_level(ValidationLevel.STRONGLY_POSITIVE),
            D2.at_level(ValidationLevel.STRONGLY_POSITIVE),
        )
        assert product.validation_level == ValidationLevel.STRONGLY_POSITIVE
        assert check_strong_positivity(product).min_eigenvalue >= -1e-10


def test_tensor_power_basics():
    D = lemma1_df(2.0, lemma1_epsilon(2.0, 1))
    assert tensor_power(D, 0).dim == 1
    assert tensor_power(D, 0).matrix[0, 0] == 1.0
    assert np.allclose(tensor_power(D, 1).matrix, D.matrix)
    D2 = tensor_power(D, 2)
    assert D2.dim == 16
    assert complex(D2.matrix.sum()) == pytest.approx(1.0, abs=1e-10)


def test_detect_blocks_family():
    D = lemma1_df(2.0, lemma1_epsilon(2.0, 1))
    blocks = detect_blocks(D)
    assert blocks == ((0, 2), (1, 3))
    # no coupling across blocks: every entry outside them is within TOL_EQ
    outside = np.ones(D.matrix.shape, dtype=bool)
    for block in blocks:
        outside[np.ix_(block, block)] = False
    assert np.abs(D.matrix[outside]).max() <= TOL_EQ


def test_detect_blocks_dense_and_diagonal():
    space = make_space(["0", "1", "2"])
    dense = df_from_matrix(np.full((3, 3), 1.0 / 9), space)
    assert len(detect_blocks(dense)) == 1
    diagonal = df_from_matrix(np.diag([0.2, 0.3, 0.5]), space)
    assert len(detect_blocks(diagonal)) == 3


def test_composability_family_n1_pass_n2_fail():
    D = lemma1_df(2.0, lemma1_epsilon(2.0, 1))
    for strategy in (Strategy.BRUTE_FORCE, Strategy.BLOCK_REDUCED):
        assert check_composability(D, 1, strategy).verdict is Verdict.PASS
        report = check_composability(D, 2, strategy)
        assert report.verdict is Verdict.FAIL
        assert report.witness_value < 0


def test_composability_lam4_n2_pass_n3_fail():
    D = lemma1_df(4.0, 1.0 / 33)
    assert check_composability(D, 2, Strategy.BLOCK_REDUCED).verdict is Verdict.PASS
    report = check_composability(D, 3, Strategy.BLOCK_REDUCED)
    assert report.verdict is Verdict.FAIL
    assert report.witness_block == (2, 1)
    assert report.witness_value == pytest.approx(-2.23e-4, abs=1e-6)
    assert report.witness_value == pytest.approx(
        lemma1_witness_value(4.0, 1.0 / 33, 2), abs=1e-12
    )


def test_composability_block_witness_lifts_to_full_power():
    D = lemma1_df(4.0, 1.0 / 33)
    report = check_composability(D, 3, Strategy.BLOCK_REDUCED)
    D3 = tensor_power(D, 3)
    indicator = np.zeros(64, dtype=np.int8)
    indicator[list(report.witness_indices)] = 1
    value = quadratic_form(D3.matrix, indicator).real
    assert value == pytest.approx(report.witness_value, abs=1e-12)


def test_composability_strategies_agree_on_grid():
    for lam in (1.5, 2.0, 4.0):
        for frac in (0.3, 1.0):
            D = lemma1_df(lam, frac / (1.0 + lam))
            for n in (1, 2):
                brute = check_composability(D, n, Strategy.BRUTE_FORCE)
                blocked = check_composability(D, n, Strategy.BLOCK_REDUCED)
                assert brute.passed == blocked.passed, (lam, frac, n)


def test_composability_brute_force_cap():
    D = classical_df([0.25] * 4)
    with pytest.raises(DflabError):
        check_composability(D, 3, Strategy.BRUTE_FORCE)  # 4^3 = 64 > cap


def test_composability_brute_force_at_shared_cap():
    # dim^n = 25 lies under the one enumeration cap of 30
    report = check_composability(classical_df([0.2] * 5), 2, Strategy.BRUTE_FORCE)
    assert report.verdict is Verdict.PASS
    assert report.vectors_checked == 2 ** 25 - 1


@st.composite
def permuted_block_diagonal(draw):
    """Hermitian integer matrix: 2-3 blocks of size 1-3 under a random
    relabeling, with n copies such that dim^n <= 16. Every binary form is an
    integer, so no verdict sits near the tolerance."""
    n = draw(st.integers(1, 4))
    max_dim = max(d for d in range(2, 10) if d ** n <= 16)
    count = draw(st.integers(2, min(3, max_dim)))
    sizes = []
    for k in range(count):
        room = max_dim - sum(sizes) - (count - k - 1)
        sizes.append(draw(st.integers(1, min(3, room))))
    dim = sum(sizes)
    entries = st.integers(-3, 3)
    M = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            M[i, i] = draw(entries)
            for j in range(i + 1, start + size):
                M[i, j] = complex(draw(entries), draw(entries))
                M[j, i] = M[i, j].conjugate()
        start += size
    perm = np.array(draw(st.permutations(range(dim))))
    return M[np.ix_(perm, perm)], n


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal())
def test_block_reduced_matches_brute_force(case):
    M, n = case
    D = df_from_matrix(M, make_space([f"h{i}" for i in range(M.shape[0])]))
    Dn = tensor_power(D, n)
    brute = check_composability(D, n, Strategy.BRUTE_FORCE)
    blocked = check_composability(D, n, Strategy.BLOCK_REDUCED)
    assert brute.verdict is blocked.verdict
    for report in (brute, blocked):
        if report.verdict is Verdict.FAIL:
            indicator = np.zeros(Dn.dim, dtype=np.int8)
            indicator[list(report.witness_indices)] = 1
            value = quadratic_form(Dn.matrix, indicator).real
            assert value == pytest.approx(report.witness_value, abs=1e-9)


def test_tensor_requires_hermitian_inputs():
    space = make_space(["0", "1"])
    from dflab.core import DecoherenceFunctional

    bad = DecoherenceFunctional(space, np.array([[0.0, 1j], [2j, 0.0]]))
    good = classical_df([0.5, 0.5])
    with pytest.raises(DflabError):
        tensor(bad, good)


def test_weak_positivity_not_marked_on_tensor():
    # weak positivity does not transfer through composition, so a product of
    # two weakly positive inputs is only certified Normalized
    D = lemma1_df(2.0, lemma1_epsilon(2.0, 1)).at_level(
        ValidationLevel.WEAKLY_POSITIVE
    )
    product = tensor(D, D)
    assert product.validation_level == ValidationLevel.NORMALIZED
    assert not check_weak_positivity(product).passed


def test_tensor_result_shares_no_memory_with_its_factors():
    D1 = lemma1_df(2.0, lemma1_epsilon(2.0, 1))
    D2 = df_from_matrix(np.diag([0.2, 0.8]).astype(np.complex128),
                        make_space(["x", "y"]), require_normalized=True)
    T = tensor(D1, D2)
    assert not T.matrix.flags.writeable
    for factor in (D1, D2):
        assert not np.shares_memory(T.matrix, factor.matrix)
    assert np.array_equal(T.matrix, np.kron(D1.matrix, D2.matrix))
