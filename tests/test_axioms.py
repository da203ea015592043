import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab.axioms import (
    Strategy,
    Verdict,
    check_hermiticity,
    check_normalization,
    check_partition_decoherence,
    check_strong_positivity,
    check_weak_positivity,
    validate_df,
)
from dflab.compose import tensor_power
from dflab.core import (
    DecoherenceFunctional,
    Event,
    Partition,
    UndecidableBlockError,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
    single_property_partition,
)
from dflab.kernels import key_to_indicator, scan_ascending
from dflab.lemma1 import lemma1_df, lemma1_epsilon, lemma1_witness_value
from oracles import quadratic_form

EPS1 = lemma1_epsilon(2.0, 1)


def classical_df(probs):
    space = make_space([str(i) for i in range(len(probs))])
    return df_from_matrix(np.diag(probs).astype(complex), space, require_normalized=True)


def test_hermiticity_real_symmetric():
    space = make_space(["0", "1"])
    D = DecoherenceFunctional(space, np.array([[1.0, 2.0], [2.0, 3.0]]))
    ok, dev = check_hermiticity(D)
    assert ok and dev == 0.0


def test_hermiticity_both_entries_i():
    space = make_space(["0", "1"])
    D = DecoherenceFunctional(space, np.array([[0.0, 1j], [1j, 0.0]]))
    ok, dev = check_hermiticity(D)
    assert not ok
    assert dev == pytest.approx(2.0)


def test_normalization_cases():
    assert check_normalization(classical_df([0.5, 0.5]))[0]
    doubled = DecoherenceFunctional(make_space(["0", "1"]), np.diag([1.0, 1.0]))
    ok, value = check_normalization(doubled)
    assert not ok
    assert value == pytest.approx(2.0)


def test_normalization_family_grid():
    for lam in (1.5, 2.0, 4.0, 9.0):
        for frac in (0.25, 0.7, 1.0):
            eps = frac / (1.0 + lam)
            ok, value = check_normalization(lemma1_df(lam, eps))
            assert ok, (lam, eps, value)


def test_weak_positivity_psd_passes():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    M = g @ g.conj().T
    space = make_space([f"h{i}" for i in range(5)])
    report = check_weak_positivity(DecoherenceFunctional(space, M))
    assert report.verdict is Verdict.PASS
    assert report.vectors_checked == 2**5 - 1


def test_weak_positivity_family_passes():
    report = check_weak_positivity(lemma1_df(2.0, EPS1))
    assert report.verdict is Verdict.PASS


def test_weak_positivity_two_copies_fail_with_closed_form_value():
    D2 = tensor_power(lemma1_df(2.0, EPS1), 2)
    report = check_weak_positivity(D2)
    assert report.verdict is Verdict.FAIL
    # the first ascending violator realizes the same closed-form value
    assert report.witness_value == pytest.approx(
        lemma1_witness_value(2.0, EPS1, 1), abs=1e-10
    )
    assert report.witness_value == pytest.approx(-0.039967, abs=1e-6)


def test_weak_positivity_witness_sound():
    D2 = tensor_power(lemma1_df(2.0, EPS1), 2)
    report = check_weak_positivity(D2)
    re_eval = df_evaluate(D2, report.witness, report.witness).real
    assert re_eval == pytest.approx(report.witness_value, abs=1e-10)


def test_weak_positivity_block_reduced_matches_brute():
    D2 = tensor_power(lemma1_df(2.0, EPS1), 2)
    brute = check_weak_positivity(D2, strategy=Strategy.BRUTE_FORCE)
    blocked = check_weak_positivity(D2, strategy=Strategy.BLOCK_REDUCED)
    assert brute.passed == blocked.passed
    block_val = quadratic_form(D2.matrix, blocked.witness.indicator).real
    assert block_val == pytest.approx(blocked.witness_value, abs=1e-10)


@st.composite
def permuted_block_matrix(draw):
    """Integer Hermitian block-diagonal matrix, indices shuffled (dim <= 12)."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    dim = sum(sizes)
    M = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for size in sizes:
        entries = st.integers(-3, 3)
        re = np.array(draw(st.lists(entries, min_size=size**2, max_size=size**2)))
        im = np.array(draw(st.lists(entries, min_size=size**2, max_size=size**2)))
        g = (re + 1j * im).reshape(size, size)
        M[start:start + size, start:start + size] = g + g.conj().T
        start += size
    perm = np.array(draw(st.permutations(range(dim))))
    return M[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None)
@given(permuted_block_matrix())
def test_weak_positivity_block_reduced_agrees_with_brute_force(M):
    dim = M.shape[0]
    D = DecoherenceFunctional(make_space([f"h{i}" for i in range(dim)]), M)
    brute = check_weak_positivity(D, strategy=Strategy.BRUTE_FORCE)
    blocked = check_weak_positivity(D, strategy=Strategy.BLOCK_REDUCED)
    assert brute.verdict is blocked.verdict
    for report in (brute, blocked):
        if report.witness is not None:
            value = df_evaluate(D, report.witness, report.witness).real
            assert value == report.witness_value < -1e-10
    # the brute-force witness is the lowest violating key of the whole cube
    bits = np.array([key_to_indicator(k, dim) for k in range(1, 1 << dim)])
    forms = np.einsum("ki,ij,kj->k", bits, M.real, bits)
    key = scan_ascending(M, 1e-10).key
    if key is None:
        assert brute.passed and forms.min() >= 0
    else:
        assert key == 1 + int(np.argmax(forms < 0))
        assert np.array_equal(brute.witness.indicator, key_to_indicator(key, dim))


def test_weak_positivity_dimension_cap():
    # brute force is the one-block case: the whole space is a block above 30
    space = make_space([f"h{i}" for i in range(31)])
    D = DecoherenceFunctional(space, np.eye(31))
    with pytest.raises(UndecidableBlockError, match="block of size 31"):
        check_weak_positivity(D)


def test_validate_df_dimension_cap():
    space = make_space([f"h{i}" for i in range(31)])
    D = DecoherenceFunctional(space, np.eye(31))
    with pytest.raises(UndecidableBlockError, match="block of size 31"):
        validate_df(D)


def test_weak_positivity_block_over_cap_is_undecidable():
    # one dense 31-dim block: the same error as the block-power engine raises
    space = make_space([f"h{i}" for i in range(31)])
    D = DecoherenceFunctional(space, np.full((31, 31), 1.0 / 31**2))
    with pytest.raises(UndecidableBlockError, match="exceeds the enumeration cap 30"):
        check_weak_positivity(D, strategy=Strategy.BLOCK_REDUCED)


def test_strong_positivity_diagonal():
    report = check_strong_positivity(classical_df([0.3, 0.7]))
    assert report.min_eigenvalue == pytest.approx(0.3, abs=1e-12)
    assert report.is_sp


def test_strong_positivity_family():
    report = check_strong_positivity(lemma1_df(2.0, EPS1))
    assert report.min_eigenvalue == pytest.approx(EPS1 * (1 - 2.0) / 2, abs=1e-12)
    assert report.min_eigenvalue == pytest.approx(-0.130602, abs=1e-6)
    assert not report.is_sp
    # support sits on the histories with second property 0; canonical phase
    expected = np.zeros(4)
    expected[0], expected[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.abs(report.min_eigenvector - expected).max() < 1e-10


def test_spectral_residual_invariant():
    rng = np.random.default_rng(9)
    for dim in (2, 5, 9):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        M = (g + g.conj().T) / 2
        space = make_space([f"h{i}" for i in range(dim)])
        report = check_strong_positivity(df_from_matrix(M, space))
        assert report.residual <= 1e-9 * np.linalg.norm(M)


def test_partition_decoherence_family_first_property():
    D = lemma1_df(2.0, EPS1)
    part = single_property_partition(D.space, 0)
    report = check_partition_decoherence(D, part, mode="strong")
    assert report.verdict
    assert report.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)


def test_partition_decoherence_family_second_property():
    D = lemma1_df(2.0, EPS1)
    part = single_property_partition(D.space, 1)
    report = check_partition_decoherence(D, part, mode="strong")
    assert report.verdict
    assert report.probabilities[0] == pytest.approx(EPS1 * 3.0, abs=1e-12)
    assert report.probabilities[0] == pytest.approx(0.783612, abs=1e-6)


def test_partition_decoherence_weak_fail_on_real_cross_term():
    space = make_space(["0", "1"])
    D = df_from_matrix(np.array([[0.5, 0.1], [0.1, 0.5]]), space)
    singletons = Partition(
        space, (Event.from_indices(space, [0]), Event.from_indices(space, [1]))
    )
    report = check_partition_decoherence(D, singletons, mode="weak")
    assert not report.verdict
    assert report.max_off_diagonal == pytest.approx(0.1)
    assert report.probabilities is None


def test_strong_pass_implies_weak_pass_on_partition():
    D = lemma1_df(3.0, lemma1_epsilon(3.0, 1))
    for k in (0, 1):
        part = single_property_partition(D.space, k)
        strong = check_partition_decoherence(D, part, mode="strong")
        weak = check_partition_decoherence(D, part, mode="weak")
        assert strong.verdict
        assert weak.verdict


def test_decohering_probabilities_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(4))
        D = classical_df(probs)
        space = D.space
        part = Partition(
            space,
            (Event.from_indices(space, [0, 3]), Event.from_indices(space, [1, 2])),
        )
        report = check_partition_decoherence(D, part, mode="strong")
        assert report.verdict
        assert sum(report.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_validate_classical_reaches_strongly_positive():
    report = validate_df(classical_df([0.25] * 4))
    assert report.level == ValidationLevel.STRONGLY_POSITIVE


def test_validate_family_stops_at_weakly_positive():
    report = validate_df(lemma1_df(2.0, EPS1))
    assert report.level == ValidationLevel.WEAKLY_POSITIVE
    assert report.weak.passed and not report.strong.is_sp


def test_validate_zero_matrix_fails_normalization():
    space = make_space(["0", "1"])
    report = validate_df(DecoherenceFunctional(space, np.zeros((2, 2))))
    assert report.hermitian and not report.normalized
    assert report.level == ValidationLevel.HERMITIAN


def test_sp_implies_weak_positivity():
    rng = np.random.default_rng(33)
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        M = g @ g.conj().T
        M /= M.sum().real
        space = make_space([f"h{i}" for i in range(dim)])
        D = df_from_matrix(M, space)
        spectral = check_strong_positivity(D)
        assert spectral.is_sp
        assert check_weak_positivity(D).passed


def test_weak_pass_implies_nonnegative_diagonal():
    # singleton events are binary vectors, so a pass bounds every diagonal
    D = lemma1_df(2.0, EPS1)
    report = check_weak_positivity(D)
    assert report.passed
    assert (D.matrix.real.diagonal() >= -1e-10).all()
