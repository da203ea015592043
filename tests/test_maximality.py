import itertools

import numpy as np
import pytest

import oracles
from dflab import jsonio, maximality
from dflab.axioms import check_weak_positivity, validate_df
from dflab.compose import tensor
from dflab.core import (
    DENSE_DIM_CAP,
    TOL_EQ,
    DflabError,
    DimensionCapError,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
)
from dflab.lemma1 import lemma1_df, lemma1_epsilon
from dflab.maximality import (
    is_nonneg_hermitian,
    min_eig_witness,
    pnn_violation_search,
    random_weakly_positive_nonsp,
    verify_lemma2,
)
from dflab.kernels import key_to_indicator
from dflab.quantum import dv_family
from oracles import (
    nondecohering_property_partition,
    per_point_pnn_search,
    per_scale_weakly_positive_nonsp,
    quadratic_form,
)

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


# ---------------------------------------------------------------- one-pass filters

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
PAIRS = [
    np.array([[1.0, -0.5], [-0.5, 1.0]]),
    np.array([[1.0, -0.3 + 0.4j], [-0.3 - 0.4j, 1.0]]),
    np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.0]]),
]


def pnn_outcome(search, matrix):
    """Partner, witness and value bits of a search, its None, or its error."""
    try:
        found = search(matrix)
    except DflabError as exc:
        return "raised", str(exc)
    if found is None:
        return None
    return (found.partner.tobytes(), found.witness.indices,
            np.float64(found.value).tobytes())


def count_scans(monkeypatch, module):
    """Route ``module.scan_ascending`` through a counter; returns the counter."""
    calls = [0]
    scan = module.scan_ascending

    def counted(*args, **kwargs):
        calls[0] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(module, "scan_ascending", counted)
    return calls


def test_pnn_search_matches_per_point_search(monkeypatch):
    new_scans = count_scans(monkeypatch, maximality)
    old_scans = count_scans(monkeypatch, oracles)
    skipped = rescans = raised = 0
    corpus = [
        random_weakly_positive_nonsp(np.random.default_rng([seed, dim]), dim).matrix
        for dim in range(2, 10) for seed in range(4)
    ]
    for matrix in corpus:
        for factor in SCALES:
            M = matrix * factor
            new_scans[0] = old_scans[0] = 0
            outcome = pnn_outcome(pnn_violation_search, M)
            assert outcome == pnn_outcome(per_point_pnn_search, M), (M.shape, factor)
            if outcome is not None and outcome[0] == "raised":
                raised += 1
                continue
            # every corpus cube fits PNN_BUDGET, so each scan here is a rescan
            skipped += old_scans[0] - new_scans[0]
            rescans += new_scans[0]
    for M in PAIRS:
        assert pnn_outcome(pnn_violation_search, M) == pnn_outcome(per_point_pnn_search, M)
    assert skipped > 0 and rescans > 0 and raised > 0


@pytest.mark.parametrize("dim", range(1, 10))
def test_pnn_search_matches_per_point_search_on_every_budget_edge(monkeypatch, dim):
    if dim == 1:
        matrices = [np.array([[-1.0]])]
    elif dim == 2:
        matrices = PAIRS
    else:
        matrices = [random_weakly_positive_nonsp(np.random.default_rng([0, dim]), dim).matrix]
    cube = (1 << 2 * dim) - 1
    for budget in (5, cube - 1, cube, 3 * cube + 1):
        monkeypatch.setattr(maximality, "PNN_BUDGET", budget)
        for M in matrices:
            assert (pnn_outcome(pnn_violation_search, M)
                    == pnn_outcome(per_point_pnn_search, M)), budget


def least_form(matrix):
    dim = matrix.shape[0]
    return min(quadratic_form(matrix, key_to_indicator(k, dim)).real
               for k in range(1, 1 << dim))


def violating_corpus():
    corpus = PAIRS[:2] + [
        random_weakly_positive_nonsp(np.random.default_rng([0, dim]), dim).matrix
        for dim in (3, 4, 5)
    ]
    return [(M, pnn_violation_search(M)) for M in corpus]


def grid_index(partner):
    grid = maximality.PNN_GRID
    return grid.index(partner[0, 1]) * len(grid) + grid.index(partner[1, 1])


def test_pnn_budget_that_ends_at_the_witness(monkeypatch):
    # each of the k points before the violating one costs a whole cube: a
    # budget that reaches the witness key finds it, one key less gives None
    for M, found in violating_corpus():
        width = 2 * M.shape[0]
        cube = (1 << width) - 1
        key = sum(1 << (width - 1 - i) for i in found.witness.indices)
        reach = grid_index(found.partner) * cube + key
        for budget, expected in ((reach, pnn_outcome(lambda _: found, M)),
                                 (reach - 1, None)):
            monkeypatch.setattr(maximality, "PNN_BUDGET", budget)
            assert pnn_outcome(pnn_violation_search, M) == expected, budget
            assert pnn_outcome(per_point_pnn_search, M) == expected, budget


def test_pnn_search_rescans_a_point_in_the_band():
    # A cutoff -tol at the least form of the found point's product puts that
    # point within the slack, so only its rescan decides; 16·dim·ε·Σ|S| higher
    # is still within the slack but above the scan's rounding.
    eps = np.finfo(np.float64).eps
    for M, found in violating_corpus():
        product = np.kron(M, found.partner)
        least = least_form(product)
        weight = np.abs(product.real).sum()
        for cutoff in (least, least + 16 * M.shape[0] * eps * weight):
            assert (pnn_outcome(lambda m: pnn_violation_search(m, -cutoff), M)
                    == pnn_outcome(lambda m: per_point_pnn_search(m, -cutoff), M))


def test_pnn_pass_runs_only_when_a_cube_fits_the_budget(monkeypatch):
    passes = [0]
    proven_clean = maximality._proven_clean

    def counted(*args):
        passes[0] += 1
        return proven_clean(*args)

    monkeypatch.setattr(maximality, "_proven_clean", counted)
    for dim, expected in ((9, 1), (10, 0)):
        M = random_weakly_positive_nonsp(np.random.default_rng([0, dim]), dim).matrix
        passes[0] = 0
        pnn_violation_search(M)
        assert passes[0] == expected, dim
    monkeypatch.setattr(maximality, "PNN_BUDGET", (1 << 8) - 2)  # dim 4: one key short
    passes[0] = 0
    pnn_violation_search(random_weakly_positive_nonsp(np.random.default_rng(0), 4).matrix)
    assert passes[0] == 0


def generated(generate, seed, dim):
    try:
        return generate(np.random.default_rng([seed, dim]), dim).matrix.tobytes()
    except DflabError as exc:
        return str(exc)


def test_generator_matches_per_scale_sweep(monkeypatch):
    eigensolves = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        eigensolves[0] += 1
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    new_scans = count_scans(monkeypatch, maximality)
    proven_fail = proven_pass = 0
    for dim in range(2, 13):
        for seed in range(20):
            new_scans[0] = eigensolves[0] = 0
            matrix = generated(random_weakly_positive_nonsp, seed, dim)
            new_eig, scanned = eigensolves[0], new_scans[0]
            eigensolves[0] = 0
            assert matrix == generated(per_scale_weakly_positive_nonsp, seed, dim)
            # the sweep's eigensolves are those of every scale not proven to FAIL
            proven_fail += eigensolves[0] - new_eig
            proven_pass += scanned == 0
    assert proven_fail > 0 and proven_pass > 0


def test_generator_scans_a_scale_in_the_band(monkeypatch):
    # A cutoff -TOL_POS at the returned matrix's least form puts the scale it
    # was found at within the slack, so only the scan decides there.
    cases = [
        (dim, seed, random_weakly_positive_nonsp(np.random.default_rng([seed, dim]), dim))
        for dim in (2, 3, 5, 8) for seed in range(3)
    ]
    new_scans = count_scans(monkeypatch, maximality)
    eps = np.finfo(np.float64).eps
    for dim, seed, D in cases:
        # at -least the scan mostly passes; 8·dim·ε higher, within the slack
        # but above the scan's rounding, it finds a violator
        for cutoff in (least_form(D.matrix), least_form(D.matrix) + 8 * dim * eps):
            monkeypatch.setattr(maximality, "TOL_POS", -cutoff)
            monkeypatch.setattr(oracles, "TOL_POS", -cutoff)
            assert (generated(random_weakly_positive_nonsp, seed, dim)
                    == generated(per_scale_weakly_positive_nonsp, seed, dim)), (dim, seed)
    assert new_scans[0] > 0


# ---------------------------------------------------------------- same bytes as the reference routes

def unit_vectors(rng, count):
    """Seeded complex unit vectors of dims 2-12; every other one has exact
    zeros, some of them -0.0, in its real or imaginary parts, and every
    fourth is real with -0.0 imaginary parts."""
    for k in range(count):
        m = int(rng.integers(2, 13))
        re, im = rng.normal(size=m), rng.normal(size=m)
        if k % 2:
            re[rng.random(m) < 0.3] = rng.choice([0.0, -0.0])
            im[rng.random(m) < 0.5] = rng.choice([0.0, -0.0])
        if k % 4 == 3:
            im[:] = -0.0
        v = np.empty(m, dtype=np.complex128)
        v.real, v.imag = re, im  # re + 1j * im would turn -0.0 into +0.0
        norm = np.linalg.norm(v)
        if norm > 0:
            yield v / norm


def test_dv_family_matches_the_matvec_loop_bit_for_bit():
    zeros = 0
    for v in unit_vectors(np.random.default_rng(7), 400):
        fast, loop = dv_family(v), oracles.dv_family_by_matvecs(v)
        assert fast.matrix.tobytes() == loop.matrix.tobytes(), v
        assert fast.space == loop.space
        zeros += int((loop.matrix.view(np.float64) == 0.0).sum())
    assert zeros > 0  # tobytes compares the sign of each zero


def test_lemma2_pnn_and_generator_json_match_the_reference_routes():
    for dim in range(2, 13):
        for seed in range(3):
            D = random_weakly_positive_nonsp(np.random.default_rng([seed, dim, 21]), dim)
            reference = per_scale_weakly_positive_nonsp(
                np.random.default_rng([seed, dim, 21]), dim)
            assert (jsonio.dump_json(jsonio.df_to_dict(D))
                    == jsonio.dump_json(jsonio.df_to_dict(reference)))
            assert (jsonio.dump_json(jsonio.lemma2_report_to_dict(verify_lemma2(D)))
                    == jsonio.dump_json(jsonio.lemma2_report_to_dict(
                        oracles.lemma2_via_tensor(D))))
            assert (jsonio.dump_json(jsonio.pnn_violation_to_dict(
                        pnn_violation_search(D.matrix)))
                    == jsonio.dump_json(jsonio.pnn_violation_to_dict(
                        per_point_pnn_search(D.matrix))))


def test_verify_lemma2_refuses_a_product_past_the_dense_cap(monkeypatch):
    # m = 46 gives a product of 2·46² = 4232 > DENSE_DIM_CAP histories; the
    # refusal comes before the partner, the product space or the product
    m = 46
    assert 2 * m * m > DENSE_DIM_CAP >= 2 * (m - 1) ** 2
    D = df_from_matrix(np.diag([-0.5] + [1.5 / (m - 1)] * (m - 1)),
                       make_space([f"h{i}" for i in range(m)]))

    def refused(*args):
        raise AssertionError("built past the dense cap")

    for name in ("dv_family", "space_product", "kron"):
        monkeypatch.setattr(maximality, name, refused)
    with pytest.raises(DimensionCapError, match="product dimension 4232 exceeds the dense cap 4096"):
        verify_lemma2(D)
