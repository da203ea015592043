import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab.core import BudgetExceededError
from dflab.kernels import (
    ScanResult,
    connected_components,
    indicator_to_key,
    key_to_indicator,
    quadratic_form,
    scan_ascending,
)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def scan_gray(matrix: np.ndarray, tol: float) -> ScanResult:
    """Full Gray-code walk with O(dim) incremental updates per step.

    Flagged candidates are re-evaluated exactly and the lowest ascending-order
    violator is returned, matching ``scan_ascending``. An independent oracle
    for the GEMM kernel; valid for Hermitian input.
    """
    M = np.ascontiguousarray(matrix, dtype=np.complex128)
    dim = M.shape[0]
    diag = np.real(np.diag(M))
    w = np.zeros(dim, dtype=np.complex128)
    q = 0.0
    prev = 0
    candidates = []
    # flag below -tol/2 so float drift over the walk cannot hide a violator
    flag = -0.5 * tol
    for k in range(1, 1 << dim):
        g = k ^ (k >> 1)
        bit = (g ^ prev).bit_length() - 1
        j = dim - 1 - bit  # integer bit b corresponds to history dim-1-b
        if (g >> bit) & 1:
            q += 2.0 * w[j].real + diag[j]
            w += M[:, j]
        else:
            w -= M[:, j]
            q -= 2.0 * w[j].real + diag[j]
        prev = g
        if q < flag:
            candidates.append(g)
    best_key = None
    best_val = 0.0
    for g in sorted(candidates):
        val = quadratic_form(M, key_to_indicator(g, dim)).real
        if val < -tol:
            best_key, best_val = g, val
            break
    return ScanResult(best_key, best_val, (1 << dim) - 1)


def brute_force_scan(matrix: np.ndarray, tol: float) -> ScanResult:
    """Ascending-key oracle evaluating ``Re(u @ M @ u)`` one vector at a time."""
    dim = matrix.shape[0]
    for key in range(1, 1 << dim):
        u = key_to_indicator(key, dim).astype(np.float64)
        value = float(np.real(u @ matrix @ u))
        if value < -tol:
            return ScanResult(key, value, key)
    return ScanResult(None, 0.0, (1 << dim) - 1)


def planted_single_violator(dim, i, j):
    """Identity plus -1.5 at (i, j) and (j, i): only u = e_i + e_j has form < 0.

    Any u holding both i and j has form |u| - 3, and any other u has |u| > 0.
    """
    M = np.eye(dim)
    M[i, j] = M[j, i] = -1.5
    key = (1 << (dim - 1 - i)) | (1 << (dim - 1 - j))
    return M, key


def test_key_indicator_msb_convention():
    # key 1 flags only the LAST history; history 0 is the most significant bit
    assert key_to_indicator(1, 4).tolist() == [0, 0, 0, 1]
    assert key_to_indicator(8, 4).tolist() == [1, 0, 0, 0]
    assert indicator_to_key(np.array([1, 0, 1, 1])) == 11


def test_key_roundtrip():
    for key in (0, 1, 7, 100, 2**12 - 1):
        assert indicator_to_key(key_to_indicator(key, 12)) == key


def test_scan_passes_on_psd():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(6, 6))
    M = g @ g.T
    result = scan_ascending(M, 1e-10)
    assert result.key is None
    assert result.checked == 2**6 - 1


def test_scan_first_violator_is_lowest_key():
    # u = (1,1) is the only violating vector; its key is 3
    M = np.array([[1.0, -2.0], [-2.0, 1.0]])
    result = scan_ascending(M, 1e-10)
    assert result.key == 3
    assert result.value == pytest.approx(-2.0)
    assert result.checked == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gray_and_ascending_agree(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 11))
    M = random_hermitian(rng, dim)
    asc = scan_ascending(M, 1e-10)
    gray = scan_gray(M, 1e-10)
    assert asc.key == gray.key
    if asc.key is not None:
        assert asc.value == pytest.approx(gray.value, abs=1e-9)
        re_eval = quadratic_form(M, key_to_indicator(asc.key, dim)).real
        assert re_eval == pytest.approx(asc.value, abs=1e-10)


def test_chunk_size_does_not_change_witness():
    rng = np.random.default_rng(11)
    M = random_hermitian(rng, 12)
    r_small = scan_ascending(M, 1e-10, chunk_rows=1)
    r_big = scan_ascending(M, 1e-10, chunk_rows=1 << 16)
    assert r_small.key == r_big.key
    assert r_small.checked == r_big.checked


def test_chunk_rows_and_budget_edges_do_not_change_witness():
    # dim 10 splits into 32 low-half columns; key 129 sits in row 4, column 1
    M, key = planted_single_violator(10, 2, 9)
    assert key == 129
    for chunk_rows in (1, 2, 3, 5, 7, 32, 1 << 16, None):
        full = scan_ascending(M, 1e-10, chunk_rows=chunk_rows)
        assert full == (129, pytest.approx(-1.0), 129)
        # the budget ends exactly at the violator, inside a chunk for 3, 5, 7
        assert scan_ascending(M, 1e-10, budget=129, chunk_rows=chunk_rows) == full
        with pytest.raises(BudgetExceededError):
            scan_ascending(M, 1e-10, budget=128, chunk_rows=chunk_rows)
    rng = np.random.default_rng(13)
    for _ in range(10):
        H = random_hermitian(rng, 9) + 3.0 * np.eye(9)
        reference = scan_ascending(H, 1e-10)
        for chunk_rows in (1, 3, 7, 1 << 16):
            result = scan_ascending(H, 1e-10, chunk_rows=chunk_rows)
            assert result.key == reference.key
            assert result.checked == reference.checked
            assert result.value == pytest.approx(reference.value, abs=1e-12)


def test_wide_cube_keeps_key_order():
    # at dim 28 the low half narrows below dim/2 to keep the GEMM factor in
    # the chunk budget; a violator straddling both halves keeps its key
    M, key = planted_single_violator(28, 15, 27)
    assert key == 4097
    assert scan_ascending(M, 1e-10, budget=key) == (key, pytest.approx(-1.0), key)
    with pytest.raises(BudgetExceededError):
        scan_ascending(M, 1e-10, budget=key - 1)


def test_worker_count_does_not_change_witness():
    rng = np.random.default_rng(12)
    found_fail = found_pass = False
    for seed in range(20):
        M = random_hermitian(np.random.default_rng(seed), 11)
        serial = scan_ascending(M, 1e-10)
        parallel = scan_ascending(M, 1e-10, workers=3)
        assert serial.key == parallel.key
        if serial.key is None:
            found_pass = True
        else:
            found_fail = True
            assert serial.value == pytest.approx(parallel.value, abs=1e-12)
    assert found_fail  # random Hermitians nearly always violate somewhere
    del rng, found_pass


def test_workers_find_a_violator_outside_the_first_span():
    # history 0 is the top bit, so the only violator lies in the upper half of
    # the cube: never in the first span, in the second for 2 or 3 workers
    M, key = planted_single_violator(12, 0, 11)
    serial = scan_ascending(M, 1e-10)
    assert serial == (key, pytest.approx(-1.0), key)
    for workers in (2, 3, 4):
        for chunk_rows in (1, 5, None):
            parallel = scan_ascending(M, 1e-10, workers=workers,
                                      chunk_rows=chunk_rows)
            assert parallel == serial
    # a second violating pair {0, 1} (key 3072) lands in the third of three
    # spans; the second span's lower key still wins
    M[0, 1] = M[1, 0] = -1.5
    assert scan_ascending(M, 1e-10) == serial
    assert scan_ascending(M, 1e-10, workers=3) == serial


@pytest.mark.parametrize("dim", range(2, 9))
def test_non_hermitian_input_matches_brute_force(dim):
    # Re(uᵀMu) needs the symmetrized real part when Re M is not symmetric;
    # smaller diagonal shifts give more failing cases
    for shift in (1.0, 0.5, 0.25):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            M = rng.normal(size=(dim, dim)) + shift * dim * np.eye(dim)
            for matrix in (M, M + 1j * rng.normal(size=(dim, dim))):
                expected = brute_force_scan(matrix, 1e-10)
                result = scan_ascending(matrix, 1e-10)
                assert result.key == expected.key
                assert result.checked == expected.checked
                assert result.value == pytest.approx(expected.value, abs=1e-12)


def test_scan_memory_stays_bounded():
    rng = np.random.default_rng(22)
    g = rng.normal(size=(22, 22))
    M = g @ g.T  # PSD: the whole cube of 2^22 vectors is scanned
    tracemalloc.start()
    try:
        result = scan_ascending(M, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (None, 0.0, 2**22 - 1)
    assert peak < 16 * 2**20


def test_budget_exhaustion_raises():
    M = np.eye(8)  # passes everywhere, so a small budget cannot conclude
    with pytest.raises(BudgetExceededError):
        scan_ascending(M, 1e-10, budget=10)


def test_budget_allows_early_fail():
    M = np.array([[1.0, -2.0], [-2.0, 1.0]])
    result = scan_ascending(M, 1e-10, budget=3)
    assert result.key == 3


def test_budget_masks_later_violations():
    # violator sits at key 3; budget 2 only sees keys 1..2
    M = np.array([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(BudgetExceededError):
        scan_ascending(M, 1e-10, budget=2)


def test_connected_components_structure():
    M = np.zeros((4, 4))
    M[0, 2] = M[2, 0] = 1.0
    M[1, 1] = 0.5
    comps = connected_components(M, 1e-12)
    assert [c.tolist() for c in comps] == [[0, 2], [1], [3]]


def test_connected_components_dense():
    M = np.ones((3, 3))
    comps = connected_components(M, 1e-12)
    assert [c.tolist() for c in comps] == [[0, 1, 2]]
