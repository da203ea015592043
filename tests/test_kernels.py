import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab import kernels
from dflab.core import BudgetExceededError, DflabError
from dflab.kernels import (
    CHUNK_BYTES,
    TABLE_BITS,
    ScanResult,
    _bit_table,
    _fill_bits,
    connected_components,
    cube_bits,
    cube_forms,
    key_to_indicator,
    kron,
    rounding_slack,
    scan_ascending,
)
from dflab.lemma1 import coupling_matrix, lemma1_epsilon
from oracles import quadratic_form


def indicator_to_key(indicator: np.ndarray) -> int:
    """Inverse of ``key_to_indicator``: history 0 is the most significant bit."""
    key = 0
    for bit in np.asarray(indicator, dtype=np.int64):
        key = (key << 1) | int(bit)
    return key


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


@pytest.mark.parametrize("entry", [-1.7e308, np.inf, np.nan])
def test_scan_without_a_sound_rounding_slack_raises(entry):
    # 2·Σ|S| is not finite: a form holds inf - inf or NaN, which no
    # comparison flags, so such a scan would pass
    M = np.array([[1.0, entry], [entry, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DflabError, match="2 \\* sum \\|S\\| is not finite"):
            scan_ascending(M, 1e-10)


def test_scan_of_the_largest_sound_sums_keeps_its_verdict():
    # Σ|S| = 1.5·2^1022 < max/2: every form is finite (and exact here), and
    # the slack is sound
    M = np.array([[2.0**1020, -(2.0**1021)], [-(2.0**1021), 2.0**1020]])
    assert scan_ascending(M, 1e-10) == (3, -(2.0**1021), 3)


def test_rounding_slack_per_entry_and_its_overflow():
    eps = np.finfo(np.float64).eps
    assert rounding_slack(5, 2.0) == 64 * 5 * eps * 2.0
    np.testing.assert_array_equal(rounding_slack(3, np.array([1.0, 4.0])),
                                  64 * 3 * eps * np.array([1.0, 4.0]))
    half_max = np.finfo(np.float64).max / 2
    assert rounding_slack(1, half_max) > 0
    for bad in (np.nextafter(half_max, np.inf), np.array([1.0, np.nan])):
        with pytest.raises(DflabError):
            rounding_slack(1, bad)


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


def test_bit_tables_are_read_only():
    table = _bit_table(3)
    assert table[5].tolist() == [1.0, 0.0, 1.0]  # MSB first
    assert _bit_table(3) is table  # built once per width
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_bit_table_cache_stays_bounded():
    # sum of 8·w·2^w bytes over the widths w <= TABLE_BITS whose table fits
    # CHUNK_BYTES: less than twice the widest one, so less than 2·CHUNK_BYTES
    bound = 2 * CHUNK_BYTES
    _bit_table.cache_clear()
    tracemalloc.start()
    try:
        for dim in range(1, 26):
            M = np.eye(dim)
            M[-1, -1] = -1.0  # key 1 violates: each scan stops in its first chunk
            assert scan_ascending(M, 1e-10) == (1, -1.0, 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < bound
    # Caching every width up to TABLE_BITS leaves TABLE_BITS + 1 entries only
    # if no scan cached a wider table.
    total = sum(_bit_table(w).nbytes for w in range(TABLE_BITS + 1))
    assert _bit_table.cache_info().currsize == TABLE_BITS + 1
    assert _bit_table(TABLE_BITS).nbytes <= CHUNK_BYTES
    assert total < bound


def test_cube_bits_rows_are_the_keys_in_order():
    for width in (1, 5, TABLE_BITS):
        table = cube_bits(width)
        assert table.shape == (1 << width, width)
        for key in (0, 1, (1 << width) - 1, (1 << width) // 3):
            assert table[key].tolist() == key_to_indicator(key, width).tolist()
    for width in (0, TABLE_BITS + 1):
        with pytest.raises(DflabError):
            cube_bits(width)


@pytest.mark.parametrize("dim", [1, 2, 5, 8, 11])
def test_cube_forms_are_the_forms_of_every_key(dim):
    rng = np.random.default_rng(dim)
    R = rng.normal(size=(dim, dim))
    S = (R + R.T) / 2.0
    forms = cube_forms(S)
    assert forms.shape == (1 << dim,)
    expected = [quadratic_form(S, key_to_indicator(k, dim)).real for k in range(1 << dim)]
    assert forms[0] == 0.0
    np.testing.assert_allclose(forms, expected, rtol=0, atol=1e-12 * np.abs(S).sum())


def test_cube_forms_are_the_one_chunk_scans_forms():
    # the scan reports its witness's form; cube_forms must hold the same bits
    rng = np.random.default_rng(30)
    found = 0
    while found < 100:
        dim = int(rng.integers(1, 13))
        R = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-6, 6)
        S = (R + R.T) / 2.0 + rng.uniform(0.0, 3.0) * np.abs(R).max() * np.eye(dim)
        key, value, _ = scan_ascending(S, 1e-10, chunk_rows=1 << dim)
        if key is not None:
            found += 1
            assert cube_forms(S)[key].tobytes() == np.float64(value).tobytes()


def cube_bits_of(width):
    """Every width-bit row in key order, for widths beyond the cached tables
    too."""
    keys = np.arange(1 << width, dtype=np.int64)[:, None]
    return ((keys >> np.arange(width - 1, -1, -1)) & 1).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 14),
       log_c=st.floats(-12.0, 12.0))
def test_prefix_bound_is_below_every_form_under_the_prefix(seed, dim, log_c):
    # the bound of prefix x plus the least form of the sub-cube after it is
    # at most every form of a key with prefix x, up to the rounding slack
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(dim, dim)) * 10.0 ** log_c
    S = (R + R.T) / 2.0
    slack = rounding_slack(dim, float(np.abs(S).sum()))
    forms = cube_forms(S)
    for p in range(1, dim):
        bounds = kernels._prefix_bounds(cube_bits_of(p), kernels._split_rows(S, p))
        rest = float(cube_forms(S[p:, p:]).min())
        under = forms.reshape(1 << p, 1 << (dim - p)).min(axis=1)
        assert np.all(bounds + rest <= under + slack), p


def test_wide_bit_rows_concatenate_table_lookups():
    # rows wider than TABLE_BITS are assembled from several lookups; fill a
    # column slice of a wider buffer, as a scan chunk does
    rng = np.random.default_rng(26)
    for width in (1, TABLE_BITS, TABLE_BITS + 1, 2 * TABLE_BITS, 30):
        top = (1 << width) - 1
        values = np.concatenate([
            [0, 1, top, top - 1, 4095 & top, 4096 & top],
            rng.integers(0, top + 1, size=40),
        ]).astype(np.int64)
        buffer = np.full((values.size, width + 2), 7.0)
        _fill_bits(buffer[:, :width], values)
        expected = [key_to_indicator(int(v), width).tolist() for v in values]
        assert buffer[:, :width].tolist() == expected
        assert (buffer[:, width:] == 7.0).all()


def test_warm_bit_tables_keep_scan_results():
    # results recorded with the kernel that rebuilt its bit rows in every
    # chunk; dim 26 has a 14-bit high half, wider than one cached table
    M14 = random_hermitian(np.random.default_rng(23), 14) + 3.0 * np.eye(14)
    M26 = 0.01 * random_hermitian(np.random.default_rng(24), 26) + np.eye(26)
    M26[13, 25] = M26[25, 13] = M26[0, 25] = M26[25, 0] = -1.5
    g = np.random.default_rng(25).normal(size=(13, 13))
    cases = [
        (M14, (2113, -1.5119673064989991, 2113)),
        (M26, (4097, -0.973186766820864, 4097)),
        (g @ g.T, (None, 0.0, 2**13 - 1)),
    ]
    for M, expected in cases:
        assert scan_ascending(M, 1e-10) == expected  # warms the tables
        for kwargs in ({"chunk_rows": 1}, {"chunk_rows": 7},
                       {"chunk_rows": 2048}, {"workers": 2}):
            assert scan_ascending(M, 1e-10, **kwargs) == expected
        assert scan_ascending(M, 1e-10, budget=expected[2]) == expected


def least_form(S):
    """The least uᵀSu over the cube of a real symmetric S, the empty vector
    included. Each prefix x of the first dim - 20 histories adds its linear
    terms 2·S_x,restᵀx to the rest's diagonal (u_k² = u_k), so no piece of
    ``cube_forms`` holds more than 2^20 forms."""
    dim = S.shape[0]
    if dim == 0:
        return 0.0
    p = max(0, dim - 20)
    least = np.inf
    for x in cube_bits_of(p):
        rest = S[p:, p:] + np.diag(2.0 * (x @ S[:p, p:]))
        least = min(least, float(x @ S[:p, :p] @ x + cube_forms(rest).min()))
    return least


def least_form_holding(M, i, j):
    """The least form of the vectors that hold histories i and j."""
    rest = [k for k in range(M.shape[0]) if k not in (i, j)]
    linear = 2.0 * (M[rest, i] + M[rest, j])
    return (M[i, i] + M[j, j] + 2.0 * M[i, j]
            + least_form(M[np.ix_(rest, rest)] + np.diag(linear)))


def near_boundary_matrix(rng, dim, c, offset):
    """c·G for a PSD G, with one pair planted so that the least form of the
    vectors holding it is offset·tol, at every scale c (up to rounding).

    The pair's entry moves every vector that holds both histories by the
    same amount, so it is set from the least form of those vectors, not of
    the pair alone. The other vectors keep their non-negative forms, so for
    offset in [-2, 0] the least form of the whole cube is offset·tol, within
    a tol of the cutoff -tol.
    """
    g = rng.normal(size=(dim, dim))
    M = c * (g @ g.T) / dim
    i, j = sorted(rng.choice(dim, size=2, replace=False))
    least = least_form_holding(M, i, j)
    M[i, j] = M[j, i] = M[i, j] + (offset * 1e-10 - least) / 2.0
    slack = rounding_slack(dim, float(np.abs(M).sum()))
    assert abs(least_form_holding(M, i, j) - offset * 1e-10) <= slack
    if offset <= 0.0 and dim <= 20:  # the whole cube, where it is cheap
        assert abs(least_form(M) - offset * 1e-10) <= slack
    return M


def lemma1_block(lam, n_a, n_b):
    """A^(x)n_a (x) B^(x)n_b, with A the coupling matrix and B = I - eps A.

    eps is the one Lemma 1 picks for n_a + n_b - 1 copies, so the block's
    binary forms come close to zero.
    """
    A = coupling_matrix(lam).real
    B = np.eye(2) - lemma1_epsilon(lam, max(1, n_a + n_b - 1)) * A
    block = np.ones((1, 1))
    for factor in [A] * n_a + [B] * n_b:
        block = kron(block, factor)
    return block


def assert_same_scan(pruned, reference):
    assert pruned.key == reference.key
    assert pruned.checked == reference.checked
    assert np.float64(pruned.value).tobytes() == np.float64(reference.value).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_c=st.floats(-12.0, 12.0),
    offset=st.floats(-2.0, 2.0),
    lemma1=st.booleans(),
)
def test_pruned_scan_matches_one_chunk_scan(seed, log_c, offset, lemma1):
    # chunk_rows 1 and 7 make every small cube multi-chunk, so its rows go
    # through the bound; chunk_rows = 2^dim is one chunk, which is not pruned
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_c
    if lemma1:
        n_a, n_b = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        M = c * lemma1_block(float(rng.choice([2.0, 3.0, 4.0, 8.0])), n_a, n_b)
    else:
        M = near_boundary_matrix(rng, int(rng.integers(2, 13)), c, offset)
    dim = M.shape[0]
    reference = scan_ascending(M, 1e-10, chunk_rows=1 << dim)
    for chunk_rows in (1, 7):
        assert_same_scan(scan_ascending(M, 1e-10, chunk_rows=chunk_rows), reference)


def test_tight_row_bounds_keep_their_violators():
    # with S_C = 0 every row's bound is its least form in exact arithmetic;
    # scaled so that the least form of the cube is within an ulp of -tol,
    # the computed bound lies above the computed form on some rows, and only
    # the rounding slack keeps those rows from being pruned
    for seed in range(400):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(8, 13))
        h = dim - dim // 2
        R = rng.normal(size=(dim, dim))
        S = (R + R.T) / 2.0
        S[h:, h:] = 0.0
        least = cube_forms(S)[1:].min()
        if least >= 0.0:
            continue
        S *= (-1e-10 / least) * (1.0 + int(rng.integers(-1, 2)) * 2.0**-52)
        reference = scan_ascending(S, 1e-10, chunk_rows=1 << dim)
        for chunk_rows in (1, 7):
            assert_same_scan(scan_ascending(S, 1e-10, chunk_rows=chunk_rows), reference)


def test_pruned_scan_matches_one_chunk_scan_at_dim_20():
    rng = np.random.default_rng(27)
    for offset in (-1.5, -0.5):  # the planted pair fails, then passes
        M = near_boundary_matrix(rng, 20, 1.0, offset)
        reference = scan_ascending(M, 1e-10, chunk_rows=1 << 20)
        assert_same_scan(scan_ascending(M, 1e-10), reference)
        assert_same_scan(scan_ascending(M, 1e-10, workers=2), reference)


def row_bits(dim):
    """h, the row bits of a default-chunked scan at ``dim``."""
    t = dim // 2
    while t > 0 and (dim - t + 2) * 8 << t > CHUNK_BYTES:
        t -= 1
    return dim - t


def prefix_bits(dim):
    """h1 = h // 2, the prefix width of a default-chunked scan at ``dim``."""
    return row_bits(dim) // 2


def recording_bounds(dim, groups, rows):
    """``_prefix_bounds`` that appends the prefix count of each group-level
    call to ``groups`` and the keys x of each row-level call to ``rows``.
    Levels differ in the factor R = ``_split_rows``: the group level has
    h // 2 rows and every column, the row level h rows and every column, and
    the bound of the rest after a group's prefix fewer columns."""
    h = row_bits(dim)
    weights = 2.0 ** np.arange(h - 1, -1, -1)
    prefix_bounds = kernels._prefix_bounds

    def recording(X, R):
        if R.shape == (h // 2, dim):
            groups.append(X.shape[0])
        elif R.shape == (h, dim):
            rows.extend((X @ weights).astype(np.int64).tolist())
        return prefix_bounds(X, R)

    return recording


def test_bound_keeps_most_rows_from_the_forms_gemm(monkeypatch):
    # the benchmark's PSD inputs (3/4 diag(p) + 1/4 Gram) at dim 20: 2^10 rows
    rng = np.random.default_rng(28)
    dim = 20
    p = rng.dirichlet(np.full(dim, 2.0))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gram = g @ g.conj().T
    M = 0.75 * np.diag(p) + gram * (0.25 / gram.sum().real)
    group_calls, bounded_rows, scanned = [], [], []
    first_violator = kernels._first_violator

    def counting(rows, *args):
        scanned.append(rows.size)
        return first_violator(rows, *args)

    monkeypatch.setattr(kernels, "_prefix_bounds",
                        recording_bounds(dim, group_calls, bounded_rows))
    monkeypatch.setattr(kernels, "_first_violator", counting)
    assert scan_ascending(M, 1e-10) == (None, 0.0, 2**dim - 1)
    assert len(group_calls) == 1  # the group bound ran, once
    # only the rows of the groups it keeps reach the row bound, each once
    shift = row_bits(dim) - prefix_bits(dim)
    kept = sorted({x >> shift for x in bounded_rows})
    assert sorted(bounded_rows) == [
        (group << shift) + y for group in kept for y in range(1 << shift)
    ]
    assert len(bounded_rows) < 2 ** (dim - dim // 2)
    assert sum(scanned) < 0.05 * 2 ** (dim // 2)


def every_row_scan(M, tol, **kwargs):
    """``scan_ascending`` with every prefix bound at -inf, so that every row
    goes to the forms GEMM in default-size chunks: the unpruned reference
    for cubes whose one-chunk scan would hold more than 2^22 forms."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_prefix_bounds",
                      lambda X, R: np.full(X.shape[0], -np.inf))
        try:
            return scan_ascending(M, tol, **kwargs)
        except BudgetExceededError as error:
            return error


def reference_scan(M, tol, **kwargs):
    """The unpruned scan: one chunk up to dim 22, every row kept above."""
    dim = M.shape[0]
    if dim <= 22:
        try:
            return scan_ascending(M, tol, chunk_rows=1 << dim, **kwargs)
        except BudgetExceededError as error:
            return error
    return every_row_scan(M, tol, **kwargs)


def assert_same_outcome(M, tol, **kwargs):
    """The pruned scan and the unpruned reference give the same key, value
    bits and count, or both exhaust the same budget."""
    reference = reference_scan(M, tol, **kwargs)
    if isinstance(reference, BudgetExceededError):
        with pytest.raises(BudgetExceededError, match=str(reference)):
            scan_ascending(M, tol, **kwargs)
    else:
        assert_same_scan(scan_ascending(M, tol, **kwargs), reference)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(17, 26),
    log_c=st.floats(-12.0, 12.0),
    offset=st.floats(-2.0, 2.0),
    lemma1=st.booleans(),
)
def test_two_level_scan_matches_unpruned_scan(seed, dim, log_c, offset, lemma1):
    # default chunking: at dims 17-26 every cube is pruned at both depths
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_c
    if lemma1:
        # a principal block of a 32-history Lemma 1 block keeps a subset of
        # its near-zero forms
        n_a = int(rng.integers(0, 5))
        lam = float(rng.choice([2.0, 3.0, 4.0, 8.0]))
        M = c * lemma1_block(lam, n_a, 5 - n_a)[:dim, :dim]
    else:
        M = near_boundary_matrix(rng, dim, c, offset)
    assert_same_outcome(M, 1e-10)


def planted_set_violator(dim, members):
    """Identity with -γ between every two of ``members`` (m >= 3 of them), γ
    set so that only u holding all of them violates: u ∩ members = k
    histories gives k - γ·k·(k - 1) plus one per other history, negative only
    at k = m. γ is a dyadic in (1/(m - 1), 1/(m - 2)), so every form is exact.
    The lowest violator is ``members`` itself, with form m - γ·m·(m - 1)."""
    m = len(members)
    gamma = (np.floor(1024 / (m - 1)) + 1) / 1024
    assert 1 / (m - 1) < gamma < 1 / (m - 2)
    M = np.eye(dim)
    for i in members:
        for j in members:
            if i != j:
                M[i, j] = -gamma
    key = sum(1 << (dim - 1 - i) for i in members)
    return M, key


def crossing_pair(dim, i, j):
    """Only u = e_i + e_j violates, with form 2 + 1/2 - 3 = -1/2: diagonal 2
    at i, 1/2 at j and 1 elsewhere, and -1.5 at (i, j). The prefix part
    2 - 1.5 of the pair is not negative, so a group bound that took half of
    the pair's entry would prune the violator's group."""
    M, key = planted_single_violator(dim, i, j)
    M[i, i], M[j, j] = 2.0, 0.5
    return M, key


def kept_groups(M):
    """The groups that the group bound of a default scan of M keeps: the
    prefixes of the rows that reach the row bound, in a scan whose forms
    GEMM finds nothing, so that every kept row reaches it."""
    dim = M.shape[0]
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_prefix_bounds", recording_bounds(dim, [], rows))
        patch.setattr(kernels, "_first_violator", lambda *args: None)
        scan_ascending(M, 1e-10)
    return sorted({x >> (row_bits(dim) - prefix_bits(dim)) for x in rows})


@pytest.mark.parametrize("dim", [20, 24, 25])
def test_planted_witness_in_first_last_and_lone_kept_group(dim):
    h1 = prefix_bits(dim)
    last_group = (1 << h1) - 1
    cases = [
        # first group: both histories after the prefix
        ("first", *planted_single_violator(dim, h1, dim - 1), 0),
        # last group: the violator holds every prefix history and the last one
        ("last", *planted_set_violator(dim, list(range(h1)) + [dim - 1]),
         last_group),
        # group 1 (prefix history h1 - 1 only) is kept; groups 0 and 2 hold
        # no negative entry and are pruned
        ("lone", *planted_single_violator(dim, h1 - 1, dim - 1), 1),
        # the pair joins the prefix to the rest of x: the group bound must
        # count both halves of the pair's entry, as the violator's form does
        ("cross", *crossing_pair(dim, h1 - 1, h1), 1),
    ]
    for name, M, key, group in cases:
        expected = (key, float(quadratic_form(M, key_to_indicator(key, dim)).real), key)
        result = scan_ascending(M, 1e-10)
        assert result == expected, name
        assert key >> (dim - h1) == group, name
        kept = kept_groups(M)
        assert group in kept, name
        if name == "lone":
            assert 0 not in kept and 2 not in kept
        assert len(kept) < 1 << h1, name  # the group bound pruned some groups
        assert_same_outcome(M, 1e-10)
        # budgets that end at the witness and one key before it
        assert scan_ascending(M, 1e-10, budget=key) == expected, name
        with pytest.raises(BudgetExceededError):
            scan_ascending(M, 1e-10, budget=key - 1)
        assert_same_outcome(M, 1e-10, budget=key)
        assert_same_outcome(M, 1e-10, budget=key - 1)
        for workers in (1, 2, 3):
            assert scan_ascending(M, 1e-10, workers=workers) == expected, name


@pytest.mark.parametrize("dim", [20, 24])
def test_spans_over_kept_rows_match_the_serial_scan(monkeypatch, dim):
    # a gate of 0 blocks starts the pool on every pruned cube, so the spans
    # split kept rows whose groups have gaps between them
    h1 = prefix_bits(dim)
    cases = [
        planted_single_violator(dim, h1, dim - 1),
        planted_set_violator(dim, list(range(h1)) + [dim - 1]),
        planted_single_violator(dim, h1 - 1, dim - 1),
        planted_single_violator(dim, 0, h1 + 1),
    ]
    serial = [scan_ascending(M, 1e-10) for M, _ in cases]
    kept = [kept_groups(M) for M, _ in cases]
    monkeypatch.setattr(kernels, "POOL_BLOCKS", 0)
    for (M, key), expected, groups in zip(cases, serial, kept):
        assert expected.key == key
        assert 0 < len(groups) < 1 << h1
        for workers in (2, 3):
            assert scan_ascending(M, 1e-10, workers=workers) == expected


class PoolStarts:
    """A ``ThreadPoolExecutor`` that counts how often a scan starts one."""

    started = 0

    def __init__(self, *args, **kwargs):
        from concurrent.futures import thread

        PoolStarts.started += 1
        self.pool = thread.ThreadPoolExecutor(*args, **kwargs)

    def __enter__(self):
        return self.pool.__enter__()

    def __exit__(self, *exc):
        return self.pool.__exit__(*exc)


def refuse_pool(*args, **kwargs):
    raise AssertionError("the scan started a thread pool")


def test_pool_stays_off_when_the_bounds_prune_the_cube(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse_pool)
    rng = np.random.default_rng(29)
    dim = 24
    for _ in range(4):
        p = rng.dirichlet(np.full(dim, 2.0))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gram = g @ g.conj().T
        M = 0.75 * np.diag(p) + gram * (0.25 / gram.sum().real)
        assert scan_ascending(M, 1e-10, workers=2) == (None, 0.0, 2**dim - 1)


def test_pool_starts_where_no_row_is_pruned(monkeypatch):
    import concurrent.futures

    # (dim + 1/2)·I - J: the form of k histories is k·(dim + 1/2 - k) > 0, and
    # every group and row bound is negative, so every row reaches the GEMM
    dim = 24
    M = (dim + 0.5) * np.eye(dim) - np.ones((dim, dim))
    serial = scan_ascending(M, 1e-10)
    assert serial == (None, 0.0, 2**dim - 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", PoolStarts)
    PoolStarts.started = 0
    assert scan_ascending(M, 1e-10, workers=2) == serial
    assert PoolStarts.started == 1
    # a violator in the upper half of the cube: found by the second span
    M[0, 1] = M[1, 0] = -(dim + 1.0)
    serial = scan_ascending(M, 1e-10)
    assert serial.key is not None
    assert scan_ascending(M, 1e-10, workers=2) == serial
    # more spans than cores, switching threads as often as the lock allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert scan_ascending(M, 1e-10, workers=3) == serial
        assert scan_ascending(M, 1e-10, workers=4) == serial
    finally:
        sys.setswitchinterval(interval)
    assert PoolStarts.started == 4
    # a budget keeps the scan serial
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse_pool)
    assert scan_ascending(M, 1e-10, budget=serial.key, workers=2) == serial


KRON_SPECIALS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -0.5]
kron_entries = st.one_of(
    st.sampled_from(KRON_SPECIALS), st.floats(allow_nan=False, width=64)
)


@st.composite
def kron_operand(draw, ndim, dtype):
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    size = int(np.prod(shape))
    out = np.empty(shape, dtype=dtype)
    parts = [out] if dtype == np.float64 else [out.real, out.imag]
    for part in parts:  # set parts directly: 1j * inf would add a NaN
        part[...] = np.reshape(
            draw(st.lists(kron_entries, min_size=size, max_size=size)), shape
        )
    return out


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("dtype_a", [np.float64, np.complex128])
@pytest.mark.parametrize("dtype_b", [np.float64, np.complex128])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kron_is_bitwise_np_kron(ndim, dtype_a, dtype_b, data):
    a = data.draw(kron_operand(ndim, dtype_a))
    b = data.draw(kron_operand(ndim, dtype_b))
    with np.errstate(all="ignore"):  # inf·0 and overflow are part of the test
        expected = np.kron(a, b)
        result = kron(a, b)
    assert result.dtype == expected.dtype
    assert np.array_equal(result, expected, equal_nan=True)
    for part in (np.real, np.imag):  # -0.0 == 0.0, so compare signs apart
        assert np.array_equal(np.signbit(part(result)), np.signbit(part(expected)))


def test_kron_rejects_mixed_or_other_ranks():
    with pytest.raises(DflabError):
        kron(np.ones(2), np.ones((2, 2)))
    with pytest.raises(DflabError):
        kron(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
