"""Enumeration kernel for quadratic forms over binary indicator vectors.

The positivity axiom quantifies over u in {0,1}^dim. ``scan_ascending``
scans that cube in one fixed order: an indicator is read as a binary integer
with history 0 in the most significant bit, and vectors are visited in
increasing integer value, skipping the empty vector. A Fail always reports
the lowest-key violator, so verdicts and witnesses are reproducible across
chunk sizes and worker counts.

The scan works in real arithmetic. For a 0/1 vector u and any square M,
Re(uᵀMu) = uᵀSu with S = (Re M + Re Mᵀ)/2, so the kernel scans the real
symmetric matrix S; for a Hermitian M, S is Re M exactly. A key is split
into h high bits and t low bits, and each chunk of high parts gets its whole
block of forms from one float64 GEMM against an (h + 2) x 2^t factor, built
once per scan when a row first reaches that GEMM. Both the block of forms and
that factor are held to about ``CHUNK_BYTES`` so that they stay in cache: t
is dim/2, lowered until the factor fits. A scan's memory therefore does not
grow with the 2^dim cube.

The 0/1 rows of both halves come from bit tables that are built once per
width and kept read-only for the life of the process. Only widths whose
table fits ``CHUNK_BYTES`` are kept (12 bits and below, about 0.7 MB in
all); a wider row is the concatenation of lookups into narrower tables, so
a small scan pays for its arithmetic and not for rebuilding its bits.

A cube of more than one chunk of rows (dim 17 and up at the default chunk
size) is pruned first at depth 0, the whole cube at once, when no budget is
set: a positive semidefinite S has no negative form at all, and
``_cube_proven_clean`` proves every form of S at least -tol + slack from
one float Cholesky factorization of S + σI, with σ = (tol - slack)/(2·dim)
and the factorization's rounding bounded (Higham, Thm 10.3; Rump 2006).
Such a cube ends as the full scan does, with no witness and all 2^dim - 1
vectors covered: the proof covers every one of them, so ``checked`` keeps
its meaning. A budgeted scan never takes this step, as it must still run
out. Otherwise the cube is pruned by one prefix bound applied at two depths
before any GEMM. Split S after its first p bits into S_PP and S_P,rest;
with c_x = 2·S_P,restᵀx, the forms of every key with prefix x are at least
q_P(x) + Σ_k min(0, c_x[k]) + L, where L is a lower bound on the forms of
the rest (``_prefix_bounds``). The rows that share a prefix of x's top
h // 2 bits form a group, bounded with L the least such bound of the
sub-cube after the prefix; each row of a kept group is bounded with p = h
and L = min_y q_C(y). A bound costs O(p·dim), and the forms of a row cost
O(h·2^t). Only the rows of groups whose bound falls below -tol + slack reach
the row bound, and only rows whose row bound falls below it reach the forms
GEMM (``_surviving_rows``); the slack 64·dim·ε·Σ|S| covers the rounding of
every bound and form (``rounding_slack``). The row bound runs on pieces of
kept rows that start at one chunk and double up to ``CHUNK_BYTES``, each
only when the scan asks for it, so a violator in the first rows costs what
it would without the bounds. The rows that reach the forms GEMM come in
ascending order, so the witness, its value and the covered count are the
same as without pruning. A one-chunk cube skips the bounds and their set-up.

``kron`` is ``np.kron`` for 1-D and 2-D arrays, bit for bit, without the
generic setup that costs more than the product at the sizes scanned here.

``workers`` > 1 scans contiguous spans of the rows that reach the forms GEMM
in a thread pool, sharing one factor W: the GEMMs and reductions release the
interpreter lock. The pool starts only when those rows fill more than
``POOL_BLOCKS`` chunks, as its start-up costs more than a second worker saves
on fewer. A span stops before its next chunk once a lower span has a hit.
This assumes that workers × BLAS threads does not exceed the cores; an
unpinned multithreaded BLAS under several workers oversubscribes them.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .core import BudgetExceededError, DflabError

# Bytes of one chunk's block of forms (float64) and cap on the GEMM factor,
# small enough to stay in a core's L2 cache; 512 KiB scanned dims 20 and 24
# fastest among budgets of 128 KiB-4 MiB.
CHUNK_BYTES = 1 << 19

# Widest cached bit table: a width-w table holds 8·w·2^w bytes (12 bits).
TABLE_BITS = max(w for w in range(1, 64) if 8 * w << w <= CHUNK_BYTES)

# Chunks of rows that reach the forms GEMM above which ``workers`` > 1 starts
# a thread pool. On 2 cores a pool costs about 0.6 ms to start; at dim 28,
# with 50, 129 and 310 such chunks, 1 vs 2 workers took 3.94 vs 4.88,
# 8.99 vs 9.02 and 20.4 vs 14.6 ms, so the two break even near 128.
POOL_BLOCKS = 128

_EPS = float(np.finfo(np.float64).eps)
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0  # exact: 2·x is finite up to it
_TINY = float(np.finfo(np.float64).smallest_subnormal)  # η, the least subnormal


def rounding_slack(width: int, abs_sum):
    """64·width·ε·abs_sum, for a scalar or an array of Σ|S|: the slack that
    covers the rounding of every form and prefix bound of a width-bit cube.

    Every value the scan computes (a form, a prefix bound at any depth, or
    the cutoff's min_y q_C(y)) is a sum of terms S_ij·u_i·u_j whose
    magnitudes add up to at most Σ|S|, each term passing at most
    3·width + 2 roundings; so each lies within (3·width + 2)·(ε/2)·Σ|S| (to
    first order) of its exact value. A bound at any depth adds two such
    values, its prefix part and L (the least computed bound of the rest, so
    at most the computed bound of the exact minimizer), and one rounding,
    ε·Σ|S|. A form below -tol needs Σ|S| > tol, so rounding the cutoff adds
    at most 2ε·Σ|S|. With the forms that is under
    (4.5·width + 6)·ε·Σ|S| <= 11·width·ε·Σ|S|: a prefix whose computed bound
    is at least -tol + slack holds no computed form below -tol. This needs
    every partial sum finite, as 2·Σ|S| < inf ensures; otherwise (entries
    too large, inf or NaN) no slack is sound, and ``DflabError`` is raised.
    """
    finite = abs_sum <= _HALF_MAX  # False for NaN too
    # np.all on a scalar would add about 3 µs to every small scan
    if not (finite.all() if isinstance(finite, np.ndarray) else finite):
        raise DflabError("no rounding bound holds: 2 * sum |S| is not finite")
    return 64 * width * _EPS * abs_sum


def _cube_proven_clean(S: np.ndarray, tol: float, slack: float) -> bool:
    """True only when every binary form of the real symmetric S is at least
    the floor -tol + slack, proven by one float Cholesky factorization.

    With σ = (tol - slack)/(2·dim), numpy's LAPACK factors A = fl(S + σI)
    into L̂L̂ᵀ. Higham (*Accuracy and Stability of Numerical Algorithms*,
    Thm 10.3) bounds the factorization's backward error by
    γ_{dim+1}·|L̂||L̂ᵀ|. LAPACK scales a column by the reciprocal of its pivot,
    one rounding more than the theorem's division, and rounding σ into the
    diagonal is one more: it moves A_ii by at most
    ε/2·|A_ii| <= ε/2·(1 + γ_{dim+2})·(|L̂||L̂ᵀ|)_ii. So
    |L̂L̂ᵀ - (S + σI)| <= γ·|L̂||L̂ᵀ| with γ = γ_{dim+3} = nu/(1 - nu),
    nu = (dim + 3)·ε/2, as long as nothing underflows. For a 0/1 vector u,
    uᵀ|L̂||L̂ᵀ|u <= Σ_k(Σ_i|L̂_ik|)² =: C, and |L̂ᵀu|² >= 0, so
    uᵀSu >= -σ·dim - γ·C. Products that underflow in the factorization add
    at most (dim + 2 + max L̂_jj)·η to each entry, with η the least
    subnormal (S. M. Rump, "Verification of positive definiteness", BIT 46,
    2006), so dim² times that more. The bound is summed from non-negative
    floats in fewer than 4·(dim + 2) roundings: (1 + 4·(dim + 2)·ε) times
    it, plus 4·dim·η for its own underflow, is above the exact bound, and
    must not exceed tol - slack, half of which the shift takes.

    The proof is of exact forms; the scan's computed forms are within the
    slack of them (``rounding_slack``), so no computed form is below -tol.
    Rounding tol - slack itself moves it by at most ε/2·tol, and a computed
    form below -tol needs Σ|S| > tol, which puts that inside the slack too.
    A floor that is not negative leaves no room for the shift, and an S whose
    factorization breaks down proves nothing: both return False.
    """
    dim = S.shape[0]
    room = tol - slack
    if not room > 0.0:
        return False
    sigma = room / (2 * dim)
    A = S.copy()
    A.flat[:: dim + 1] += sigma
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    c = np.abs(L).sum(axis=0)  # c_k = Σ_i |L̂_ik|
    nu = (dim + 3) * 0.5 * _EPS
    gamma = nu / (1.0 - nu)
    bound = (sigma * dim
             + gamma * float(c @ c)
             + dim * dim * (dim + 2 + float(L.diagonal().max())) * _TINY)
    return bound * (1.0 + 4 * (dim + 2) * _EPS) + 4 * dim * _TINY <= room


class ScanResult(NamedTuple):
    key: int | None      # lowest violating indicator key, None if no violation
    value: float         # quadratic form at the witness (0.0 on pass)
    checked: int         # non-empty vectors covered up to the verdict


def key_to_indicator(key: int, dim: int) -> np.ndarray:
    """Indicator vector of a key; history 0 is the most significant bit."""
    if not 0 <= key < (1 << dim):
        raise DflabError(f"key {key} out of range for dimension {dim}")
    bits = [(key >> (dim - 1 - j)) & 1 for j in range(dim)]
    return np.array(bits, dtype=np.int8)


@functools.lru_cache(maxsize=None)
def _bit_table(width: int) -> np.ndarray:
    """Read-only 2^width x width float64 table; row v holds v's bits, MSB first.

    Only called with width <= ``TABLE_BITS``, so the cache stays bounded.
    """
    values = np.arange(1 << width, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    table = ((values[:, None] >> shifts) & 1).astype(np.float64)
    table.flags.writeable = False
    return table


def cube_bits(width: int) -> np.ndarray:
    """Every indicator of ``width`` histories as a read-only float64 row, in
    ascending key order (row v holds v's bits, MSB first); the cached table
    that the scan reads, so ``width`` is at most ``TABLE_BITS``."""
    if not 0 < width <= TABLE_BITS:
        raise DflabError(f"bit tables hold widths 1..{TABLE_BITS}, not {width}")
    return _bit_table(width)


def cube_forms(S: np.ndarray) -> np.ndarray:
    """uᵀSu for every key u of the cube of a real symmetric S, in ascending
    key order (the empty vector first), for cubes small enough to hold all
    2^dim forms at once.

    These are the forms a one-chunk scan of S computes, bit for bit: a key
    is x·2^t + y with t = dim/2, and row x of ``[X | q_A | 1] @ W`` holds the
    forms of every y (``_row_factor``, ``_forms_factor``). The working set is
    the 2^dim forms and not a 2^dim x dim table of bits.
    """
    h = S.shape[0] - S.shape[0] // 2
    forms = _row_factor(_bit_table(h), S[:h, :h]) @ _forms_factor(S, h)
    return forms.ravel()


def _fill_bits(out: np.ndarray, values: np.ndarray) -> None:
    """Row i of ``out`` = the bits of values[i], MSB first (out.shape[1] bits).

    The row is filled from its low end in lookups of at most ``TABLE_BITS``
    bits; ``mode="wrap"`` keeps just the low bits of each index, and a width
    within the table is a single lookup.
    """
    stop = out.shape[1]
    while stop > TABLE_BITS:
        _bit_table(TABLE_BITS).take(values, axis=0, mode="wrap",
                                    out=out[:, stop - TABLE_BITS : stop])
        values = values >> TABLE_BITS
        stop -= TABLE_BITS
    _bit_table(stop).take(values, axis=0, out=out[:, :stop], mode="wrap")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D or two 2-D arrays, bitwise ``np.kron``.

    The same broadcast product a[i, j]·b[k, l], laid out as [i, k, j, l], that
    ``np.kron`` forms, without its expand_dims and subclass handling. The
    result is a view of that fresh product, which nothing else references.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == b.ndim == 2:
        (p, q), (r, s) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(a.size * b.size)
    raise DflabError("kron takes two 1-D or two 2-D arrays")


def _row_factor(X: np.ndarray, S_A: np.ndarray) -> np.ndarray:
    """[X | q_A | 1] for the bit rows X, with q_A = xᵀS_A x: row x of this
    times W (``_forms_factor``) holds the forms of every y."""
    n, h = X.shape
    XA = np.empty((n, h + 2))
    XA[:, :h] = X
    XA[:, h] = np.einsum("ij,ij->i", X @ S_A, X)
    XA[:, h + 1] = 1.0
    return XA


def _forms_factor(S: np.ndarray, h: int, out: np.ndarray | None = None) -> np.ndarray:
    """W = [2·S_B·Yᵀ ; 1 ; q_C] for S split at h, with Y the bits of every
    low-half y, so that row x of ``[X | q_A | 1] @ W`` holds the forms of
    every y; built in ``out`` when it is given."""
    t = S.shape[0] - h
    Y = _bit_table(t)  # t <= TABLE_BITS: the factor W fits CHUNK_BYTES
    W = np.empty((h + 2, 1 << t)) if out is None else out
    # Y·S_C is formed in W's first t rows (t <= h) and read into q_C before
    # those rows are filled: no 2^t x t product beside W in the cache
    YC = W[:t].reshape(1 << t, t)
    np.matmul(Y, S[h:, h:], out=YC)
    np.einsum("ij,ij->i", YC, Y, out=W[h + 1])
    np.matmul(2.0 * S[:h, h:], Y.T, out=W[:h])  # = 2·(S_B·Yᵀ): doubling is exact
    W[h] = 1.0
    return W


def _first_violator(rows: np.ndarray, S_A: np.ndarray, W: np.ndarray, tol: float,
                    key_limit: int, chunk_rows: int, forms: np.ndarray | None = None,
                    stop=lambda: False) -> tuple[int, float] | None:
    """Lowest violator with key <= key_limit among the ascending ``rows``,
    or None; None also once ``stop()``, asked before each chunk, is true.

    A key is x*2^t + y, and the forms of row x are row x of
    ``[X | q_A | 1] @ W``, built ``chunk_rows`` rows at a time into
    ``forms``, a block of max(2, chunk_rows) rows, when it is given. Without
    it, rows that span several chunks allocate one block for them, as a
    fresh cache-sized block per chunk can cost the allocator a round of page
    faults each time.
    """
    h = S_A.shape[0]
    n_cols = W.shape[1]
    if forms is None and rows.size > chunk_rows:
        forms = np.empty((max(2, chunk_rows), n_cols))  # 2: see the gemv note
    for start in range(0, rows.size, chunk_rows):
        if stop():
            return None
        xs = rows[start : start + chunk_rows]
        n = xs.size
        if n == 1:
            # numpy hands a one-row product to BLAS gemv, which sums in
            # another order than gemm; a second copy of the row keeps every
            # form bitwise equal to the one a larger chunk computes
            xs = xs.repeat(2)
        X = np.empty((xs.size, h))
        _fill_bits(X, xs)
        XA = _row_factor(X, S_A)
        Q = XA @ W if forms is None else np.matmul(XA, W, out=forms[: xs.size])
        if n == 1:
            Q = Q[:1]
        if xs[0] == 0:
            Q[0, 0] = np.inf  # skip the empty vector
        last = int(xs[n - 1]) * n_cols
        if last + n_cols - 1 > key_limit:
            Q[-1, key_limit - last + 1 :] = np.inf
        if Q.min() < -tol:
            # first True in row-major order: the lowest key of the chunk
            r, c = divmod(int(np.argmax(Q.ravel() < -tol)), n_cols)
            return int(xs[r]) * n_cols + c, float(Q[r, c])
    return None


def _split_rows(S: np.ndarray, p: int) -> np.ndarray:
    """[S_PP | 2·S_P,rest]: the first p rows of S with the columns after p
    doubled (exactly), the factor of ``_prefix_bounds`` at prefix width p."""
    R = S[:p].copy()
    R[:, p:] *= 2.0
    return R


def _prefix_bounds(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """q_P(x) + Σ_k min(0, c_x[k]) for each prefix x, a bit row of X, with
    R = ``_split_rows(S, p)`` and c_x = 2·S_P,restᵀx.

    A key with prefix x and rest v has form q_P(x) + c_x·v + q(v), so none is
    below this plus a lower bound on the rest's own forms q(v).
    """
    p = X.shape[1]
    XR = X @ R
    return (np.einsum("ij,ij->i", XR[:, :p], X)
            + np.minimum(XR[:, p:], 0.0).sum(axis=1))


@np.errstate(over="ignore")  # as a decorator: a with block costs ~0.5 µs more
def _symmetric_part(matrix) -> np.ndarray:
    """S = (Re M + Re Mᵀ)/2. An entry that overflows makes Σ|S| infinite,
    which ``rounding_slack`` refuses, so numpy does not warn of it."""
    R = np.asarray(matrix).real
    return (R + R.T) / 2.0


def _surviving_rows(S: np.ndarray, h: int, n: int, cutoff: float,
                    chunk_rows: int) -> Iterator[np.ndarray]:
    """The rows x < n (the high h bits of a key) that pass both prefix
    bounds, ascending, in non-empty pieces.

    Rows that share their top h // 2 bits form a group, kept when its bound
    plus L, the least bound of the row bits after the prefix, falls below
    ``cutoff``. Kept rows are row-bounded (``_prefix_bounds`` at p = h) in
    pieces that start at ``chunk_rows`` rows and double up to the rows whose
    X·R fills ``CHUNK_BYTES``; a piece is bounded only when it is asked for.
    """
    h1 = h // 2
    shift = h - h1
    mask = (1 << shift) - 1
    R = _split_rows(S, h)
    L = float(_prefix_bounds(_bit_table(shift), R[h1:, h1:]).min())
    prefixes = _bit_table(h1)[: ((n - 1) >> shift) + 1]  # groups below row n
    groups = np.flatnonzero(
        _prefix_bounds(prefixes, _split_rows(S, h1)) + L < cutoff)
    # kept rows: whole groups below n's own group, then the part of it below n
    top = n >> shift
    k = int(np.searchsorted(groups, top))
    part = n & mask if k < groups.size and groups[k] == top else 0
    kept = (k << shift) + part
    cap = max(chunk_rows, CHUNK_BYTES // R[0].nbytes)
    lo, size = 0, chunk_rows
    while lo < kept:
        index = np.arange(lo, min(lo + size, kept), dtype=np.int64)
        rows = (groups[index >> shift] << shift) | (index & mask)
        X = np.empty((rows.size, h))
        _fill_bits(X, rows)
        survivors = rows[_prefix_bounds(X, R) < cutoff]
        if survivors.size:
            yield survivors
        lo += rows.size
        size = min(2 * size, cap)


def _pooled_first_violator(rows: np.ndarray, spans: int,
                           *args) -> tuple[int, float] | None:
    """``_first_violator(rows, *args)`` over ``spans`` contiguous spans of
    the ascending rows in a thread pool: the least hit is the lowest one.

    Each span publishes its hit, and a span stops before its next chunk once
    a lower span has published one, since every key of it is higher.
    """
    # imported here: ``import dflab`` should not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    found = [None] * spans  # slot i is written by span i alone

    def scan(i: int, span: np.ndarray) -> None:
        found[i] = _first_violator(
            span, *args, stop=lambda: any(hit is not None for hit in found[:i]))

    # more threads than cores cannot help; spans beyond them queue
    with ThreadPoolExecutor(max_workers=min(spans, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(scan, i, span)
                   for i, span in enumerate(np.array_split(rows, spans))]
    for future in futures:
        future.result()  # re-raises what a span raised
    hits = [hit for hit in found if hit is not None]
    return min(hits) if hits else None


def scan_ascending(
    matrix: np.ndarray,
    tol: float,
    budget: int | None = None,
    workers: int = 1,
    chunk_rows: int | None = None,
) -> ScanResult:
    """Scan all non-empty binary vectors in ascending key order.

    Returns the lowest-key violator (form < -tol) or a pass. The form of u is
    Re(uᵀMu), evaluated in float64 on the symmetrized real part of M.
    ``budget`` caps the number of vectors covered; exhausting it without a
    verdict raises ``BudgetExceededError``. ``workers`` > 1 splits the rows
    that reach the forms GEMM into at most ``workers`` contiguous spans
    scanned by a thread pool, only when no budget is set and those rows fill
    more than ``POOL_BLOCKS`` chunks; the minimum-key violator among all
    spans is reported, so the result does not depend on the worker count.
    Chunks are sized from ``CHUNK_BYTES`` unless ``chunk_rows`` fixes the
    rows per chunk. A matrix with 2·Σ|S| not finite raises ``DflabError``, as
    no rounding bound holds for it (``rounding_slack``). A cube of more than
    one chunk is pruned as the module docstring sets out, with the same
    witness, value and ``checked``: without a budget, a cube whose verified
    Cholesky factorization proves every form at least -tol + slack
    (``_cube_proven_clean``) passes with ``checked`` = 2^dim - 1, as its full
    scan would, before any bound or GEMM runs.
    """
    S = _symmetric_part(matrix)
    dim = S.shape[0]
    slack = rounding_slack(dim, float(np.abs(S).sum()))
    total = (1 << dim) - 1
    key_limit = total if budget is None else min(total, budget)
    t = dim // 2
    while t > 0 and (dim - t + 2) * 8 << t > CHUNK_BYTES:
        t -= 1  # the GEMM factor W must fit the budget too
    h = dim - t
    n_x = 1 << h
    if chunk_rows is None:
        chunk_rows = max(1, CHUNK_BYTES // (8 << t))
    S_A = np.ascontiguousarray(S[:h, :h])
    n = min(n_x, (key_limit >> t) + 1)  # rows that hold a key <= key_limit

    if n_x <= chunk_rows:
        hit = _first_violator(np.arange(n, dtype=np.int64), S_A,
                              _forms_factor(S, h), tol, key_limit, chunk_rows)
    else:
        # a budget must still run out, so only a whole-cube scan is proven
        if key_limit == total and _cube_proven_clean(S, tol, slack):
            return ScanResult(None, 0.0, total)
        # min_y q_C(y) <= 0 (y = 0) is the least form of the low half
        cutoff = -tol + slack - float(cube_forms(S[h:, h:]).min())
        pieces = _surviving_rows(S, h, n, cutoff, chunk_rows)
        spans = 1
        if workers > 1 and budget is None:
            # the spans split every surviving row, so they are all bounded first
            rows = np.concatenate([np.empty(0, np.int64), *pieces])
            pieces = [rows] if rows.size else []
            if rows.size > POOL_BLOCKS * chunk_rows:
                spans = min(workers, -(-rows.size // chunk_rows))
        hit = W = None
        for rows in pieces:
            if W is None:
                # W and the block of forms that every serial piece fills are
                # one allocation per scan. glibc raises its trim threshold to
                # twice the largest block it has unmapped, so this block keeps
                # a scan's working set from being handed back at its end and
                # faulted in again by the next scan; two half-size blocks did
                # not (about 170 minor faults per dim-24 scan)
                block = np.empty((h + 2 + max(2, chunk_rows), 1 << t))
                W = _forms_factor(S, h, block[: h + 2])
            args = (S_A, W, tol, key_limit, chunk_rows)
            hit = (_first_violator(rows, *args, block[h + 2 :]) if spans == 1
                   else _pooled_first_violator(rows, spans, *args))
            if hit is not None:
                break

    if hit is not None:
        return ScanResult(hit[0], hit[1], hit[0])
    if key_limit < total:
        raise BudgetExceededError(
            f"no verdict after {key_limit} of {total} vectors"
        )
    return ScanResult(None, 0.0, total)


def connected_components(matrix: np.ndarray, tol: float) -> list[np.ndarray]:
    """Connected components of the nonzero-pattern graph (|entry| > tol).

    Components come back sorted by their smallest index, indices ascending
    within each; cross-component entries are <= tol by construction.
    """
    M = np.asarray(matrix)
    dim = M.shape[0]
    adj = (np.abs(M) > tol) | (np.abs(M.T) > tol)
    seen = np.zeros(dim, dtype=bool)
    components: list[np.ndarray] = []
    for start in range(dim):
        if seen[start]:
            continue
        frontier = [start]
        seen[start] = True
        members = [start]
        while frontier:
            node = frontier.pop()
            for nxt in np.nonzero(adj[node])[0]:
                if not seen[nxt]:
                    seen[nxt] = True
                    frontier.append(int(nxt))
                    members.append(int(nxt))
        components.append(np.array(sorted(members), dtype=np.int64))
    return components
