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
size) is pruned by one prefix bound applied at two depths before any GEMM.
Split S after its first p bits into S_PP and S_P,rest; with c_x =
2·S_P,restᵀx, the forms of every key with prefix x are at least
q_P(x) + Σ_k min(0, c_x[k]) + L, where L is a lower bound on the forms of
the rest (``_prefix_bounds``). The rows that share a prefix of x's top
h // 2 bits form a group, bounded with L the least such bound of the
sub-cube after the prefix; each row of a kept group is bounded with p = h
and L = min_y q_C(y). A bound costs O(p·dim), and the forms of a row cost
O(h·2^t). Only the rows of groups whose bound falls below -tol + slack reach
the row bound, and only rows whose row bound falls below it reach the forms
GEMM; the slack 64·dim·ε·Σ|S| covers the rounding of every bound and form
(``rounding_slack``). Row bound pieces start at one chunk of kept rows and
double up to ``CHUNK_BYTES``, so a violator in the first rows costs what it
would without the bounds. Surviving rows are scanned in ascending order, so
the witness, its value and the covered count are the same as without
pruning. A one-chunk cube skips the bounds and their set-up.

``kron`` is ``np.kron`` for 1-D and 2-D arrays, bit for bit, without the
generic setup that costs more than the product at the sizes scanned here.

``workers`` > 1 scans contiguous spans of the kept rows in a thread pool: the
GEMMs and reductions release the interpreter lock. The pool starts only when
the kept rows fill more than ``POOL_BLOCKS`` chunks, as its start-up costs
more than a second worker saves on fewer. This assumes that workers × BLAS
threads does not exceed the cores; an unpinned multithreaded BLAS under
several workers oversubscribes them.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

import numpy as np

from .core import BudgetExceededError, DflabError

# Bytes of one chunk's block of forms (float64) and cap on the GEMM factor,
# small enough to stay in a core's L2 cache; 512 KiB scanned dims 20 and 24
# fastest among budgets of 128 KiB-4 MiB.
CHUNK_BYTES = 1 << 19

# Widest cached bit table: a width-w table holds 8·w·2^w bytes (12 bits).
TABLE_BITS = max(w for w in range(1, 64) if 8 * w << w <= CHUNK_BYTES)

# Chunks of kept rows above which ``workers`` > 1 starts a thread pool. On 2
# cores a pool costs about 0.6 ms to start, and a second worker saved time
# from 32-128 kept chunks at dims 24-26 and from 512 at dim 28, where the row
# bound prunes most kept rows; positive definite cubes at dims 24-28 kept up
# to about 250.
POOL_BLOCKS = 128

_EPS = float(np.finfo(np.float64).eps)
_HALF_MAX = float(np.finfo(np.float64).max) / 2.0  # exact: 2·x is finite up to it


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
    width = out.shape[1]
    for stop in range(width, 0, -TABLE_BITS):
        if stop < width:
            values = values >> TABLE_BITS  # the lookup before took TABLE_BITS
        w = min(TABLE_BITS, stop)
        _bit_table(w).take(values, axis=0, out=out[:, stop - w : stop],
                           mode="wrap")


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


def _forms_factor(S: np.ndarray, h: int) -> np.ndarray:
    """W = [2·S_B·Yᵀ ; 1 ; q_C] for S split at h, with Y the bits of every
    low-half y, so that row x of ``[X | q_A | 1] @ W`` holds the forms of
    every y."""
    t = S.shape[0] - h
    Y = _bit_table(t)  # t <= TABLE_BITS: the factor W fits CHUNK_BYTES
    W = np.empty((h + 2, 1 << t))
    np.matmul(2.0 * S[:h, h:], Y.T, out=W[:h])  # = 2·(S_B·Yᵀ): doubling is exact
    W[h] = 1.0
    W[h + 1] = np.einsum("ij,ij->i", Y @ S[h:, h:], Y)
    return W


def _first_violator(rows: np.ndarray, S_A: np.ndarray, W: np.ndarray, tol: float,
                    key_limit: int, chunk_rows: int) -> tuple[int, float] | None:
    """Lowest violator with key <= key_limit among the ascending ``rows``.

    A key is x*2^t + y, and the forms of row x are row x of
    ``[X | q_A | 1] @ W``, built ``chunk_rows`` rows at a time. Rows that
    span several chunks reuse one block for them, as a fresh cache-sized
    block per chunk can cost the allocator a round of page faults each time.
    """
    h = S_A.shape[0]
    n_cols = W.shape[1]
    forms = None
    if rows.size > chunk_rows:
        forms = np.empty((max(2, chunk_rows), n_cols))  # 2: see the gemv note
    for start in range(0, rows.size, chunk_rows):
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


def _scan_span(S: np.ndarray, S_A: np.ndarray,
               bound: tuple[np.ndarray, float, np.ndarray, int], tol: float,
               lo: int, hi: int, key_limit: int,
               chunk_rows: int) -> tuple[int, float] | None:
    """Lowest violator with key <= key_limit among rows lo..hi-1 of the
    ascending rows the group bound keeps.

    ``bound`` is ``(R, cutoff, groups, shift)``: R = ``_split_rows(S, h)``,
    and the kept rows are those of the ascending prefixes ``groups``, each
    followed by its 2^shift rows. Kept rows are taken in pieces that start at
    ``chunk_rows`` rows and double up to the rows whose X·R fills
    ``CHUNK_BYTES``, and only the rows whose row bound (``_prefix_bounds``)
    falls below ``cutoff`` go on to the GEMM. Its factor W is built when the
    first row does, so a span that the row bound prunes whole never builds it.
    """
    R, cutoff, groups, shift = bound
    h = S_A.shape[0]
    mask = (1 << shift) - 1
    cap = max(chunk_rows, CHUNK_BYTES // R[0].nbytes)
    size = chunk_rows
    W = None
    while lo < hi:
        kept = np.arange(lo, min(lo + size, hi), dtype=np.int64)
        rows = (groups[kept >> shift] << shift) | (kept & mask)
        X = np.empty((rows.size, h))
        _fill_bits(X, rows)
        survivors = rows[_prefix_bounds(X, R) < cutoff]
        if survivors.size:
            if W is None:
                W = _forms_factor(S, h)
            hit = _first_violator(survivors, S_A, W, tol, key_limit, chunk_rows)
            if hit is not None:
                return hit
        lo += rows.size
        size = min(2 * size, cap)
    return None


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
    the group bound keeps into at most ``workers`` contiguous spans scanned
    by a thread pool, only when no budget is set and those rows fill more
    than ``POOL_BLOCKS`` chunks; the minimum-key violator among all spans is
    reported, so the result does not depend on the worker count. Chunks are
    sized from ``CHUNK_BYTES`` unless ``chunk_rows`` fixes the rows per chunk.
    A matrix with 2·Σ|S| not finite raises ``DflabError``, as no rounding
    bound holds for it (``rounding_slack``).

    A cube of more than one chunk of rows is pruned by one prefix bound
    (``_prefix_bounds``) at two depths. A group of rows that share a prefix
    of x's top h // 2 bits is dropped when the prefix's bound plus the least
    bound of the sub-cube after it is at least
    cutoff = -tol + slack - min_y q_C(y); a row x of a kept group skips the
    forms GEMM when its own bound is. The slack covers the rounding of every
    bound and form, so the witness, its value and ``checked`` do not change.
    A cube of one chunk is scanned without the bounds.
    """
    R = np.real(np.asarray(matrix))
    S = (R + R.T) / 2.0
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
        # min_y q_C(y) <= 0 (y = 0) is the least form of the low half
        cutoff = -tol + slack - float(cube_forms(S[h:, h:]).min())
        # groups: the rows that share their top h1 bits; L is the least bound
        # of the rest of the row bits (rows h1..h of the row bound's factor)
        h1 = h // 2
        shift = h - h1
        split = _split_rows(S, h)
        L = float(_prefix_bounds(_bit_table(shift), split[h1:, h1:]).min())
        prefixes = _bit_table(h1)[: ((n - 1) >> shift) + 1]  # groups below row n
        groups = np.flatnonzero(
            _prefix_bounds(prefixes, _split_rows(S, h1)) + L < cutoff)
        # kept rows: whole groups below n's own group, then the part of it below n
        top = n >> shift
        k = int(np.searchsorted(groups, top))
        part = n & ((1 << shift) - 1) if k < groups.size and groups[k] == top else 0
        n = (k << shift) + part
        bound = (split, cutoff, groups, shift)

        blocks = -(-n // chunk_rows)
        if workers > 1 and budget is None and blocks > POOL_BLOCKS:
            # imported here: ``import dflab`` should not pay for
            # concurrent.futures
            from concurrent.futures import ThreadPoolExecutor

            spans = min(workers, blocks)  # n >= blocks: no span is empty
            edges = np.linspace(0, n, spans + 1, dtype=np.int64)
            # more threads than cores cannot help; spans beyond them queue
            threads = min(spans, os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [
                    pool.submit(_scan_span, S, S_A, bound, tol, int(edges[i]),
                                int(edges[i + 1]), key_limit, chunk_rows)
                    for i in range(spans)
                ]
                hits = [hit for f in futures if (hit := f.result()) is not None]
            if hits:
                key, value = min(hits)
                return ScanResult(key, value, key)  # keys 1..key were all covered
            return ScanResult(None, 0.0, total)

        hit = _scan_span(S, S_A, bound, tol, 0, n, key_limit, chunk_rows)

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
