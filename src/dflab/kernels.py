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
block of forms from one float64 GEMM against a precomputed (h + 2) x 2^t
factor. Both the block of forms and that factor are held to about
``CHUNK_BYTES`` so that they stay in cache: t is dim/2, lowered until the
factor fits. A scan's memory therefore does not grow with the 2^dim cube.

The 0/1 rows of both halves come from bit tables that are built once per
width and kept read-only for the life of the process. Only widths whose
table fits ``CHUNK_BYTES`` are kept (12 bits and below, about 0.7 MB in
all); a wider row is the concatenation of lookups into narrower tables, so
a small scan pays for its arithmetic and not for rebuilding its bits.

``kron`` is ``np.kron`` for 1-D and 2-D arrays, bit for bit, without the
generic setup that costs more than the product at the sizes scanned here.

``workers`` > 1 scans contiguous spans of the cube in a thread pool: the GEMMs
and reductions release the interpreter lock. This assumes that workers × BLAS
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


class ScanResult(NamedTuple):
    key: int | None      # lowest violating indicator key, None if no violation
    value: float         # quadratic form at the witness (0.0 on pass)
    checked: int         # number of non-empty vectors evaluated


def key_to_indicator(key: int, dim: int) -> np.ndarray:
    """Indicator vector of a key; history 0 is the most significant bit."""
    if not 0 <= key < (1 << dim):
        raise DflabError(f"key {key} out of range for dimension {dim}")
    bits = [(key >> (dim - 1 - j)) & 1 for j in range(dim)]
    return np.array(bits, dtype=np.int8)


def quadratic_form(matrix: np.ndarray, indicator: np.ndarray) -> complex:
    """<u|M|u> for a {0,1} vector u (no conjugation needed, u is real)."""
    u = np.asarray(indicator, dtype=np.float64)
    return complex(u @ np.asarray(matrix, dtype=np.complex128) @ u)


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


def _fill_bits(out: np.ndarray, values: np.ndarray) -> None:
    """Row i of ``out`` = the bits of values[i], MSB first (out.shape[1] bits).

    The row is filled from its low end in lookups of at most ``TABLE_BITS``
    bits; ``mode="wrap"`` keeps just the low bits of each index, and a width
    within the table is a single lookup.
    """
    for stop in range(out.shape[1], 0, -TABLE_BITS):
        w = min(TABLE_BITS, stop)
        _bit_table(w).take(values, axis=0, out=out[:, stop - w : stop],
                           mode="wrap")
        values = values >> w


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D or two 2-D arrays, bitwise ``np.kron``.

    The same broadcast product a[i, j]·b[k, l], laid out as [i, k, j, l], that
    ``np.kron`` forms, without its expand_dims and subclass handling.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == b.ndim == 2:
        (p, q), (r, s) = a.shape, b.shape
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(a.size * b.size)
    raise DflabError("kron takes two 1-D or two 2-D arrays")


def _scan_span(
    S_A: np.ndarray,
    W: np.ndarray,
    tol: float,
    x_lo: int,
    x_hi: int,
    key_limit: int,
    chunk_rows: int,
) -> tuple[int, float] | None:
    """Lowest violator with key in [x_lo*2^t, x_hi*2^t) ∩ [1, key_limit].

    A key is x*2^t + y. Row x of ``[X | q_A | 1] @ W`` holds the forms of
    every y, where X holds the bits of x and q_A = xᵀS_A x.
    """
    h = S_A.shape[0]
    n_cols = W.shape[1]
    x_hi = min(x_hi, key_limit // n_cols + 1)
    for lo in range(x_lo, x_hi, chunk_rows):
        hi = min(lo + chunk_rows, x_hi)
        XA = np.empty((hi - lo, h + 2))
        X = XA[:, :h]
        _fill_bits(X, np.arange(lo, hi, dtype=np.int64))
        XA[:, h] = np.einsum("ij,ij->i", X @ S_A, X)
        XA[:, h + 1] = 1.0
        Q = (XA @ W).ravel()
        base = lo * n_cols
        Q = Q[: key_limit - base + 1]
        if base == 0:
            Q[0] = np.inf  # skip the empty vector
        if Q.min() < -tol:
            offset = int(np.argmax(Q < -tol))  # first True: lowest key
            return base + offset, float(Q[offset])
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
    ``budget`` caps the number of vectors evaluated; exhausting it without a
    verdict raises ``BudgetExceededError``. ``workers`` > 1 splits the range
    into contiguous spans scanned by a thread pool (only when no budget is
    set); the minimum-key violator among all spans is reported, so the result
    does not depend on the worker count. Chunks are sized from
    ``CHUNK_BYTES`` unless ``chunk_rows`` fixes the rows per chunk.
    """
    R = np.real(np.asarray(matrix))
    S = (R + R.T) / 2.0
    dim = S.shape[0]
    total = (1 << dim) - 1
    key_limit = total if budget is None else min(total, budget)
    t = dim // 2
    while t > 0 and (dim - t + 2) * 8 << t > CHUNK_BYTES:
        t -= 1  # the GEMM factor W below must fit the budget too
    h = dim - t
    n_x = 1 << h
    if chunk_rows is None:
        chunk_rows = max(1, CHUNK_BYTES // (8 << t))

    # W = [2·S_B·Yᵀ ; 1 ; q_C], with Y the bits of every low-half y
    Y = _bit_table(t)  # t <= TABLE_BITS: the factor W fits CHUNK_BYTES
    W = np.empty((h + 2, 1 << t))
    W[:h] = 2.0 * (S[:h, h:] @ Y.T)
    W[h] = 1.0
    W[h + 1] = np.einsum("ij,ij->i", Y @ S[h:, h:], Y)
    S_A = np.ascontiguousarray(S[:h, :h])

    if workers > 1 and budget is None and n_x >= 2 * workers:
        # imported here: ``import dflab`` should not pay for concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        bounds = np.linspace(0, n_x, workers + 1, dtype=np.int64)
        # more threads than cores cannot help; spans beyond them queue
        threads = min(workers, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_scan_span, S_A, W, tol, int(bounds[i]),
                            int(bounds[i + 1]), key_limit, chunk_rows)
                for i in range(workers)  # n_x >= 2 * workers: no span is empty
            ]
            hits = [hit for f in futures if (hit := f.result()) is not None]
        if hits:
            key, value = min(hits)
            return ScanResult(key, value, key)  # keys 1..key were all covered
        return ScanResult(None, 0.0, total)

    hit = _scan_span(S_A, W, tol, 0, n_x, key_limit, chunk_rows)
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
