"""The two-parameter 4x4 family with bounded self-composability.

For lam > 1 and 0 < eps <= 1/(1+lam), the matrix

    D = (1/2) eps A (x) |0><0|  +  (1/2) (I - eps A) (x) |1><1|,
    A = [[1, lam], [lam, 1]],

is a weakly positive, normalized DF over the four histories (a, b) with flat
index 2a + b (the b value selects the block). Its n-fold tensor power stays
weakly positive for suitable parameters, while an explicit two-point vector
on the (n+1)-copy space makes the quadratic form negative:

    <V| D^(x)(n+1) |V> = (1/2^n) eps^n [1 - eps (1 + lam^(n+1))],

which is negative exactly when eps > 1/(lam^(n+1) + 1). Choosing
eps = 1/(lam^(n+1/2) + 1) lands strictly inside that window.

Positivity of the n-copy power is decided block by block by
``compose.scan_block_powers``: the blocks of D^(x)n are the positive
multiples (eps^n1 / 2^n) A^(x)n1 (x) B^(x)n2 with B = I - eps A, so the
engine scans the unscaled products against the tolerance, and the n2 = 0
block is trivial (all entries non-negative). Each block either carries a
norm certificate derived from the exact 2x2 eigenvalues of A and B or is
enumerated over its binary cube; the shared cap of dimension 30 applies, so
enumeration reaches n = 4 and an uncertified block beyond it raises
``UndecidableBlockError`` (CLI exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .axioms import PositivityReport, Strategy, Verdict
from .compose import UndecidableBlockError, copy_space, scan_block_powers
from .core import (
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    Event,
    HistorySpace,
    df_from_matrix,
    make_space,
)
from .kernels import kron

LAMBDA_SEARCH_CAP = 2.0 ** 20


@dataclass(frozen=True)
class Lemma1Params:
    """A point of the family plus the copy count being tested."""

    lam: float
    eps: float
    n: int

    def __post_init__(self) -> None:
        if not self.lam > 1.0:
            raise DflabError("lam must exceed 1")
        if not 0.0 < self.eps <= 1.0 / (1.0 + self.lam):
            raise DflabError("eps must lie in (0, 1/(1+lam)]")
        if self.n < 1:
            raise DflabError("n must be a positive integer")


@dataclass(frozen=True, eq=False)
class Lemma1Report:
    """Outcome of the full experiment at one parameter point."""

    params: Lemma1Params
    n_copy_verdict: PositivityReport
    witness_value: float            # closed form on the (n+1)-copy space
    witness_value_numeric: float    # factorized matrix evaluation of the same form
    lemma_holds: bool


def coupling_matrix(lam: float) -> np.ndarray:
    return np.array([[1.0, lam], [lam, 1.0]], dtype=np.complex128)


def lemma1_space() -> HistorySpace:
    labels = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    return make_space(labels, factors=(("a", 2), ("b", 2)))


def _lemma1_matrix(lam: float, eps: float) -> np.ndarray:
    """The family's 4x4 matrix at (lam, eps), unchecked."""
    A = coupling_matrix(lam)
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    return 0.5 * kron(eps * A, p0) + 0.5 * kron(np.eye(2) - eps * A, p1)


def lemma1_df(lam: float, eps: float) -> DecoherenceFunctional:
    """The 4x4 family member at (lam, eps), Hermitian and normalized."""
    Lemma1Params(lam, eps, 1)  # parameter bounds
    return df_from_matrix(
        _lemma1_matrix(lam, eps), lemma1_space(), require_normalized=True
    )


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, with a result beyond the float range raised as
    :class:`DflabError` instead of ``OverflowError``."""
    try:
        return base ** exponent
    except OverflowError:
        raise DflabError(f"{base!r} ** {exponent!r} is beyond the float range") from None


def lemma1_epsilon(lam: float, n: int) -> float:
    """eps = 1/(lam^(n+1/2) + 1): inside (0, 1/(1+lam)] and past the
    negativity threshold 1/(lam^(n+1) + 1) for the (n+1)-copy witness."""
    if not lam > 1.0:
        raise DflabError("lam must exceed 1")
    if n < 1:
        raise DflabError("n must be a positive integer")
    return 1.0 / (_power(lam, n + 0.5) + 1.0)


def _witness_histories(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Per-copy (a, b) values of the two histories spanned by the witness."""
    first = tuple([(0, 0)] * n + [(0, 1)])
    second = tuple([(1, 0)] * n + [(1, 1)])
    return first, second


def _flat_index(copies: tuple[tuple[int, int], ...]) -> int:
    flat = 0
    for a, b in copies:
        flat = flat * 4 + 2 * a + b
    return flat


def lemma1_copy_space(copies: int) -> HistorySpace:
    return copy_space(lemma1_space(), copies)


def lemma1_witness(n: int) -> Event:
    """Two-point event on the (n+1)-copy space whose form goes negative."""
    if n < 1:
        raise DflabError("n must be a positive integer")
    first, second = _witness_histories(n)
    space = lemma1_copy_space(n + 1)
    return Event.from_indices(space, [_flat_index(first), _flat_index(second)])


def lemma1_witness_value(lam: float, eps: float, n: int) -> float:
    """Closed form of the witness quadratic form on the (n+1)-copy power."""
    Lemma1Params(lam, eps, n)
    return (eps ** n / _power(2.0, n)) * (1.0 - eps * (1.0 + _power(lam, n + 1)))


def witness_is_negative(lam: float, eps: float, n: int, tol: float = TOL_POS) -> bool:
    """Sign test for the witness value at any scale.

    The value factors as (eps^n / 2^n) * (1 - eps (1 + lam^(n+1))) with a
    positive prefactor that shrinks below any absolute tolerance by n = 5, so
    the cutoff is applied to the scale-free bracket instead.
    """
    Lemma1Params(lam, eps, n)
    return 1.0 - eps * (1.0 + _power(lam, n + 1)) < -tol


def lemma1_witness_value_numeric(lam: float, eps: float, n: int) -> float:
    """Same form evaluated from matrix entries, copy by copy.

    The witness spans two basis histories g, h; the (n+1)-copy entry is the
    product of per-copy entries, so the form is D[g,g] + D[h,h] + 2 Re D[g,h]
    with each term a product over copies. No tensor power is materialized,
    and the entries are read from the family's matrix as ``lemma1_df``
    builds it.
    """
    Lemma1Params(lam, eps, n)
    M = _lemma1_matrix(lam, eps)
    first, second = _witness_histories(n)

    def product_entry(rows, cols) -> complex:
        value = 1.0 + 0.0j
        for (ra, rb), (ca, cb) in zip(rows, cols):
            value *= M[2 * ra + rb, 2 * ca + cb]
        return value

    diag = product_entry(first, first).real + product_entry(second, second).real
    cross = 2.0 * product_entry(first, second).real
    return float(diag + cross)


def norm_bound(lam: float, eps: float, n1: int, n2: int) -> float:
    """Certified lower bound on the normalized binary form of A^n1 (x) B^n2.

    For unit-normalized non-negative vectors, <w|A^n1 (x) I|w> >= 1 because
    A - I has non-negative entries; subtracting the operator norm of
    A^n1 (x) (B^n2 - I) (exact from the 2x2 eigenvalues: A has 1 +/- lam, B
    has 1 - eps(1 -/+ lam)) leaves a lower bound. A positive bound certifies
    the block with no enumeration.
    """
    if n1 < 0 or n2 < 1:
        raise DflabError("norm_bound needs n1 >= 0 and n2 >= 1")
    norm_a = 1.0 + lam
    beta_minus = 1.0 - eps * (1.0 + lam)
    beta_plus = 1.0 - eps * (1.0 - lam)
    deviation = max(
        abs(beta_minus ** k * _power(beta_plus, n2 - k) - 1.0) for k in range(n2 + 1)
    )
    return 1.0 - _power(norm_a, n1) * deviation


def ncopy_positivity_check(
    lam: float, eps: float, n: int, tol: float = TOL_POS
) -> PositivityReport:
    """Block check with norm certificates first, enumeration as fallback.

    When every block is certified the verdict is Certified with no vectors
    scanned; any uncertified block falls back to its enumeration. A violator
    of the unscaled block A^n1 (x) B^n2 is reported with its value in
    D^(x)n, scaled by eps^n1 / 2^n.
    """
    Lemma1Params(lam, eps, n)
    A = coupling_matrix(lam)
    B = np.eye(2, dtype=np.complex128) - eps * A
    report = scan_block_powers(
        [A, B],
        ((0, 2), (1, 3)),
        4,
        n,
        tol,
        certify=lambda tv: tv[1] == 0 or norm_bound(lam, eps, *tv) > 0.0,
    )
    if report.verdict is Verdict.CERTIFIED:
        return PositivityReport(
            Verdict.CERTIFIED, None, None, 0, Strategy.NORM_BOUND
        )
    if report.verdict is Verdict.FAIL:
        scale = (eps ** report.witness_block[0]) / (2.0 ** n)
        return PositivityReport(
            Verdict.FAIL,
            Event.from_indices(lemma1_copy_space(n), report.witness_indices),
            report.witness_value * scale,
            report.vectors_checked,
            Strategy.BLOCK_REDUCED,
        )
    return PositivityReport(
        Verdict.PASS, None, None, report.vectors_checked, Strategy.BLOCK_REDUCED
    )


def find_lambda(n: int, tol: float = TOL_POS) -> tuple[Lemma1Params, PositivityReport]:
    """Double lam from 2 up to ``LAMBDA_SEARCH_CAP`` until eps =
    lemma1_epsilon(lam, n) gives a positive n-copy verdict and a negative
    (n+1)-copy witness value.

    Returns ``(Lemma1Params, PositivityReport)``: the point that succeeded
    and its n-copy report, which is the search's own verdict there (one
    ``ncopy_positivity_check`` per lam tried, none repeated). A lam whose
    blocks are neither certified nor enumerable counts as a miss
    (certificates cover every split once lam is large enough).
    """
    if n < 1:
        raise DflabError("n must be a positive integer")
    lam = 2.0
    while lam <= LAMBDA_SEARCH_CAP:
        eps = lemma1_epsilon(lam, n)
        try:
            report = ncopy_positivity_check(lam, eps, n, tol)
        except UndecidableBlockError:
            report = None
        if report is not None and report.passed and witness_is_negative(lam, eps, n, tol):
            return Lemma1Params(lam, eps, n), report
        lam *= 2.0
    raise DflabError(f"no lam <= {LAMBDA_SEARCH_CAP} succeeded for n = {n}")


def lemma1_experiment(
    n: int,
    lam: float | None = None,
    eps: float | None = None,
    tol: float = TOL_POS,
) -> Lemma1Report:
    """Run the whole experiment: choose parameters, verify both halves.

    With lam omitted, the doubling search picks it; eps defaults to
    lemma1_epsilon(lam, n). With both omitted, the reported n-copy verdict
    is the search's own, one check per lam tried; a given lam or eps is
    checked afresh. The verdict depends only on (lam, eps, n, tol), so both
    routes report the same bytes. The lemma holds at the point when the
    n-copy check passes and the closed-form witness value is negative.
    """
    if lam is None and eps is None:
        params, verdict = find_lambda(n, tol=tol)
    else:
        if lam is None:
            lam = find_lambda(n, tol=tol)[0].lam
        params = Lemma1Params(lam, eps if eps is not None else lemma1_epsilon(lam, n), n)
        verdict = ncopy_positivity_check(params.lam, params.eps, params.n, tol)
    closed = lemma1_witness_value(params.lam, params.eps, params.n)
    numeric = lemma1_witness_value_numeric(params.lam, params.eps, params.n)
    # Both routes cancel terms of total size (eps/2)^n (1 + eps (1 + lam^(n+1))),
    # so rounding is relative to that size; it shrinks with eps^n as the value
    # does, and stays above the value where eps nears the sign threshold.
    size = (params.eps ** params.n / 2.0 ** params.n) * (
        1.0 + params.eps * (1.0 + params.lam ** (params.n + 1))
    )
    if not math.isclose(closed, numeric, rel_tol=0.0, abs_tol=1e-9 * size):
        raise DflabError(
            f"closed-form and factorized witness values disagree: "
            f"{closed!r} vs {numeric!r}"
        )
    holds = verdict.passed and witness_is_negative(
        params.lam, params.eps, params.n, tol
    )
    return Lemma1Report(
        params=params,
        n_copy_verdict=verdict,
        witness_value=closed,
        witness_value_numeric=numeric,
        lemma_holds=holds,
    )
