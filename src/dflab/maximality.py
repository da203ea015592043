"""Why strong positivity cannot be weakened while keeping composability.

Any Hermitian DF with a negative eigenvalue composes badly: if v is a unit
vector with <v|D|v> < 0, the quantum partner D' = dv_family(v*) and the
two-point-per-row witness w = sum_a |a>_A |a,0>_B satisfy

    <w| D (x) D' |w> = (1/m) <v|D|v> < 0,

an exact algebraic identity, so the product violates binary-vector
positivity. This module builds that counterexample and verifies the identity
numerically.

It also examines the other known composable class: Hermitian matrices with
non-negative entries. Their tensor products stay in the class and every
binary form is a sum of non-negative terms, but any off-diagonal entry makes
some single-property partition fail to decohere (non-negative entries cannot
cancel), leaving only diagonal, classical members. A best-effort grid search
looks for the 2x2 non-negative partner that breaks positivity for matrices
outside the class.

Both binary-cube loops here scan forms that are linear in one parameter: the
form of M (x) [[1, t], [t, s]] at x = (u, w) is A(u) + 2t·B(u, w) + s·A(w),
and the generator's form at scale σ is xᵀ diag(p) x + σ·xᵀ Re(h) x. So the
pnn search evaluates its cube once per t instead of once per (t, s) point,
and the generator once per draw instead of once per scale. These passes only
filter. A point is decided without a scan only when its least form lies
farther from the cutoff -tol than a slack of 64·(cube width)·ε·Σ|S|, with
Σ|S| that of the point's form matrix, which bounds the rounding of both the
pass and the scan. A skipped pnn point is charged the 2^(2·dim) - 1 keys its
scan would have covered. Every other point is scanned by ``scan_ascending``
as before, so partners, witnesses, value bits, the budget-exhausted None and
the generated matrices are those of a scan at every point.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .axioms import canonical_phase, check_strong_positivity
from .core import (
    DENSE_DIM_CAP,
    TOL_EQ,
    TOL_POS,
    BudgetExceededError,
    DecoherenceFunctional,
    DflabError,
    DimensionCapError,
    Event,
    ValidationLevel,
    df_from_matrix,
    entrywise_nonnegative,
    hermiticity_deviation,
    make_space,
    require_hermitian,
    space_product,
)
from .kernels import (
    CHUNK_BYTES,
    cube_bits,
    cube_forms,
    key_to_indicator,
    kron,
    scan_ascending,
)
from .quantum import dv_family

PNN_GRID = tuple(2.0 ** k for k in range(-6, 13))
PNN_BUDGET = 10 ** 6
_SCALES = np.geomspace(0.5, 1e-3, 28)  # the generator's sweep, largest first
_SCALES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Lemma2Report:
    """Composition counterexample for one non-PSD input DF."""

    input_dim: int
    min_eigenvalue: float
    v: np.ndarray                       # canonical minimal eigenvector
    partner: DecoherenceFunctional      # quantum DF of dimension 2m
    witness: Event                      # on the product space, dimension 2m^2
    lhs: float                          # <w| D (x) partner |w>
    rhs: float                          # min_eigenvalue / m
    matched: bool


@dataclass(frozen=True, eq=False)
class PnnViolation:
    """A found positivity violation M (x) partner with its binary witness."""

    partner: np.ndarray                 # 2x2, non-negative entries
    witness: Event
    value: float


def min_eig_witness(D: DecoherenceFunctional) -> tuple[float, np.ndarray]:
    """Minimal eigenpair, eigenvector phased so its first nonzero entry is
    real positive (deterministic across runs; any eigenvector of a degenerate
    minimal eigenvalue works, the solver's choice is kept)."""
    require_hermitian(D)
    report = check_strong_positivity(D.at_level(ValidationLevel.HERMITIAN))
    return report.min_eigenvalue, canonical_phase(report.min_eigenvector)


def verify_lemma2(D: DecoherenceFunctional, tol: float = TOL_POS) -> Lemma2Report:
    """Quantum partner and binary witness that break the composition of a
    non-PSD D, checked on the materialized D (x) partner.

    The partner is dv_family(v*) for the canonical minimal eigenvector v; the
    witness puts a one at every product history (a, (a, 0)), flat index
    a * 2m + 2a. lhs is the witness form on the raw kron(D.matrix,
    partner.matrix), a @ K @ a for the witness indicator a as float64, the
    arithmetic of ``df_evaluate``; a product of more than ``DENSE_DIM_CAP``
    histories (2m^2) raises ``DimensionCapError`` before the partner is
    built. ``matched`` holds when lhs and rhs = min eigenvalue / m agree
    within m^2 * eps * (sum_ab |D_ab| |partner_(2a,2b)| + |D|_F), a bound on
    the rounding of the summed terms and of the eigensolver, so it means the
    same at every scale of D.
    """
    value, v = min_eig_witness(D)
    if value >= -tol:
        raise DflabError(
            f"DF is already positive semidefinite (min eigenvalue {value:.3e})"
        )
    m = D.dim
    product_dim = m * (2 * m)
    if product_dim > DENSE_DIM_CAP:
        raise DimensionCapError(
            f"product dimension {product_dim} exceeds the dense cap {DENSE_DIM_CAP}"
        )
    partner = dv_family(np.conj(v))
    product_space = space_product(D.space, partner.space)
    witness = Event.from_indices(product_space, [a * (2 * m) + 2 * a for a in range(m)])
    a = witness.indicator.astype(np.float64)
    lhs = complex(a @ kron(D.matrix, partner.matrix) @ a).real
    rhs = value / m
    terms = np.abs(D.matrix) * np.abs(partner.matrix[0::2, 0::2])
    bound = m * m * float(np.finfo(np.float64).eps) * float(
        terms.sum() + np.linalg.norm(D.matrix)
    )
    return Lemma2Report(
        input_dim=m,
        min_eigenvalue=value,
        v=v,
        partner=partner,
        witness=witness,
        lhs=lhs,
        rhs=rhs,
        matched=abs(lhs - rhs) <= bound,
    )


def is_nonneg_hermitian(D: DecoherenceFunctional) -> bool:
    """Hermitian with entrywise non-negative (hence real) entries, within TOL_EQ."""
    return hermiticity_deviation(D.matrix) <= TOL_EQ and entrywise_nonnegative(D.matrix)


def _proven_clean(M: np.ndarray, tol: float) -> Iterator[np.ndarray]:
    """Per t of ``PNN_GRID``, in order: for every s of the grid, whether the
    scan of M (x) [[1, t], [t, s]] is proven to find no form below -tol.

    With x = (u, w) for the two partner rows, the form is
    A(u) + 2t·B(u, w) + s·A(w), where A(u) = uᵀSu, B(u, w) = uᵀSw and S is
    the symmetrized real part of M. So g_t(w) = min_u (A(u) + 2t·B(u, w))
    serves every s of a t, and each s then costs min_w (g_t(w) + s·A(w)) over
    the 2^dim values of w; the pair u = w = 0, the empty vector, is left out.
    The terms A(u) + 2t·B(u, w) come from one GEMM of [uᵀS | A(u)] rows
    against [2t·w ; 1] columns, for at most ``CHUNK_BYTES`` of u rows at a
    time, into one reused block; a t is formed only when the search asks.

    A point is proven clean when its minimum is at least -tol + slack with
    slack = 64·(2·dim)·ε·Σ|S|·(1 + 2t + s), the slack of the scan's row bound
    at the product's width 2·dim: Σ|S|·(1 + 2t + s) is Σ|S| of the product's
    form matrix, every value here is a sum of its terms S_ij·x_i·x_j through
    at most 2·dim + 4 roundings, and the scan's through at most 3·(2·dim) + 2
    (``scan_ascending``). With 2ε for the cutoff that is under a tenth of the
    slack, so a proven point holds no form the scan computes below -tol. A
    point whose sum could overflow is not proven.
    """
    R = M.real
    S = (R + R.T) / 2.0
    dim = S.shape[0]
    n = 1 << dim
    U = cube_bits(dim)
    US = U @ S
    A = np.einsum("ij,ij->i", US, U)
    UA = np.column_stack((US, A))  # row u: [uᵀS | A(u)]
    W = np.ones((dim + 1, n))  # column w: [2t·w ; 1]
    rows = min(n, CHUNK_BYTES // (8 * n))  # both powers of two
    block = np.empty((rows, n))
    grid = np.array(PNN_GRID)
    norm = float(np.abs(S).sum())
    unit = 128 * dim * float(np.finfo(np.float64).eps)
    for t in PNN_GRID:
        np.multiply(U.T, 2.0 * t, out=W[:dim])
        g = np.full(n, np.inf)
        for lo in range(0, n, rows):
            part = np.matmul(UA[lo : lo + rows], W, out=block)
            if lo == 0:
                part[0, 0] = np.inf  # the empty vector
            np.minimum(g, part.min(axis=0), out=g)
        weight = norm * (1.0 + 2.0 * t + grid)  # Σ|S| of each product's form
        low = (g + grid[:, None] * A).min(axis=1)
        yield (low >= -tol + unit * weight) & (2.0 * weight < np.inf)


def pnn_violation_search(matrix: np.ndarray, tol: float = TOL_POS) -> PnnViolation | None:
    """Best-effort search for a non-negative 2x2 partner breaking positivity.

    Scans partners [[1, t], [t, s]] over a logarithmic (t, s) grid, t outer,
    and, for each, the binary cube of M (x) partner in ascending order; the
    first violation in grid order is returned. An empty result after
    ``PNN_BUDGET`` evaluations is a valid (inconclusive) outcome.

    When one product cube fits the budget (2·dim bits, dim <= 9 at the
    default budget), one pass over the cube's forms (``_proven_clean``)
    proves points clean first: such a point is skipped and charged its
    2^(2·dim) - 1 keys, the keys its scan would have covered, or ends the
    search with None if fewer keys remain, as the scan capped by them would.
    The first point not proven clean is scanned as before, so the partner,
    witness, value bits and the budget-exhausted None are those of a scan
    at every point.
    """
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DflabError("input must be a square matrix")
    if hermiticity_deviation(M) > TOL_EQ:
        raise DflabError("input must be Hermitian")
    if entrywise_nonnegative(M):
        raise DflabError("input already has non-negative entries")
    dim = M.shape[0]
    remaining = PNN_BUDGET
    total = (1 << 2 * dim) - 1  # non-empty keys of one product cube
    if total <= remaining:
        proofs = _proven_clean(M, tol)
    else:
        proofs = itertools.repeat((False,) * len(PNN_GRID))
    for t, clean in zip(PNN_GRID, proofs):
        for s, proven in zip(PNN_GRID, clean):
            if remaining <= 0:
                return None
            if proven:
                # what its scan would cover; a charge past the budget ends
                # the search at the next point, as the capped scan would
                remaining -= total
                continue
            partner = np.array([[1.0, t], [t, s]], dtype=np.complex128)
            composed = kron(M, partner)
            try:
                key, value, checked = scan_ascending(
                    composed, tol, budget=remaining
                )
            except BudgetExceededError:
                return None
            remaining -= checked
            if key is not None:
                product_space = space_product(
                    make_space([f"h{i}" for i in range(dim)]), make_space(["0", "1"])
                )
                witness = Event(product_space, key_to_indicator(key, 2 * dim))
                return PnnViolation(partner.real, witness, value)
    return None


def random_weakly_positive_nonsp(rng: np.random.Generator, dim: int) -> DecoherenceFunctional:
    """Random normalized DF that passes binary-vector positivity but not PSD.

    A classical diagonal DF is perturbed by a sum-zero Hermitian direction;
    the scale is swept downward until the brute-force checker accepts the
    binary cube while the minimal eigenvalue stays clearly negative.
    Rejection-samples new directions, up to 200, when a draw yields no such
    window.

    The form of x at scale σ is xᵀ diag(p) x + σ·xᵀ Re(h) x, so the two terms
    are computed once per draw for every x (``cube_forms``), and the least
    form at each σ is a sum and a minimum. The slack is
    64·dim·ε·(Σp + σ·Σ|Re h|), the scan's rounding slack for a form matrix
    of that Σ|S|. A scale whose minimum is below -tol - slack has a violator
    the scan would find, and is skipped without an eigensolve; one at or
    above -tol + slack has none the scan could find; only a scale in between
    is scanned. The returned matrix is the one a scan at every scale returns.
    """
    if dim < 2 or dim > 12:
        raise DflabError("generator supports dimensions 2..12")
    space = make_space([f"h{i}" for i in range(dim)])
    unit = 64 * dim * float(np.finfo(np.float64).eps)
    for _ in range(200):
        probs = rng.dirichlet(np.ones(dim) * 2.0)
        base = np.diag(probs).astype(np.complex128)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        h -= h.sum().real / dim ** 2 * np.ones((dim, dim))  # keep the entry sum at 1
        h /= np.abs(h).max()
        P = cube_forms(np.diag(probs))[1:]  # xᵀ diag(p) x, x non-empty
        H = cube_forms(h.real)[1:]
        mass, spread = float(probs.sum()), float(np.abs(h.real).sum())
        for scale in _SCALES:
            low = float((P + scale * H).min())
            slack = unit * (mass + scale * spread)
            if low < -TOL_POS - slack:
                continue  # the scan would find a violator
            candidate = base + scale * h
            if np.linalg.eigvalsh(candidate)[0] >= -100.0 * TOL_POS:
                continue  # not clearly non-PSD; smaller scales only get closer
            if low < -TOL_POS + slack:
                key, _, _ = scan_ascending(candidate, TOL_POS)
                if key is not None:
                    continue
            return df_from_matrix(candidate, space, require_normalized=True)
        # no window for this direction; draw again
    raise DflabError("could not generate a weakly positive non-PSD DF")
