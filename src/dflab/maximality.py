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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import canonical_phase, check_strong_positivity
from .compose import tensor
from .core import (
    TOL_EQ,
    TOL_POS,
    BudgetExceededError,
    DecoherenceFunctional,
    DflabError,
    Event,
    Partition,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    entrywise_nonnegative,
    hermiticity_deviation,
    make_space,
    require_hermitian,
    single_property_partition,
    space_product,
)
from .kernels import key_to_indicator, kron, scan_ascending
from .quantum import dv_family

PNN_GRID = tuple(2.0 ** k for k in range(-6, 13))
PNN_BUDGET = 10 ** 6


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
    a * 2m + 2a. ``matched`` holds when lhs and rhs = min eigenvalue / m agree
    within m^2 * eps * (sum_ab |D_ab| |partner_(2a,2b)| + |D|_F), a bound on
    the rounding of the summed terms and of the eigensolver, so it means the
    same at every scale of D.
    """
    value, v = min_eig_witness(D)
    if value >= -tol:
        raise DflabError(
            f"DF is already positive semidefinite (min eigenvalue {value:.3e})"
        )
    partner = dv_family(np.conj(v))
    m = D.dim
    product_space = space_product(D.space, partner.space)
    witness = Event.from_indices(product_space, [a * (2 * m) + 2 * a for a in range(m)])
    composed = tensor(D.at_level(ValidationLevel.HERMITIAN), partner)
    lhs = df_evaluate(composed, witness, witness).real
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


def nondecohering_property_partition(
    D: DecoherenceFunctional,
) -> tuple[int, Partition, tuple[int, int]] | None:
    """Find a single-property partition that refuses to decohere.

    For a non-negative Hermitian DF on a factored space, any off-diagonal
    entry between histories differing in property k forces the k-partition's
    cross term above TOL_EQ (non-negative entries cannot cancel). Returns the
    first such property (row-major entry scan, first differing property) or
    None exactly when the matrix is diagonal.
    """
    if not is_nonneg_hermitian(D):
        raise DflabError("DF must be Hermitian with non-negative entries")
    space = D.space
    if space.factors is None:
        raise DflabError("space has no declared factors")
    M = D.matrix.real
    dim = D.dim
    for row in range(dim):
        for col in range(dim):
            if row == col or M[row, col] <= TOL_EQ:
                continue
            row_values = space.decode(row)
            col_values = space.decode(col)
            for k, (rv, cv) in enumerate(zip(row_values, col_values)):
                if rv != cv:
                    partition = single_property_partition(space, k)
                    return k, partition, (rv, cv)
    return None


def pnn_violation_search(matrix: np.ndarray, tol: float = TOL_POS) -> PnnViolation | None:
    """Best-effort search for a non-negative 2x2 partner breaking positivity.

    Scans partners [[1, t], [t, s]] over a logarithmic (t, s) grid and, for
    each, the binary cube of M (x) partner in ascending order; the first
    violation in grid order is returned. An empty result after
    ``PNN_BUDGET`` evaluations is a valid (inconclusive) outcome.
    """
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DflabError("input must be a square matrix")
    if hermiticity_deviation(M) > TOL_EQ:
        raise DflabError("input must be Hermitian")
    if entrywise_nonnegative(M):
        raise DflabError("input already has non-negative entries")
    dim = M.shape[0]
    base_space = make_space([f"h{i}" for i in range(dim)])
    partner_space = make_space(["0", "1"])
    product_space = space_product(base_space, partner_space)
    remaining = PNN_BUDGET
    for t in PNN_GRID:
        for s in PNN_GRID:
            if remaining <= 0:
                return None
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
                witness = Event(
                    product_space, key_to_indicator(key, 2 * dim)
                )
                return PnnViolation(partner.real, witness, value)
    return None


def random_weakly_positive_nonsp(rng: np.random.Generator, dim: int) -> DecoherenceFunctional:
    """Random normalized DF that passes binary-vector positivity but not PSD.

    A classical diagonal DF is perturbed by a sum-zero Hermitian direction;
    the scale is swept downward until the brute-force checker accepts the
    binary cube while the minimal eigenvalue stays clearly negative.
    Rejection-samples new directions, up to 200, when a draw yields no such
    window.
    """
    if dim < 2 or dim > 12:
        raise DflabError("generator supports dimensions 2..12")
    space = make_space([f"h{i}" for i in range(dim)])
    for _ in range(200):
        probs = rng.dirichlet(np.ones(dim) * 2.0)
        base = np.diag(probs).astype(np.complex128)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        h -= h.sum().real / dim ** 2 * np.ones((dim, dim))  # keep the entry sum at 1
        h /= np.abs(h).max()
        for scale in np.geomspace(0.5, 1e-3, 28):
            candidate = base + scale * h
            if np.linalg.eigvalsh(candidate)[0] >= -100.0 * TOL_POS:
                continue  # not clearly non-PSD; smaller scales only get closer
            key, _, _ = scan_ascending(candidate, TOL_POS)
            if key is None:
                return df_from_matrix(candidate, space, require_normalized=True)
        # no window for this direction; draw again
    raise DflabError("could not generate a weakly positive non-PSD DF")
