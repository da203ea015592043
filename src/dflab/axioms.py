"""Executable checks for every DF axiom in matrix representation.

Each axiom becomes a pure function from a DF (and tolerances) to a structured
report: hermiticity and normalization as scalar comparisons, weak positivity
as an enumeration over binary vectors, strong positivity as a Hermitian
eigenvalue problem, and partition decoherence as vanishing cross terms.
Verdicts are deterministic: enumeration witnesses are always the lowest in
the fixed ascending indicator order, regardless of chunking or worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    BRUTE_FORCE_MAX_DIM,
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    Event,
    Partition,
    UndecidableBlockError,
    ValidationLevel,
    hermiticity_deviation,
    require_hermitian,
)
from .kernels import connected_components, key_to_indicator, scan_ascending


class Verdict(str, enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    CERTIFIED = "certified"


class Strategy(str, enum.Enum):
    BRUTE_FORCE = "brute-force"
    BLOCK_REDUCED = "block-reduced"
    NORM_BOUND = "norm-bound"


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of a binary-vector positivity check.

    A Fail carries the witness event and its quadratic-form value; the
    witness re-evaluates to that value under ``df_evaluate``.
    """

    verdict: Verdict
    witness: Event | None
    witness_value: float | None
    vectors_checked: int
    strategy: Strategy

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.PASS, Verdict.CERTIFIED)


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Minimal eigenpair of a Hermitian DF matrix and the PSD verdict."""

    min_eigenvalue: float
    min_eigenvector: np.ndarray
    is_sp: bool
    residual: float


@dataclass(frozen=True, eq=False)
class DecoherenceReport:
    """Whether a partition decoheres, and the outcome probabilities if so."""

    mode: str                               # "weak" or "strong"
    verdict: bool
    probabilities: tuple[float, ...] | None
    max_off_diagonal: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Composite result of all axiom checks on one DF."""

    hermitian: bool
    hermiticity_deviation: float
    normalized: bool
    normalization_value: complex
    weak: PositivityReport
    strong: SpectralReport | None
    level: ValidationLevel


def check_hermiticity(D: DecoherenceFunctional, tol: float = TOL_EQ) -> tuple[bool, float]:
    """True iff max entrywise |D - D†| <= tol; also returns the deviation."""
    dev = hermiticity_deviation(D.matrix)
    return dev <= tol, dev


def check_normalization(D: DecoherenceFunctional, tol: float = TOL_EQ) -> tuple[bool, complex]:
    """True iff the sum of all entries equals 1 within tol; returns the sum."""
    total = complex(D.matrix.sum())
    return abs(total - 1.0) <= tol, total


def check_weak_positivity(
    D: DecoherenceFunctional,
    tol: float = TOL_POS,
    strategy: Strategy = Strategy.BRUTE_FORCE,
    workers: int = 1,
) -> PositivityReport:
    """Check <u|D|u> >= -tol for every non-empty binary vector u.

    The check is one loop over index blocks. Brute force takes the single
    block of all indices, so it enumerates all 2^dim - 1 vectors in ascending
    indicator order. Block-reduced takes the connected components of the
    nonzero pattern, which is equivalent because a block-diagonal quadratic
    form separates over blocks. Each block is enumerated in full, with no
    budget; the witness is the first violator of the first failing block,
    embedded in the full space. A block above ``BRUTE_FORCE_MAX_DIM`` raises
    ``UndecidableBlockError``, as in the block-power engine of
    :mod:`dflab.compose`.
    """
    M = D.matrix
    if strategy is Strategy.BRUTE_FORCE:
        index_blocks = [np.arange(D.dim)]
    elif strategy is Strategy.BLOCK_REDUCED:
        index_blocks = connected_components(M, TOL_EQ)
    else:
        raise DflabError(f"strategy {strategy} is not available for this check")

    checked_total = 0
    for block in index_blocks:
        if block.size > BRUTE_FORCE_MAX_DIM:
            raise UndecidableBlockError(
                f"block of size {block.size} exceeds the enumeration cap "
                f"{BRUTE_FORCE_MAX_DIM}"
            )
        key, value, checked = scan_ascending(
            M[np.ix_(block, block)], tol, workers=workers
        )
        checked_total += checked
        if key is not None:
            local = np.nonzero(key_to_indicator(key, block.size))[0]
            witness = Event.from_indices(D.space, block[local])
            return PositivityReport(Verdict.FAIL, witness, value, checked_total, strategy)
    return PositivityReport(Verdict.PASS, None, None, checked_total, strategy)


def check_strong_positivity(
    D: DecoherenceFunctional, tol: float = TOL_POS
) -> SpectralReport:
    """Minimal eigenpair of the Hermitian matrix; PSD iff min eig >= -tol.

    Backed by LAPACK's Hermitian eigensolver (tridiagonalization + QL/QR with
    its internal iteration cap); the residual field certifies the pair.
    """
    require_hermitian(D)
    eigenvalues, eigenvectors = np.linalg.eigh(D.matrix)
    value = float(eigenvalues[0])
    vector = canonical_phase(eigenvectors[:, 0])
    residual = float(np.linalg.norm(D.matrix @ vector - value * vector))
    return SpectralReport(
        min_eigenvalue=value,
        min_eigenvector=vector,
        is_sp=value >= -tol,
        residual=residual,
    )


def canonical_phase(vector: np.ndarray) -> np.ndarray:
    """Unit vector rescaled so its first component above 1e-12 in modulus is real > 0."""
    v = np.asarray(vector, dtype=np.complex128)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise DflabError("cannot canonicalize the zero vector")
    v = v / norm
    for comp in v:
        if abs(comp) > 1e-12:
            phased = v * (comp.conjugate() / abs(comp))
            phased.flags.writeable = False
            return phased
    raise DflabError("vector has no component above the phase tolerance")


def require_decoherence_mode(mode: str) -> None:
    """Raise unless ``mode`` is "weak" or "strong"."""
    if mode not in ("weak", "strong"):
        raise DflabError(f"unknown decoherence mode {mode!r}")


def check_partition_decoherence(
    D: DecoherenceFunctional,
    partition: Partition,
    mode: str = "strong",
    tol: float = TOL_EQ,
) -> DecoherenceReport:
    """Do the partition's cross terms vanish, leaving a probability vector?

    Weak mode requires |Re D(A_k|A_j)| <= tol for k != j, strong mode
    |D(A_k|A_j)| <= tol. On a pass the diagonal Re D(A_k|A_k) must also form
    a probability distribution (each >= -TOL_POS, summing to 1 within tol),
    which holds automatically for any normalized weakly positive DF.
    """
    require_decoherence_mode(mode)
    if partition.space != D.space:
        raise DflabError("partition space does not match the DF")
    cells = np.stack([cell.indicator for cell in partition.cells]).astype(np.float64)
    return decoherence_from_gram(cells @ D.matrix @ cells.T, mode, tol)


def decoherence_from_gram(gram: np.ndarray, mode: str, tol: float) -> DecoherenceReport:
    """The report of a partition whose cells' Gram is ``gram[k, j] = D(A_k|A_j)``.

    ``mode`` must already be checked by :func:`require_decoherence_mode`.
    """
    off = ~np.eye(gram.shape[0], dtype=bool)
    if mode == "weak":
        cross = float(np.abs(np.real(gram[off])).max()) if off.any() else 0.0
    else:
        cross = float(np.abs(gram[off]).max()) if off.any() else 0.0
    probabilities = np.real(np.diag(gram))
    cross_ok = cross <= tol
    prob_ok = bool(
        (probabilities >= -TOL_POS).all()
        and abs(probabilities.sum() - 1.0) <= tol
    )
    verdict = cross_ok and prob_ok
    return DecoherenceReport(
        mode=mode,
        verdict=verdict,
        probabilities=tuple(float(p) for p in probabilities) if verdict else None,
        max_off_diagonal=cross,
    )


def validate_df(
    D: DecoherenceFunctional,
    tol_eq: float = TOL_EQ,
    tol_pos: float = TOL_POS,
    workers: int = 1,
) -> ValidationReport:
    """Run hermiticity, normalization, weak and strong positivity checks.

    The reported level is the longest prefix of passing checks in that order.
    Weak positivity runs first, so a DF above ``BRUTE_FORCE_MAX_DIM`` raises
    ``UndecidableBlockError`` before any other work. The spectral stage is
    skipped (None) when the matrix is not Hermitian, since a Hermitian
    eigensolver would certify nothing there.
    """
    weak = check_weak_positivity(D, tol_pos, workers=workers)
    herm_ok, herm_dev = check_hermiticity(D, tol_eq)
    norm_ok, norm_val = check_normalization(D, tol_eq)
    strong = None
    if herm_ok:
        strong = check_strong_positivity(
            D.at_level(ValidationLevel.HERMITIAN), tol_pos
        )
    level = ValidationLevel.RAW
    if herm_ok:
        level = ValidationLevel.HERMITIAN
        if norm_ok:
            level = ValidationLevel.NORMALIZED
            if weak.passed:
                level = ValidationLevel.WEAKLY_POSITIVE
                if strong is not None and strong.is_sp:
                    level = ValidationLevel.STRONGLY_POSITIVE
    return ValidationReport(
        hermitian=herm_ok,
        hermiticity_deviation=herm_dev,
        normalized=norm_ok,
        normalization_value=norm_val,
        weak=weak,
        strong=strong,
        level=level,
    )
