"""Finite history spaces, events, partitions, and decoherence functionals.

Histories are elements of a finite labeled set. Events are subsets of that
set, encoded as {0,1} indicator vectors. A decoherence functional (DF) is a
dense complex square matrix over the space; every set-level question reduces
to vector algebra through the bilinear pairing D(A|B) = <A|D|B>.

Complex numbers are kept in Cartesian form (numpy complex128, i.e. a pair of
doubles). All types are immutable after construction and can be shared freely
across threads or worker processes; operations are pure functions of their
inputs.

Index conventions, fixed once and relied on everywhere:

* factored spaces decode indices in mixed radix with the FIRST factor most
  significant; for a two-factor product, index(i, j) = i * size2 + j (the
  usual Kronecker-product convention);
* an indicator vector read as a binary integer takes history 0 as the most
  significant bit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

TOL_EQ = 1e-10     # absolute tolerance for scalar equality checks
TOL_POS = 1e-10    # absolute cutoff for positivity verdicts

DENSE_DIM_CAP = 4096        # largest dense matrix the library will materialize
BRUTE_FORCE_MAX_DIM = 30    # binary enumeration bound: 2^dim vectors

LABEL_JOIN = "⋈"            # separator for product-space labels


class DflabError(ValueError):
    """Contract violation: bad input, failed precondition, cap exceeded."""


class BudgetExceededError(DflabError):
    """An enumeration budget ran out before a verdict was reached."""


class DimensionCapError(DflabError):
    """A dense object larger than the configured cap was requested."""


class UndecidableBlockError(DflabError):
    """A block has no certificate and is too large to enumerate."""


class ValidationLevel(enum.IntEnum):
    """How much of a DF's contract has been explicitly checked.

    Levels only upgrade through explicit checks; a value is a claim about the
    stored matrix, never about intent.
    """

    RAW = 0
    HERMITIAN = 1
    NORMALIZED = 2
    WEAKLY_POSITIVE = 3
    STRONGLY_POSITIVE = 4


LEVEL_NAMES = {
    ValidationLevel.RAW: "raw",
    ValidationLevel.HERMITIAN: "hermitian",
    ValidationLevel.NORMALIZED: "normalized",
    ValidationLevel.WEAKLY_POSITIVE: "weakly-positive",
    ValidationLevel.STRONGLY_POSITIVE: "strongly-positive",
}


def _readonly(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when no one else can write its data, else a read-only copy.

    No one can when ``arr`` is read-only and it, or the array its view reads,
    owns the data and is read-only too. A caller that hands over such an
    array hands over its data.
    """
    owner = arr if arr.base is None else arr.base
    if (
        not arr.flags.writeable
        and isinstance(owner, np.ndarray)
        and owner.flags.owndata
        and not owner.flags.writeable
    ):
        return arr
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HistorySpace:
    """A finite, labeled set of histories, optionally factored into properties.

    ``factors`` is a tuple of (property name, cardinality) pairs whose
    cardinalities multiply to the size; when present, index ``i`` decodes to a
    tuple of property values in mixed radix, first factor most significant.
    Factor identity is positional: names may repeat (products of like spaces).
    """

    labels: tuple[str, ...]
    factors: tuple[tuple[str, int], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.labels)

    def _radices(self) -> tuple[int, ...]:
        if self.factors is None:
            raise DflabError("history space has no declared factors")
        return tuple(card for _, card in self.factors)

    def encode(self, values: Sequence[int]) -> int:
        """Flat index of a property-value tuple (first factor most significant)."""
        radices = self._radices()
        if len(values) != len(radices):
            raise DflabError(
                f"expected {len(radices)} property values, got {len(values)}"
            )
        index = 0
        for value, card in zip(values, radices):
            if not 0 <= value < card:
                raise DflabError(f"property value {value} out of range 0..{card - 1}")
            index = index * card + value
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        """Property-value tuple of a flat index; inverse of :meth:`encode`."""
        radices = self._radices()
        if not 0 <= index < self.size:
            raise DflabError(f"history index {index} out of range 0..{self.size - 1}")
        values = []
        for card in reversed(radices):
            index, rem = divmod(index, card)
            values.append(rem)
        return tuple(reversed(values))

    def property_table(self) -> np.ndarray:
        """Read-only (size, n_factors) array: row i holds decode(i)."""
        return self._property_table

    @functools.cached_property
    def _property_table(self) -> np.ndarray:
        # built once per space; not a field, so equality and hash ignore it
        radices = self._radices()
        idx = np.arange(self.size)
        cols = []
        for card in reversed(radices):
            idx, rem = np.divmod(idx, card)
            cols.append(rem)
        table = np.stack(list(reversed(cols)), axis=1)
        table.flags.writeable = False
        return table


def make_space(
    labels: Sequence[str],
    factors: Sequence[tuple[str, int]] | None = None,
) -> HistorySpace:
    """Build a history space with deterministic index order matching ``labels``."""
    labels = tuple(str(lab) for lab in labels)
    if not labels:
        raise DflabError("a history space needs at least one history")
    if len(set(labels)) != len(labels):
        raise DflabError("history labels must be unique")
    if factors is not None:
        factors = tuple((str(name), int(card)) for name, card in factors)
        if any(card <= 0 for _, card in factors):
            raise DflabError("factor cardinalities must be positive")
        product = 1
        for _, card in factors:
            product *= card
        if product != len(labels):
            raise DflabError(
                f"factor cardinalities multiply to {product}, "
                f"but {len(labels)} labels were given"
            )
    return HistorySpace(labels=labels, factors=factors)


@functools.lru_cache(maxsize=64)
def space_product(s1: HistorySpace, s2: HistorySpace) -> HistorySpace:
    """Cartesian product space; index(i, j) = i * s2.size + j.

    Labels join with a separator; factor lists concatenate when both operands
    are factored (positional identity), otherwise the product is unfactored.
    Spaces are immutable values, so the last 64 distinct products are kept
    and an equal pair of operands gets the same product object back.
    """
    labels = tuple(
        f"{l1}{LABEL_JOIN}{l2}" for l1 in s1.labels for l2 in s2.labels
    )
    factors = None
    if s1.factors is not None and s2.factors is not None:
        factors = s1.factors + s2.factors
    return HistorySpace(labels=labels, factors=factors)


@dataclass(frozen=True, eq=False)
class Event:
    """A subset of a history space as a {0,1} indicator vector."""

    space: HistorySpace
    indicator: np.ndarray

    def __post_init__(self) -> None:
        ind = np.asarray(self.indicator)
        if ind.shape != (self.space.size,):
            raise DflabError(
                f"indicator length {ind.shape} does not match space size {self.space.size}"
            )
        # compare before casting: int8 would wrap 256 to 0 and truncate 0.5
        bits = ind.astype(bool)
        if not (ind == bits).all():
            raise DflabError("indicator entries must be 0 or 1")
        bits = bits.view(np.int8)
        bits.flags.writeable = False
        object.__setattr__(self, "indicator", bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.space == other.space and bool(
            np.array_equal(self.indicator, other.indicator)
        )

    @classmethod
    def from_indices(cls, space: HistorySpace, indices: Sequence[int]) -> "Event":
        ind = np.zeros(space.size, dtype=np.int8)
        for i in indices:
            if not 0 <= i < space.size:
                raise DflabError(f"history index {i} out of range")
            ind[i] = 1
        return cls(space, ind)

    @classmethod
    def full(cls, space: HistorySpace) -> "Event":
        return cls(space, np.ones(space.size, dtype=np.int8))

    @classmethod
    def empty(cls, space: HistorySpace) -> "Event":
        return cls(space, np.zeros(space.size, dtype=np.int8))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.indicator)[0])

    @property
    def weight(self) -> int:
        return int(self.indicator.sum())


@dataclass(frozen=True, eq=False)
class Partition:
    """A disjoint family of events covering the whole space."""

    space: HistorySpace
    cells: tuple[Event, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise DflabError("a partition needs at least one cell")
        for cell in cells:
            if cell.space != self.space:
                raise DflabError("partition cell belongs to a different space")
        coverage = np.zeros(self.space.size, dtype=np.int64)
        for cell in cells:
            coverage += cell.indicator
        if (coverage > 1).any():
            raise DflabError("partition cells overlap")
        if (coverage == 0).any():
            raise DflabError("partition cells do not cover the space")
        object.__setattr__(self, "cells", cells)


def single_property_partition(space: HistorySpace, k: int) -> Partition:
    """Partition by the value of the k-th property of a factored space."""
    if space.factors is None:
        raise DflabError("space has no declared factors")
    if not 0 <= k < len(space.factors):
        raise DflabError(f"property index {k} out of range")
    table = space.property_table()
    card = space.factors[k][1]
    cells = tuple(
        Event(space, (table[:, k] == value).astype(np.int8))
        for value in range(card)
    )
    return Partition(space, cells)


@dataclass(frozen=True, eq=False)
class DecoherenceFunctional:
    """A complex matrix over a history space, plus its checked validation level."""

    space: HistorySpace
    matrix: np.ndarray
    validation_level: ValidationLevel = ValidationLevel.RAW

    def __post_init__(self) -> None:
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DflabError(f"matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != self.space.size:
            raise DflabError(
                f"matrix dimension {mat.shape[0]} does not match "
                f"space size {self.space.size}"
            )
        if not (np.isfinite(mat.real).all() and np.isfinite(mat.imag).all()):
            raise DflabError("matrix entries must be finite")
        mat = _readonly(mat)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.space.size

    def at_level(self, level: ValidationLevel) -> "DecoherenceFunctional":
        """Copy with an upgraded validation level (callers certify via checks)."""
        if level < self.validation_level:
            return self
        return replace(self, validation_level=level)


def hermiticity_deviation(matrix: np.ndarray) -> float:
    """Largest entrywise deviation |M - M†|."""
    mat = np.asarray(matrix, dtype=np.complex128)
    return float(np.abs(mat - mat.conj().T).max())


def entrywise_nonnegative(matrix: np.ndarray) -> bool:
    """Real parts >= -TOL_EQ (tested first: the usual failure) and |imag| <= TOL_EQ."""
    mat = np.asarray(matrix)
    return bool((mat.real >= -TOL_EQ).all() and (np.abs(mat.imag) <= TOL_EQ).all())


def require_hermitian(D: DecoherenceFunctional) -> None:
    """Raise unless D is Hermitian within ``TOL_EQ``; a checked level skips the test."""
    if D.validation_level >= ValidationLevel.HERMITIAN:
        return
    dev = hermiticity_deviation(D.matrix)
    if dev > TOL_EQ:
        raise DflabError(f"operation needs a Hermitian DF: max |D - D†| = {dev:.3e}")


def df_from_matrix(
    matrix: np.ndarray,
    space: HistorySpace,
    require_normalized: bool = False,
    tol: float = TOL_EQ,
) -> DecoherenceFunctional:
    """Wrap a matrix as a DF after checking hermiticity (and normalization).

    Returns a Hermitian-validated DF; with ``require_normalized`` the total
    entry sum must equal 1 within ``tol`` and the level becomes Normalized.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    dev = hermiticity_deviation(mat)
    if dev > tol:
        raise DflabError(f"matrix is not Hermitian: max |M - M†| = {dev:.3e}")
    level = ValidationLevel.HERMITIAN
    if require_normalized:
        total = complex(mat.sum())
        if abs(total - 1.0) > tol:
            raise DflabError(
                f"matrix is not normalized: sum of entries = {total!r}"
            )
        level = ValidationLevel.NORMALIZED
    return DecoherenceFunctional(space, mat, level)


def df_evaluate(D: DecoherenceFunctional, A: Event, B: Event) -> complex:
    """Bilinear pairing D(A|B) = <A|D|B> for indicator vectors A, B."""
    if A.space != D.space or B.space != D.space:
        raise DflabError("event space does not match the DF's history space")
    a = A.indicator.astype(np.float64)
    b = B.indicator.astype(np.float64)
    return complex(a @ D.matrix @ b)
