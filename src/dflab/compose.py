"""Tensor composition of DFs and n-fold composability checks.

Independent systems compose by the Kronecker product of their matrices over
the product history space. Composability of n copies is a weak-positivity
question about D^(tensor n); for block-diagonal D it decomposes exactly,
because a block-diagonal quadratic form separates over blocks and the blocks
of D^(tensor n) are n-fold tensor products of the blocks of D. Tensor factors
can be permuted without leaving the binary cube, so only the multiset of
block choices matters; blocks are scanned by their type vector in
lexicographic order, which keeps witnesses deterministic.

``scan_block_powers`` is the one engine for that block scan: the
block-reduced composability check and the Lemma 1 n-copy check both call it,
the latter with a norm certificate that settles blocks before enumeration.
One enumeration cap, ``BRUTE_FORCE_MAX_DIM`` = 30, covers validation, brute
force composability and every tensor block; a block with no certificate
above it raises ``UndecidableBlockError`` (CLI exit code 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .axioms import Strategy, Verdict, check_weak_positivity
from .core import (
    BRUTE_FORCE_MAX_DIM,
    DENSE_DIM_CAP,
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    DimensionCapError,
    HistorySpace,
    UndecidableBlockError,
    ValidationLevel,
    entrywise_nonnegative,
    make_space,
    require_hermitian,
    space_product,
)
from .kernels import connected_components, key_to_indicator, kron, scan_ascending


@dataclass(frozen=True, eq=False)
class ComposabilityReport:
    """Weak-positivity verdict for D^(tensor n), with block-level witnesses."""

    n: int
    strategy: Strategy
    verdict: Verdict
    witness_block: tuple[int, ...] | None     # type vector of the failing block
    witness_indices: tuple[int, ...] | None   # flat indices in the n-copy space
    witness_value: float | None
    vectors_checked: int

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.PASS, Verdict.CERTIFIED)


def tensor(D1: DecoherenceFunctional, D2: DecoherenceFunctional) -> DecoherenceFunctional:
    """Joint DF of two independent systems: Kronecker product of the matrices.

    Hermiticity and normalization survive by construction (the entry sum is
    multiplicative). Strong positivity survives when both inputs carry it;
    weak positivity does not transfer, so such inputs come back Normalized.
    """
    require_hermitian(D1)
    require_hermitian(D2)
    product_dim = D1.dim * D2.dim
    if product_dim > DENSE_DIM_CAP:
        raise DimensionCapError(
            f"product dimension {product_dim} exceeds the dense cap {DENSE_DIM_CAP}"
        )
    space = space_product(D1.space, D2.space)
    matrix = kron(D1.matrix, D2.matrix)
    # a view of kron's fresh product: read-only, both are kept without a copy
    matrix.flags.writeable = matrix.base.flags.writeable = False
    lmin = min(D1.validation_level, D2.validation_level)
    if lmin == ValidationLevel.STRONGLY_POSITIVE:
        level = ValidationLevel.STRONGLY_POSITIVE
    elif lmin == ValidationLevel.WEAKLY_POSITIVE:
        level = ValidationLevel.NORMALIZED
    else:
        level = lmin
    return DecoherenceFunctional(space, matrix, level)


def singleton_df() -> DecoherenceFunctional:
    """The trivial DF [1] on a one-history space (unit of composition)."""
    space = make_space(("()",))
    return DecoherenceFunctional(
        space, np.array([[1.0 + 0.0j]]), ValidationLevel.STRONGLY_POSITIVE
    )


def tensor_power(D: DecoherenceFunctional, n: int) -> DecoherenceFunctional:
    """n-fold tensor product of D with itself; n = 0 gives the singleton DF."""
    if n < 0:
        raise DflabError("tensor power needs n >= 0")
    if n == 0:
        return singleton_df()
    if D.dim ** n > DENSE_DIM_CAP:
        raise DimensionCapError(
            f"dimension {D.dim}^{n} exceeds the dense cap {DENSE_DIM_CAP}"
        )
    result = D
    for _ in range(n - 1):
        result = tensor(result, D)
    return result


def copy_space(space: HistorySpace, n: int) -> HistorySpace:
    """Product of n copies of a space (n >= 1), matching tensor_power's space."""
    if n < 1:
        raise DflabError("copy_space needs n >= 1")
    return reduce(space_product, [space] * n)


def detect_blocks(D: DecoherenceFunctional) -> tuple[tuple[int, ...], ...]:
    """Connected components of the nonzero-pattern graph (|entry| > TOL_EQ)."""
    require_hermitian(D)
    return tuple(
        tuple(int(i) for i in comp) for comp in connected_components(D.matrix, TOL_EQ)
    )


def _type_vectors(r: int, n: int) -> Iterator[tuple[int, ...]]:
    """All (n_1..n_r) with sum n, in lexicographic ascending order."""
    if r == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _type_vectors(r - 1, n - first):
            yield (first,) + rest


def check_composability(
    D: DecoherenceFunctional,
    n: int,
    strategy: Strategy = Strategy.BRUTE_FORCE,
    tol: float = TOL_POS,
) -> ComposabilityReport:
    """Weak-positivity verdict for the n-fold tensor power of D.

    Brute force materializes D^(tensor n) and hands it to
    ``check_weak_positivity``; the dim^n cap is checked before the power is
    built. Block-reduced never materializes the full power: it detects the
    blocks of D and hands them to ``scan_block_powers``.
    """
    require_hermitian(D)
    if n < 0:
        raise DflabError("composability check needs n >= 0")
    if n == 0:
        return ComposabilityReport(
            0, strategy, Verdict.PASS, None, None, None, 0
        )

    if strategy is Strategy.BRUTE_FORCE:
        full_dim = D.dim ** n
        if full_dim > BRUTE_FORCE_MAX_DIM:
            raise DflabError(
                f"brute force needs dim^n <= {BRUTE_FORCE_MAX_DIM}, got {full_dim}"
            )
        weak = check_weak_positivity(tensor_power(D, n), tol)
        indices = weak.witness.indices if weak.witness is not None else None
        return ComposabilityReport(
            n, strategy, weak.verdict, None, indices, weak.witness_value,
            weak.vectors_checked,
        )

    if strategy is Strategy.BLOCK_REDUCED:
        blocks = detect_blocks(D)
        factors = [D.matrix[np.ix_(b, b)] for b in blocks]
        return scan_block_powers(factors, blocks, D.dim, n, tol)

    raise DflabError(f"strategy {strategy} is not available for this check")


def scan_block_powers(
    factors: Sequence[np.ndarray],
    index_blocks: Sequence[Sequence[int]],
    base_dim: int,
    n: int,
    tol: float,
    certify: Callable[[tuple[int, ...]], bool] | None = None,
) -> ComposabilityReport:
    """Scan every tensor block of the n-fold power of a block-diagonal matrix.

    ``factors[i]`` is the block on the indices ``index_blocks[i]`` of a
    ``base_dim``-dimensional matrix. Type vectors are visited in
    lexicographic order. Each is offered to ``certify`` first; an uncertified
    block larger than ``BRUTE_FORCE_MAX_DIM`` raises
    ``UndecidableBlockError``, an entrywise non-negative one passes (every
    binary form there is a sum of non-negative terms), and the rest are
    enumerated. The first violator is lifted to flat n-copy indices and its
    value is that of the block as given. The verdict is Certified only when
    ``certify`` accepted every type vector.
    """
    checked_total = 0
    all_certified = certify is not None
    for type_vector in _type_vectors(len(factors), n):
        if certify is not None and certify(type_vector):
            continue
        all_certified = False
        sequence = [i for i, count in enumerate(type_vector) for _ in range(count)]
        block_dim = math.prod(len(index_blocks[i]) for i in sequence)
        if block_dim > BRUTE_FORCE_MAX_DIM:
            raise UndecidableBlockError(
                f"no certificate and tensor block of dimension {block_dim} "
                f"exceeds the enumeration cap {BRUTE_FORCE_MAX_DIM}"
            )
        T = reduce(kron, [factors[i] for i in sequence])
        if entrywise_nonnegative(T):
            continue
        key, value, checked = scan_ascending(T, tol)
        checked_total += checked
        if key is not None:
            # n-copy index of each entry of T in kron's layout; ascending index
            # blocks make the map monotone, so the witness stays sorted
            flat = reduce(
                lambda a, b: (a[:, None] * base_dim + b).ravel(),
                [np.asarray(index_blocks[i]) for i in sequence],
            )
            local = np.nonzero(key_to_indicator(key, block_dim))[0]
            return ComposabilityReport(
                n,
                Strategy.BLOCK_REDUCED,
                Verdict.FAIL,
                type_vector,
                tuple(int(i) for i in flat[local]),
                value,
                checked_total,
            )
    verdict = Verdict.CERTIFIED if all_certified else Verdict.PASS
    return ComposabilityReport(
        n, Strategy.BLOCK_REDUCED, verdict, None, None, None, checked_total
    )
