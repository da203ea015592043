"""Bell-scenario history spaces and behavior-consistency constraints.

A history assigns an outcome to every potential measurement of both parties:
omega = (a_1..a_m, b_1..b_m) with each component in 0..d-1. Fixing a pair of
settings (x, y) partitions the space by the revealed outcomes; letting one
party's setting depend on the other's outcome gives the adaptive partitions.
A fixed partition is the adaptive one whose outcome-to-setting map is
constant. A DF reproduces a behavior P(a,b|x,y) when all these partitions
decohere and their diagonals match the table. Only one-step adaptivity is
imposed (each direction, each setting, each outcome-to-setting map); deeper
chains are out of scope. The number of settings m and of outcomes d are read
from the factors of the space.

Every cell of every imposed partition is a fixed cell
E(x,y,a,b) = {a_x = a, b_y = b}: Alice-first cell (a, b) under the map g is
E(x, g(a), a, b), and Bob-first cell (a, b) is E(g(b), x, a, b). So
:func:`check_behavior_consistency` forms one Gram matrix G = C D C^T over the
m^2 d^2 fixed cells and reads each partition's Gram as a sub-block of G; the
diagonal it compares with the table is ``df_evaluate`` of each fixed cell,
evaluated once. A failing verdict is confirmed by rebuilding its first
failing partition and checking it on its own.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .axioms import (
    DecoherenceReport,
    check_partition_decoherence,
    decoherence_from_gram,
    require_decoherence_mode,
)
from .core import (
    DENSE_DIM_CAP,
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    Event,
    HistorySpace,
    Partition,
    df_evaluate,
    make_space,
)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Joint outcome table P(a,b|x,y) for m settings and d outcomes per party."""

    settings: int
    outcomes: int
    table: np.ndarray    # shape (m, m, d, d), indexed [x][y][a][b]

    def __post_init__(self) -> None:
        m, d = self.settings, self.outcomes
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (m, m, d, d):
            raise DflabError(
                f"behavior table must have shape {(m, m, d, d)}, got {table.shape}"
            )
        # NaN fails the sign and row-sum tests below, so test it first
        if not np.isfinite(table).all():
            raise DflabError("behavior probabilities must be finite")
        if (table < -TOL_POS).any():
            raise DflabError("behavior has a negative probability")
        sums = table.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > TOL_EQ:
            raise DflabError("behavior rows must sum to 1 for every setting pair")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


@functools.lru_cache(maxsize=None)
def bell_history_space(m: int, d: int) -> HistorySpace:
    """Factored space of all outcome assignments; size d^(2m), at most
    ``DENSE_DIM_CAP``. Built once per (m, d); the space is immutable.

    Properties come in the order a_1..a_m, b_1..b_m, first most significant.
    """
    if m < 1 or d < 2:
        raise DflabError("need at least one setting and two outcomes")
    size = d ** (2 * m)
    if size > DENSE_DIM_CAP:
        raise DflabError(
            f"history space dimension {size} exceeds the cap {DENSE_DIM_CAP}"
        )
    factors = tuple((f"a{x + 1}", d) for x in range(m)) + tuple(
        (f"b{y + 1}", d) for y in range(m)
    )
    labels = [
        "(" + ",".join(str(v) for v in values) + ")"
        for values in itertools.product(range(d), repeat=2 * m)
    ]
    return make_space(labels, factors)


def _scenario(space: HistorySpace) -> tuple[int, int]:
    """(m, d) of a Bell history space: 2m factors of d values each."""
    if not space.factors:
        raise DflabError("space has no declared factors")
    m = len(space.factors) // 2
    d = space.factors[0][1]
    if len(space.factors) != 2 * m or space.size != d ** (2 * m):
        raise DflabError("space does not match the requested Bell scenario")
    return m, d


def fixed_setting_partition(space: HistorySpace, x: int, y: int) -> Partition:
    """d^2 cells indexed by (a, b): histories with a_x = a and b_y = b.

    This is the adaptive partition whose map sends every outcome to y.
    """
    m, d = _scenario(space)
    if not (0 <= x < m and 0 <= y < m):
        raise DflabError("setting index out of range")
    return adaptive_partition(space, x, (y,) * d)


def adaptive_partition(
    space: HistorySpace, x: int, g: Sequence[int], party: str = "alice"
) -> Partition:
    """Outcome-dependent partition: the second setting is g(first outcome).

    With ``party="alice"``, Alice measures setting x and Bob measures g(a);
    the cell for (a, b) collects histories with a_x = a and b_{g(a)} = b.
    ``party="bob"`` is the mirrored construction (Bob measures x first).
    """
    m, d = _scenario(space)
    if not 0 <= x < m:
        raise DflabError("setting index out of range")
    g = tuple(int(v) for v in g)
    if len(g) != d or any(not 0 <= v < m for v in g):
        raise DflabError("g must map every outcome 0..d-1 to a setting 0..m-1")
    if party not in ("alice", "bob"):
        raise DflabError("party must be 'alice' or 'bob'")
    table = space.property_table()
    cells = []
    for a, b in itertools.product(range(d), repeat=2):
        if party == "alice":
            mask = (table[:, x] == a) & (table[:, m + g[a]] == b)
        else:
            mask = (table[:, m + x] == b) & (table[:, g[b]] == a)
        cells.append(Event(space, mask.astype(np.int8)))
    return Partition(space, tuple(cells))


@dataclass(frozen=True, eq=False)
class PartitionCheck:
    """Result for one partition: decoherence plus diagonal-vs-table deviation."""

    kind: str                       # "fixed" or "adaptive"
    party: str | None               # adaptive only: who measures first
    x: int
    y: int | None                   # fixed only
    g: tuple[int, ...] | None       # adaptive only
    decoherence: DecoherenceReport
    behavior_deviation: float


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    verdict: bool
    worst_deviation: float
    partitions: tuple[PartitionCheck, ...]


_PartitionKey = tuple[str, str | None, int, int | None, tuple[int, ...] | None]


def _partition_keys(m: int, d: int) -> Iterator[_PartitionKey]:
    """(kind, party, x, y, g) of every imposed partition, in report order."""
    for x in range(m):
        for y in range(m):
            yield "fixed", None, x, y, None
    for party in ("alice", "bob"):
        for x in range(m):
            for g in itertools.product(range(m), repeat=d):
                if len(set(g)) == 1:
                    continue
                yield "adaptive", party, x, None, g


def _build_partition(space: HistorySpace, key: _PartitionKey) -> Partition:
    kind, party, x, y, g = key
    if kind == "fixed":
        return fixed_setting_partition(space, x, y)
    return adaptive_partition(space, x, g, party)


def scenario_partitions(
    space: HistorySpace,
) -> Iterator[tuple[str, str | None, int, int | None, tuple[int, ...] | None, Partition]]:
    """All imposed partitions: fixed pairs, then one-step adaptive both ways.

    Constant maps g are skipped (they reproduce a fixed partition), so the
    count is m^2 fixed plus 2*m*(m^d - m) adaptive.
    """
    m, d = _scenario(space)
    for key in _partition_keys(m, d):
        yield (*key, _build_partition(space, key))


def _fixed_cells(m: int, d: int, key: _PartitionKey) -> list[int]:
    """Index ((x*m + y)*d + a)*d + b of the fixed cell equal to each of the
    partition's cells, in its (a, b) order."""
    kind, party, x, y, g = key
    cells = []
    for a, b in itertools.product(range(d), repeat=2):
        if kind == "fixed":
            sx, sy = x, y
        elif party == "alice":
            sx, sy = x, g[a]
        else:
            sx, sy = g[b], x
        cells.append(((sx * m + sy) * d + a) * d + b)
    return cells


def check_behavior_consistency(
    D: DecoherenceFunctional,
    behavior: Behavior,
    mode: str = "strong",
    tol: float = TOL_EQ,
) -> ConsistencyReport:
    """Does D reproduce the behavior on every fixed and adaptive partition?

    Each partition must decohere in the requested mode and its diagonal must
    match the table: P(a,b|x,y) for a fixed pair, P(a,b|x,g(a)) when Bob's
    setting follows Alice's outcome (and mirrored for the other direction).
    Both are read from the fixed cells E(x,y,a,b), whose table entry is
    P(a,b|x,y) in every case; a failing verdict is re-checked on its first
    failing partition by :func:`_confirm_failure`.
    """
    require_decoherence_mode(mode)
    m, d = behavior.settings, behavior.outcomes
    expected_space = bell_history_space(m, d)
    if D.space != expected_space:
        raise DflabError("DF space does not match the behavior's Bell scenario")
    table = D.space.property_table()
    outcomes = np.arange(d)[:, None]
    alice = table[:, :m].T[:, None, :] == outcomes      # [x, a, history]
    bob = table[:, m:].T[:, None, :] == outcomes        # [y, b, history]
    fixed = (alice[:, None, :, None, :] & bob[None, :, None, :, :]).reshape(-1, D.dim)
    events = [Event(D.space, row) for row in fixed.view(np.int8)]
    targets = behavior.table.reshape(-1)
    cell_deviation = [
        abs(df_evaluate(D, event, event).real - float(target))
        for event, target in zip(events, targets)
    ]
    cells = fixed.astype(np.float64)
    gram = cells @ D.matrix @ cells.T
    checks = []
    worst = 0.0
    for key in _partition_keys(m, d):
        idx = _fixed_cells(m, d, key)
        report = decoherence_from_gram(gram[np.ix_(idx, idx)], mode, tol)
        deviation = max(cell_deviation[k] for k in idx)
        worst = max(worst, report.max_off_diagonal, deviation)
        checks.append(PartitionCheck(*key, decoherence=report, behavior_deviation=deviation))
    passed = [c.decoherence.verdict and c.behavior_deviation <= tol for c in checks]
    if not all(passed):
        _confirm_failure(D, behavior, checks[passed.index(False)], mode, tol)
    return ConsistencyReport(
        verdict=all(passed), worst_deviation=worst, partitions=tuple(checks)
    )


def _confirm_failure(
    D: DecoherenceFunctional,
    behavior: Behavior,
    check: PartitionCheck,
    mode: str,
    tol: float,
) -> None:
    """Rebuild a failing partition and re-derive its report cell by cell.

    Both routes sum entries of D in two stages of at most dim terms each (the
    0/1 products are exact), so each is within about 2*sqrt(2)*dim*eps*sum|D|
    of the exact value. A gap beyond 8*dim*eps*sum|D| between them, in the
    cross term, a probability or the deviation, raises RuntimeError.
    """
    key = (check.kind, check.party, check.x, check.y, check.g)
    partition = _build_partition(D.space, key)
    report = check_partition_decoherence(D, partition, mode=mode, tol=tol)
    d = behavior.outcomes
    deviation = 0.0
    for cell, (a, b) in zip(partition.cells, itertools.product(range(d), repeat=2)):
        if check.kind == "fixed":
            target = behavior.table[check.x, check.y, a, b]
        elif check.party == "alice":
            target = behavior.table[check.x, check.g[a], a, b]
        else:
            target = behavior.table[check.g[b], check.x, a, b]
        deviation = max(deviation, abs(df_evaluate(D, cell, cell).real - float(target)))
    bound = 8.0 * D.dim * np.finfo(np.float64).eps * float(np.abs(D.matrix).sum())
    gaps = [
        abs(report.max_off_diagonal - check.decoherence.max_off_diagonal),
        abs(deviation - check.behavior_deviation),
    ]
    if report.probabilities is not None and check.decoherence.probabilities is not None:
        gaps += [abs(p - q) for p, q in
                 zip(report.probabilities, check.decoherence.probabilities)]
    if max(gaps) > bound:
        raise RuntimeError(
            f"{check.kind} partition x={check.x} y={check.y} g={check.g}: the "
            f"one-Gram report differs from the per-partition one by {max(gaps):.3e}, "
            f"beyond the bound {bound:.3e}"
        )
