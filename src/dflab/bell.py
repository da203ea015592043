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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .axioms import DecoherenceReport, check_partition_decoherence
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


def bell_history_space(m: int, d: int) -> HistorySpace:
    """Factored space of all outcome assignments; size d^(2m), at most
    ``DENSE_DIM_CAP``.

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


def scenario_partitions(
    space: HistorySpace,
) -> Iterator[tuple[str, str | None, int, int | None, tuple[int, ...] | None, Partition]]:
    """All imposed partitions: fixed pairs, then one-step adaptive both ways.

    Constant maps g are skipped (they reproduce a fixed partition), so the
    count is m^2 fixed plus 2*m*(m^d - m) adaptive.
    """
    m, d = _scenario(space)
    for x in range(m):
        for y in range(m):
            yield "fixed", None, x, y, None, fixed_setting_partition(space, x, y)
    for party in ("alice", "bob"):
        for x in range(m):
            for g in itertools.product(range(m), repeat=d):
                if len(set(g)) == 1:
                    continue
                yield (
                    "adaptive",
                    party,
                    x,
                    None,
                    g,
                    adaptive_partition(space, x, g, party),
                )


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
    """
    m, d = behavior.settings, behavior.outcomes
    expected_space = bell_history_space(m, d)
    if D.space != expected_space:
        raise DflabError("DF space does not match the behavior's Bell scenario")
    checks = []
    worst = 0.0
    for kind, party, x, y, g, partition in scenario_partitions(D.space):
        report = check_partition_decoherence(D, partition, mode=mode, tol=tol)
        deviation = 0.0
        for cell_index, (a, b) in enumerate(itertools.product(range(d), repeat=2)):
            diag = df_evaluate(D, partition.cells[cell_index], partition.cells[cell_index]).real
            if kind == "fixed":
                target = behavior.table[x, y, a, b]
            elif party == "alice":
                target = behavior.table[x, g[a], a, b]
            else:
                target = behavior.table[g[b], x, a, b]
            deviation = max(deviation, abs(diag - float(target)))
        worst = max(worst, report.max_off_diagonal, deviation)
        checks.append(
            PartitionCheck(
                kind=kind,
                party=party,
                x=x,
                y=y,
                g=g,
                decoherence=report,
                behavior_deviation=deviation,
            )
        )
    verdict = all(c.decoherence.verdict and c.behavior_deviation <= tol for c in checks)
    return ConsistencyReport(
        verdict=verdict, worst_deviation=worst, partitions=tuple(checks)
    )
