"""Independent formulas that the tests check the library against.

None of these has a caller in the library, the CLI or the benchmark; each is
a second route to a value the library computes its own way.
"""

import itertools

import numpy as np

from dflab.axioms import check_partition_decoherence
from dflab.bell import (
    Behavior,
    ConsistencyReport,
    PartitionCheck,
    bell_history_space,
    scenario_partitions,
)
from dflab import maximality
from dflab.core import (
    TOL_EQ,
    TOL_POS,
    BudgetExceededError,
    DecoherenceFunctional,
    DflabError,
    Event,
    df_evaluate,
    df_from_matrix,
    entrywise_nonnegative,
    hermiticity_deviation,
    make_space,
    space_product,
)
from dflab.kernels import key_to_indicator, kron, scan_ascending
from dflab.quantum import dv_family


def quadratic_form(matrix: np.ndarray, indicator: np.ndarray) -> complex:
    """<u|M|u> for a {0,1} vector u (no conjugation needed, u is real)."""
    u = np.asarray(indicator, dtype=np.float64)
    return complex(u @ np.asarray(matrix, dtype=np.complex128) @ u)


def event_product(e1: Event, e2: Event) -> Event:
    """Rectangle event A1 x A2 on the product space."""
    return Event(space_product(e1.space, e2.space), kron(e1.indicator, e2.indicator))


def dv_closed_form(v: np.ndarray) -> np.ndarray:
    """Rank-structured form of ``dv_family(v).matrix``: one projector per
    b-sector, (1/m)|v><v| on b=0 and diag(|v_a|^2) - (1/m)|v><v| on b=1."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    m = v.size
    vv = np.outer(v, v.conj())
    block0 = vv / m
    block1 = np.diag(np.abs(v) ** 2).astype(np.complex128) - vv / m
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    return kron(block0, p0) + kron(block1, p1)


def contraction_check(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Partial trace identity for the dv construction.

    With w = sum_a |a>_A |a,0>_B on the bipartite space (A of dimension m, B
    the 2m histories of dv_family), computes tr_B{|w><w| (I_A x D_v)} and
    reports whether it equals (1/m)|v*><v*|, v* the entrywise conjugate,
    within TOL_EQ.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    m = v.size
    D = dv_family(v).matrix
    w = np.zeros((m, 2 * m), dtype=np.complex128)
    for a in range(m):
        w[a, 2 * a] = 1.0
    result = w @ D.T @ w.conj().T
    expected = np.outer(v.conj(), v) / m
    matches = bool(np.abs(result - expected).max() <= TOL_EQ)
    return result, matches


def per_partition_consistency(
    D: DecoherenceFunctional,
    behavior: Behavior,
    mode: str = "strong",
    tol: float = TOL_EQ,
) -> ConsistencyReport:
    """Behavior consistency one partition at a time: every partition is built
    as events, gets its own Gram matrix from ``check_partition_decoherence``,
    and every cell's diagonal is its own ``df_evaluate`` call."""
    m, d = behavior.settings, behavior.outcomes
    if D.space != bell_history_space(m, d):
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


def per_point_pnn_search(matrix: np.ndarray, tol: float = TOL_POS):
    """``pnn_violation_search`` one grid point at a time: every partner
    [[1, t], [t, s]] gets its own ``scan_ascending`` of M (x) partner, each
    capped by what is left of ``maximality.PNN_BUDGET`` (read at call time)."""
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
    remaining = maximality.PNN_BUDGET
    for t in maximality.PNN_GRID:
        for s in maximality.PNN_GRID:
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
                return maximality.PnnViolation(partner.real, witness, value)
    return None


def per_scale_weakly_positive_nonsp(
    rng: np.random.Generator, dim: int
) -> DecoherenceFunctional:
    """``random_weakly_positive_nonsp`` one scale at a time: every scale that
    is clearly non-PSD gets its own ``scan_ascending`` of the candidate."""
    if dim < 2 or dim > 12:
        raise DflabError("generator supports dimensions 2..12")
    space = make_space([f"h{i}" for i in range(dim)])
    for _ in range(200):
        probs = rng.dirichlet(np.ones(dim) * 2.0)
        base = np.diag(probs).astype(np.complex128)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        h -= h.sum().real / dim ** 2 * np.ones((dim, dim))
        h /= np.abs(h).max()
        for scale in np.geomspace(0.5, 1e-3, 28):
            candidate = base + scale * h
            if np.linalg.eigvalsh(candidate)[0] >= -100.0 * TOL_POS:
                continue
            key, _, _ = scan_ascending(candidate, TOL_POS)
            if key is None:
                return df_from_matrix(candidate, space, require_normalized=True)
    raise DflabError("could not generate a weakly positive non-PSD DF")
