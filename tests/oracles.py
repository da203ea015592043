"""Independent formulas that the tests check the library against.

None of these has a caller in the library, the CLI or the benchmark; each is
a second route to a value the library computes its own way.
"""

import itertools

import numpy as np

from dflab.axioms import check_partition_decoherence
from dflab.compose import tensor
from dflab.bell import (
    Behavior,
    ConsistencyReport,
    PartitionCheck,
    bell_history_space,
    scenario_partitions,
)
from dflab import lemma1, maximality
from dflab.core import (
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
    single_property_partition,
    space_product,
)
from dflab.kernels import key_to_indicator, kron, scan_ascending
from dflab.quantum import _dv_space, dv_family


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
    if not maximality.is_nonneg_hermitian(D):
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


def dv_family_by_matvecs(v: np.ndarray) -> DecoherenceFunctional:
    """``dv_family`` with each row F_b E_a v formed by two matrix-vector
    products from the projector matrices E_a = |a><a|, F_0 = (1/m) * ones
    and F_1 = I - F_0."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    m = v.size
    basis = [np.zeros((m, m), dtype=np.complex128) for _ in range(m)]
    for a in range(m):
        basis[a][a, a] = 1.0
    uniform = np.full((m, m), 1.0 / m, dtype=np.complex128)
    f_projs = [uniform, np.eye(m, dtype=np.complex128) - uniform]
    u = np.empty((2 * m, m), dtype=np.complex128)
    for a in range(m):
        for b in range(2):
            u[2 * a + b] = f_projs[b] @ (basis[a] @ v)
    gram = u.conj() @ u.T
    return df_from_matrix(gram.T, _dv_space(m), require_normalized=True)


def lemma2_via_tensor(D: DecoherenceFunctional) -> maximality.Lemma2Report:
    """``verify_lemma2`` with the product built as a validated DF by
    ``tensor``, on a fresh product space, and lhs from ``df_evaluate``."""
    value, v = maximality.min_eig_witness(D)
    if value >= -TOL_POS:
        raise DflabError("DF is already positive semidefinite")
    partner = dv_family_by_matvecs(np.conj(v))
    m = D.dim
    composed = tensor(D.at_level(ValidationLevel.HERMITIAN), partner)
    witness = Event.from_indices(composed.space, [a * (2 * m) + 2 * a for a in range(m)])
    lhs = df_evaluate(composed, witness, witness).real
    rhs = value / m
    terms = np.abs(D.matrix) * np.abs(partner.matrix[0::2, 0::2])
    bound = m * m * float(np.finfo(np.float64).eps) * float(
        terms.sum() + np.linalg.norm(D.matrix)
    )
    return maximality.Lemma2Report(
        input_dim=m,
        min_eigenvalue=value,
        v=v,
        partner=partner,
        witness=witness,
        lhs=lhs,
        rhs=rhs,
        matched=abs(lhs - rhs) <= bound,
    )


def lemma1_numeric_via_df(lam: float, eps: float, n: int) -> float:
    """``lemma1_witness_value_numeric`` with the per-copy entries read from
    a freshly validated ``lemma1_df(lam, eps)``."""
    M = lemma1.lemma1_df(lam, eps).matrix
    first = [(0, 0)] * n + [(0, 1)]
    second = [(1, 0)] * n + [(1, 1)]

    def product_entry(rows, cols) -> complex:
        value = 1.0 + 0.0j
        for (ra, rb), (ca, cb) in zip(rows, cols):
            value *= M[2 * ra + rb, 2 * ca + cb]
        return value

    diag = product_entry(first, first).real + product_entry(second, second).real
    cross = 2.0 * product_entry(first, second).real
    return float(diag + cross)
