"""Quantum DF constructions from states and projective measurements.

Two builders live here. ``quantum_df`` turns a density matrix plus commuting
projector families for two parties into the DF whose entry for a pair of
histories is tr{E(a)F(b) rho F(b')† E(a')†}, with per-party operator products
taken in ascending setting order (that ordering is fixed once and documented;
it only matters when same-side projectors fail to commute). ``dv_family``
builds, for a unit vector v, the 2m-history quantum DF generated by the
computational-basis projectors E_a = |a><a| together with F_0 = (1/m) * ones,
F_1 = I - F_0. Its entries are always computed from the operator products
directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bell import bell_history_space
from .core import (
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    HistorySpace,
    df_from_matrix,
    make_space,
)
from .kernels import kron


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """One measurement setting: orthogonal projectors summing to the identity."""

    label: str
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        projs = tuple(
            np.asarray(P, dtype=np.complex128) for P in self.projectors
        )
        if not projs:
            raise DflabError("a projector family needs at least one projector")
        dim = projs[0].shape[0]
        for P in projs:
            if P.shape != (dim, dim):
                raise DflabError("projectors must share one Hilbert dimension")
            # NaN fails every comparison below, so test it first
            if not np.isfinite(P).all():
                raise DflabError(f"projector in family {self.label!r} is not finite")
            if np.abs(P - P.conj().T).max() > TOL_EQ:
                raise DflabError(f"projector in family {self.label!r} is not Hermitian")
            if np.abs(P @ P - P).max() > TOL_EQ:
                raise DflabError(f"operator in family {self.label!r} is not idempotent")
        total = sum(projs)
        if np.abs(total - np.eye(dim)).max() > TOL_EQ:
            raise DflabError(
                f"projectors in family {self.label!r} do not sum to the identity"
            )
        frozen = []
        for P in projs:
            P = P.copy()
            P.flags.writeable = False
            frozen.append(P)
        object.__setattr__(self, "projectors", tuple(frozen))

    @property
    def hilbert_dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """State and measurements of a bipartite experiment.

    Both parties have the same number of settings and outcomes per setting;
    every Alice projector commutes with every Bob projector.
    """

    hilbert_dim: int
    rho: np.ndarray
    alice: tuple[ProjectorFamily, ...]
    bob: tuple[ProjectorFamily, ...]

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=np.complex128)
        d = self.hilbert_dim
        if rho.shape != (d, d):
            raise DflabError(f"state must be {d}x{d}, got {rho.shape}")
        # NaN fails every comparison below, and eigvalsh would not converge
        if not np.isfinite(rho).all():
            raise DflabError("state entries must be finite")
        if np.abs(rho - rho.conj().T).max() > TOL_EQ:
            raise DflabError("state is not Hermitian")
        if abs(np.trace(rho) - 1.0) > TOL_EQ:
            raise DflabError("state trace is not 1")
        if np.linalg.eigvalsh(rho)[0] < -TOL_POS:
            raise DflabError("state has a negative eigenvalue")
        alice = tuple(self.alice)
        bob = tuple(self.bob)
        if not alice or not bob:
            raise DflabError("each party needs at least one measurement setting")
        if len(alice) != len(bob):
            raise DflabError("both parties must have the same number of settings")
        outcome_counts = {fam.outcomes for fam in alice} | {fam.outcomes for fam in bob}
        if len(outcome_counts) != 1:
            raise DflabError("all settings must share one outcome count")
        for fam in alice + bob:
            if fam.hilbert_dim != d:
                raise DflabError("projector family dimension mismatch")
        for a_fam in alice:
            for E in a_fam.projectors:
                for b_fam in bob:
                    for F in b_fam.projectors:
                        if np.abs(E @ F - F @ E).max() > TOL_EQ:
                            raise DflabError(
                                "Alice and Bob projectors must commute"
                            )
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def settings(self) -> int:
        return len(self.alice)

    @property
    def outcomes(self) -> int:
        return self.alice[0].outcomes


def _history_operators(model: QuantumModel) -> np.ndarray:
    """G(omega) = E(1,a_1)..E(m,a_m) F(1,b_1)..F(m,b_m) for every history."""
    m, d = model.settings, model.outcomes
    dim = model.hilbert_dim

    def side_products(families: tuple[ProjectorFamily, ...]) -> np.ndarray:
        count = d ** m
        out = np.empty((count, dim, dim), dtype=np.complex128)
        for flat in range(count):
            digits = []
            rest = flat
            for _ in range(m):
                rest, r = divmod(rest, d)
                digits.append(r)
            digits.reverse()  # first setting most significant
            op = np.eye(dim, dtype=np.complex128)
            for setting, outcome in enumerate(digits):
                op = op @ families[setting].projectors[outcome]
            out[flat] = op
        return out

    alice_ops = side_products(model.alice)
    bob_ops = side_products(model.bob)
    n_hist = (d ** m) ** 2
    ops = np.empty((n_hist, dim, dim), dtype=np.complex128)
    for i, E in enumerate(alice_ops):
        ops[i * (d ** m):(i + 1) * (d ** m)] = E @ bob_ops
    return ops


def quantum_df(model: QuantumModel) -> DecoherenceFunctional:
    """DF over all outcome tuples (a_1..a_m, b_1..b_m) from a quantum model.

    Entry (omega, omega') = tr{G(omega) rho G(omega')†}. The result is a Gram
    form in disguise, so it is positive semidefinite for every valid model.
    A scenario above ``DENSE_DIM_CAP`` raises before any product is formed.
    """
    space = bell_history_space(model.settings, model.outcomes)
    n_hist = space.size
    ops = _history_operators(model)
    flat = ops.reshape(n_hist, -1)
    weighted = (ops @ model.rho).reshape(n_hist, -1)
    matrix = weighted @ flat.conj().T
    return df_from_matrix(matrix, space, require_normalized=True)


def behavior_table(model: QuantumModel) -> np.ndarray:
    """P(a,b|x,y) = tr(rho E(x,a) F(y,b)), indexed [x][y][a][b]."""
    m, d = model.settings, model.outcomes
    table = np.empty((m, m, d, d), dtype=np.float64)
    for x in range(m):
        for y in range(m):
            for a in range(d):
                for b in range(d):
                    E = model.alice[x].projectors[a]
                    F = model.bob[y].projectors[b]
                    table[x, y, a, b] = float(np.real(np.trace(model.rho @ E @ F)))
    return table


@functools.lru_cache(maxsize=64)
def _dv_space(m: int) -> HistorySpace:
    labels = [f"({a},{b})" for a in range(m) for b in range(2)]
    return make_space(labels, factors=(("a", m), ("b", 2)))


@functools.lru_cache(maxsize=64)
def _dv_columns(m: int) -> np.ndarray:
    """Read-only (m, 2, m) array whose [a, b] row is column a of F_b, with
    F_0 = (1/m) * ones and F_1 = I - F_0."""
    uniform = np.full((m, m), 1.0 / m, dtype=np.complex128)
    rest = np.eye(m, dtype=np.complex128) - uniform
    columns = np.stack((uniform.T, rest.T), axis=1)
    columns.flags.writeable = False
    return columns


def dv_family(v: np.ndarray) -> DecoherenceFunctional:
    """The 2m-history quantum DF attached to a unit vector v.

    Histories are pairs (a, b) with a in 0..m-1 and b in {0, 1}; the entry for
    ((a,b), (a',b')) is <v| E_a' F_b' F_b E_a |v>. Computed from the operator
    products themselves, never from the closed form: E_a v = v_a e_a, so the
    row F_b E_a v is column a of F_b scaled by v_a, the same products the
    matvecs F_b (E_a v) form, bit for bit. Adding 0.0 gives their exact
    zeros the sign +0 that the matvecs' sums give them.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    m = v.size
    if m < 2:
        raise DflabError("dv_family needs a vector of dimension >= 2")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > TOL_EQ:
        raise DflabError(f"vector must be normalized, got |v| = {float(norm)!r}")
    # u(a,b) = F_b E_a |v>; entry(row,col) = u(col)† u(row), a Gram transpose
    u = (_dv_columns(m) * v[:, None, None]).reshape(2 * m, m) + 0.0
    gram = u.conj() @ u.T
    matrix = gram.T
    return df_from_matrix(matrix, _dv_space(m), require_normalized=True)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projector_family(
    rng: np.random.Generator, dim: int, outcomes: int, label: str
) -> ProjectorFamily:
    """Random complete family: unitary columns grouped into ``outcomes`` ranks."""
    if outcomes > dim:
        raise DflabError("cannot split a basis into more groups than dimensions")
    u = haar_unitary(rng, dim)
    sizes = [dim // outcomes] * outcomes
    for i in range(dim % outcomes):
        sizes[i] += 1
    projectors = []
    start = 0
    for size in sizes:
        cols = u[:, start:start + size]
        projectors.append(cols @ cols.conj().T)
        start += size
    return ProjectorFamily(label, tuple(projectors))


def random_tensor_model(
    rng: np.random.Generator,
    dim_alice: int = 2,
    dim_bob: int = 2,
    settings: int = 2,
    outcomes: int = 2,
) -> QuantumModel:
    """Random model on H_A x H_B with commuting-by-construction projectors."""
    dim = dim_alice * dim_bob
    eye_a = np.eye(dim_alice, dtype=np.complex128)
    eye_b = np.eye(dim_bob, dtype=np.complex128)
    alice = []
    for x in range(settings):
        local = random_projector_family(rng, dim_alice, outcomes, f"A{x}")
        alice.append(
            ProjectorFamily(
                f"A{x}", tuple(kron(P, eye_b) for P in local.projectors)
            )
        )
    bob = []
    for y in range(settings):
        local = random_projector_family(rng, dim_bob, outcomes, f"B{y}")
        bob.append(
            ProjectorFamily(
                f"B{y}", tuple(kron(eye_a, P) for P in local.projectors)
            )
        )
    rho = random_density_matrix(rng, dim)
    return QuantumModel(dim, rho, tuple(alice), tuple(bob))
