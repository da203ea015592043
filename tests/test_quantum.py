import numpy as np
import pytest

from dflab.axioms import check_strong_positivity, check_partition_decoherence, validate_df
from dflab.bell import fixed_setting_partition
from dflab.core import DflabError, ValidationLevel
from dflab.quantum import (
    ProjectorFamily,
    QuantumModel,
    behavior_table,
    dv_family,
    haar_unitary,
    quantum_df,
    random_density_matrix,
    random_projector_family,
    random_tensor_model,
)
from oracles import contraction_check, dv_closed_form


def rank1_family(vectors, label):
    projs = tuple(np.outer(v, v.conj()) for v in vectors)
    return ProjectorFamily(label, projs)


def test_projector_family_rejects_non_projector():
    with pytest.raises(DflabError):
        ProjectorFamily("bad", (np.array([[0.5, 0.0], [0.0, 0.5]]),
                                np.array([[0.5, 0.0], [0.0, 0.5]])))


def test_projector_family_rejects_incomplete():
    P = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DflabError):
        ProjectorFamily("bad", (P,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_projector_family_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so an all-NaN "projector" used to pass as
    # Hermitian, idempotent and complete
    with pytest.raises(DflabError, match="not finite"):
        ProjectorFamily("bad", (np.full((2, 2), bad, dtype=complex),))
    P = np.diag([1.0, 0.0]).astype(complex)
    Q = np.eye(2, dtype=complex) - P
    Q[1, 1] = bad
    with pytest.raises(DflabError, match="not finite"):
        ProjectorFamily("bad", (P, Q))


def test_model_rejects_noncommuting_sides():
    # Alice and Bob measure the same qubit: projectors do not commute
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    alice = rank1_family([np.array([1.0, 0.0]), np.array([0.0, 1.0])], "A0")
    bob = rank1_family([plus, minus], "B0")
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(DflabError):
        QuantumModel(2, rho, (alice,), (bob,))


def test_model_rejects_bad_state():
    rng = np.random.default_rng(0)
    model = random_tensor_model(rng, 2, 2, settings=1)
    with pytest.raises(DflabError):
        QuantumModel(4, 2.0 * model.rho, model.alice, model.bob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.nan)])
def test_model_rejects_non_finite_state(bad):
    # a NaN passes the Hermiticity and trace tests (its comparisons are false)
    # and then stops eigvalsh with LinAlgError instead of a DflabError
    model = random_tensor_model(np.random.default_rng(0), 2, 2, settings=1)
    rho = model.rho.copy()
    rho[0, 0] = bad
    with pytest.raises(DflabError, match="finite"):
        QuantumModel(4, rho, model.alice, model.bob)


def test_quantum_df_product_state_is_diagonal():
    rng = np.random.default_rng(1)
    ua, ub = haar_unitary(rng, 2), haar_unitary(rng, 2)
    eye = np.eye(2, dtype=complex)
    alice = ProjectorFamily(
        "A0", tuple(np.kron(np.outer(ua[:, i], ua[:, i].conj()), eye) for i in range(2))
    )
    bob = ProjectorFamily(
        "B0", tuple(np.kron(eye, np.outer(ub[:, i], ub[:, i].conj())) for i in range(2))
    )
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    psi /= np.linalg.norm(psi)
    state = np.kron(np.outer(phi, phi.conj()), np.outer(psi, psi.conj()))
    model = QuantumModel(4, state, (alice,), (bob,))
    D = quantum_df(model)
    off = D.matrix.copy()
    np.fill_diagonal(off, 0.0)
    assert np.abs(off).max() < 1e-12
    expected = behavior_table(model)[0, 0].reshape(-1)
    assert np.allclose(np.diag(D.matrix).real, expected, atol=1e-12)


def test_quantum_df_fully_validates():
    rng = np.random.default_rng(2)
    model = random_tensor_model(rng, 2, 2)
    report = validate_df(quantum_df(model))
    assert report.level == ValidationLevel.STRONGLY_POSITIVE


def test_quantum_df_above_dense_cap_raises():
    # 4 settings with 3 outcomes give 3^8 = 6561 histories, above the cap
    model = random_tensor_model(np.random.default_rng(6), 3, 3, settings=4, outcomes=3)
    with pytest.raises(DflabError, match="exceeds the cap 4096"):
        quantum_df(model)


def test_quantum_df_fixed_partitions_decohere_to_behavior():
    rng = np.random.default_rng(3)
    model = random_tensor_model(rng, 2, 3)
    D = quantum_df(model)
    table = behavior_table(model)
    for x in range(2):
        for y in range(2):
            part = fixed_setting_partition(D.space, x, y)
            report = check_partition_decoherence(D, part, mode="strong")
            assert report.verdict
            assert np.allclose(
                report.probabilities, table[x, y].reshape(-1), atol=1e-12
            )


def test_quantum_df_order_independent_for_commuting_sides():
    # families diagonal in a shared basis commute within each side
    rng = np.random.default_rng(4)
    eye2 = np.eye(2, dtype=complex)
    d0 = np.diag([1.0, 0.0]).astype(complex)
    d1 = np.diag([0.0, 1.0]).astype(complex)
    fam_a = [
        ProjectorFamily("A0", (np.kron(d0, eye2), np.kron(d1, eye2))),
        ProjectorFamily("A1", (np.kron(d1, eye2), np.kron(d0, eye2))),
    ]
    fam_b = [
        ProjectorFamily("B0", (np.kron(eye2, d0), np.kron(eye2, d1))),
        ProjectorFamily("B1", (np.kron(eye2, d1), np.kron(eye2, d0))),
    ]
    rho = random_density_matrix(rng, 4)
    model = QuantumModel(4, rho, tuple(fam_a), tuple(fam_b))
    D = quantum_df(model).matrix
    # recompute entries with reversed within-side operator order
    m, d = 2, 2
    histories = [
        (a1, a2, b1, b2)
        for a1 in range(d)
        for a2 in range(d)
        for b1 in range(d)
        for b2 in range(d)
    ]
    for i, hist in enumerate(histories):
        a = fam_a[1].projectors[hist[1]] @ fam_a[0].projectors[hist[0]]
        b = fam_b[1].projectors[hist[3]] @ fam_b[0].projectors[hist[2]]
        g_i = a @ b
        for j, hist2 in enumerate(histories):
            a2 = fam_a[1].projectors[hist2[1]] @ fam_a[0].projectors[hist2[0]]
            b2 = fam_b[1].projectors[hist2[3]] @ fam_b[0].projectors[hist2[2]]
            g_j = a2 @ b2
            entry = np.trace(g_i @ rho @ g_j.conj().T)
            assert entry == pytest.approx(D[i, j], abs=1e-12)
    del m


def test_dv_family_basis_vector():
    D = dv_family(np.array([1.0, 0.0]))
    expected = np.diag([0.5, 0.5, 0.0, 0.0])
    assert np.abs(D.matrix - expected).max() < 1e-14
    assert complex(D.matrix.sum()) == pytest.approx(1.0, abs=1e-12)


def test_dv_family_is_strongly_positive():
    rng = np.random.default_rng(5)
    for m in (2, 3, 5):
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        v /= np.linalg.norm(v)
        report = check_strong_positivity(dv_family(v))
        assert report.is_sp


def test_dv_family_rejects_unnormalized():
    with pytest.raises(DflabError):
        dv_family(np.array([1.0, 1.0]))
    with pytest.raises(DflabError):
        dv_family(np.array([1.0]))


def test_dv_closed_form_uniform_vector():
    m = 3
    v = np.ones(m) / np.sqrt(m)
    C = dv_closed_form(v)
    vv = np.outer(v, v) / m
    assert np.allclose(C[0::2, 0::2], vv, atol=1e-14)
    assert np.allclose(C[1::2, 1::2], np.diag([1.0 / m] * m) - vv, atol=1e-14)


def test_dv_family_matches_closed_form():
    rng = np.random.default_rng(6)
    for trial in range(50):
        m = 2 + trial % 5
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        v /= np.linalg.norm(v)
        assert np.abs(dv_family(v).matrix - dv_closed_form(v)).max() <= 1e-12


def test_contraction_identity_basis_vector():
    result, ok = contraction_check(np.array([1.0, 0.0]))
    assert ok
    assert np.allclose(result, np.diag([0.5, 0.0]), atol=1e-14)


def test_contraction_identity_real_vector():
    v = np.array([0.6, 0.8, 0.0])
    result, ok = contraction_check(v)
    assert ok
    assert np.abs(result - result.T).max() < 1e-12
    assert np.linalg.matrix_rank(result, tol=1e-10) == 1
    assert np.trace(result).real == pytest.approx(1.0 / 3, abs=1e-12)


def test_contraction_identity_random_complex():
    rng = np.random.default_rng(8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    result, ok = contraction_check(v)
    assert ok
    expected = np.outer(v.conj(), v) / 4
    assert np.abs(result - expected).max() <= 1e-12


def test_random_projector_family_is_complete():
    rng = np.random.default_rng(9)
    fam = random_projector_family(rng, 5, 3, "X")
    total = sum(fam.projectors)
    assert np.abs(total - np.eye(5)).max() < 1e-12
