import itertools

import numpy as np
import pytest

from dflab.bell import (
    Behavior,
    adaptive_partition,
    bell_history_space,
    check_behavior_consistency,
    fixed_setting_partition,
    scenario_partitions,
)
from dflab.core import (
    DecoherenceFunctional,
    DflabError,
    ValidationLevel,
    df_from_matrix,
)
from dflab.quantum import behavior_table, quantum_df, random_tensor_model


def test_space_sizes():
    assert bell_history_space(1, 2).size == 4
    assert bell_history_space(2, 2).size == 16
    assert bell_history_space(2, 3).size == 81


def test_space_property_order():
    space = bell_history_space(2, 2)
    assert [name for name, _ in space.factors] == ["a1", "a2", "b1", "b2"]
    assert space.decode(8) == (1, 0, 0, 0)  # first property most significant


def test_space_overflow():
    assert bell_history_space(3, 4).size == 4096  # the cap edge fits
    with pytest.raises(DflabError, match="exceeds the cap 4096"):
        bell_history_space(4, 4)


def test_fixed_partition_m1():
    space = bell_history_space(1, 2)
    part = fixed_setting_partition(space, 0, 0)
    assert len(part.cells) == 4
    assert all(cell.weight == 1 for cell in part.cells)


def test_fixed_partition_m2():
    space = bell_history_space(2, 2)
    part = fixed_setting_partition(space, 1, 1)
    assert len(part.cells) == 4
    assert all(cell.weight == 4 for cell in part.cells)


def test_fixed_partition_index_bounds():
    space = bell_history_space(2, 2)
    with pytest.raises(DflabError):
        fixed_setting_partition(space, 2, 0)


def test_adaptive_constant_map_reduces_to_fixed():
    space = bell_history_space(2, 2)
    fixed = fixed_setting_partition(space, 0, 1)
    adaptive = adaptive_partition(space, 0, (1, 1), party="alice")
    for cell_a, cell_b in zip(fixed.cells, adaptive.cells):
        assert cell_a == cell_b


def test_adaptive_partition_cells():
    space = bell_history_space(2, 2)
    part = adaptive_partition(space, 0, (0, 1), party="alice")
    assert len(part.cells) == 4
    assert all(cell.weight == 4 for cell in part.cells)
    # cell (a, b): outcome a fixes Bob's setting g(a)
    table = space.property_table()
    for cell_index, (a, b) in enumerate(itertools.product((0, 1), repeat=2)):
        members = np.nonzero(part.cells[cell_index].indicator)[0]
        for w in members:
            assert table[w, 0] == a
            assert table[w, 2 + (0 if a == 0 else 1)] == b


def test_adaptive_rejects_bad_map():
    space = bell_history_space(2, 2)
    with pytest.raises(DflabError):
        adaptive_partition(space, 0, (0, 5))
    with pytest.raises(DflabError):
        adaptive_partition(space, 0, (0,))


def test_partition_census():
    m, d = 2, 2
    space = bell_history_space(m, d)
    kinds = [record[0] for record in scenario_partitions(space)]
    assert kinds.count("fixed") == m * m
    assert kinds.count("adaptive") == 2 * m * (m ** d - m)


@pytest.mark.parametrize("m, d", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_partition_cells_follow_their_definition(m, d):
    # every cell, rebuilt history by history from decode(), equals the one
    # the partitions build from the space's shared property table
    space = bell_history_space(m, d)
    values = [space.decode(w) for w in range(space.size)]
    for kind, party, x, y, g, partition in scenario_partitions(space):
        for cell, (a, b) in zip(partition.cells, itertools.product(range(d), repeat=2)):
            if kind == "fixed":
                members = [v[x] == a and v[m + y] == b for v in values]
            elif party == "alice":
                members = [v[x] == a and v[m + g[a]] == b for v in values]
            else:
                members = [v[m + x] == b and v[g[b]] == a for v in values]
            assert cell.indicator.tolist() == [int(flag) for flag in members]


def test_property_table_is_built_once_and_read_only():
    space = bell_history_space(2, 2)
    fresh = bell_history_space(2, 2)
    table = space.property_table()
    assert space.property_table() is table
    assert table.tolist() == [list(space.decode(w)) for w in range(space.size)]
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # the cached table is no field: equality and hash match an unbuilt space
    assert space == fresh and hash(space) == hash(fresh)
    assert space != bell_history_space(2, 3)


def test_quantum_df_consistent_with_own_behavior():
    rng = np.random.default_rng(101)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    behavior = Behavior(model.settings, model.outcomes, behavior_table(model))
    report = check_behavior_consistency(D, behavior, mode="strong")
    assert report.verdict
    assert report.worst_deviation <= 1e-10


def test_classical_product_df_consistent():
    # diagonal DF from independent local strategies decoheres every partition
    m, d = 2, 2
    space = bell_history_space(m, d)
    rng = np.random.default_rng(5)
    p_alice = rng.dirichlet(np.ones(d), size=m)   # per-setting outcome dists
    p_bob = rng.dirichlet(np.ones(d), size=m)
    diag = np.zeros(space.size)
    for idx in range(space.size):
        values = space.decode(idx)
        weight = 1.0
        for x in range(m):
            weight *= p_alice[x][values[x]]
        for y in range(m):
            weight *= p_bob[y][values[m + y]]
        diag[idx] = weight
    D = df_from_matrix(np.diag(diag), space, require_normalized=True)
    table = np.empty((m, m, d, d))
    for x, y, a, b in itertools.product(range(m), range(m), range(d), range(d)):
        table[x, y, a, b] = p_alice[x][a] * p_bob[y][b]
    report = check_behavior_consistency(D, Behavior(m, d, table), mode="strong")
    assert report.verdict
    assert report.worst_deviation <= 1e-12


def test_perturbation_is_reported_at_injected_magnitude():
    rng = np.random.default_rng(7)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    behavior = Behavior(model.settings, model.outcomes, behavior_table(model))
    delta = 1e-3
    # bump a cross entry between histories differing in every property, so
    # every fixed and adaptive partition puts them in different cells and the
    # bump shows up as exactly one cross term
    matrix = D.matrix.copy()
    i = D.space.encode((0, 0, 0, 0))
    j = D.space.encode((1, 1, 1, 1))
    matrix[i, j] += delta
    matrix[j, i] += delta
    perturbed = DecoherenceFunctional(D.space, matrix, ValidationLevel.HERMITIAN)
    report = check_behavior_consistency(perturbed, behavior, mode="strong")
    assert not report.verdict
    assert report.worst_deviation == pytest.approx(delta, rel=1e-6)


def test_no_signaling_of_checked_diagonals():
    # strong consistency shares diagonal entries across partitions: the union
    # of cells over b is the same event for every y, so marginals computed
    # from the checked partition diagonals cannot depend on the far setting
    rng = np.random.default_rng(11)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    behavior = Behavior(2, 2, behavior_table(model))
    report = check_behavior_consistency(D, behavior, mode="strong")
    assert report.verdict
    m = d = 2
    diagonals = {}
    for check in report.partitions:
        if check.kind == "fixed":
            probs = np.array(check.decoherence.probabilities).reshape(d, d)
            diagonals[(check.x, check.y)] = probs
    for x in range(m):
        for a in range(d):
            marginals = [diagonals[(x, y)][a].sum() for y in range(m)]
            assert max(marginals) - min(marginals) <= 1e-10
    for y in range(m):
        for b in range(d):
            marginals = [diagonals[(x, y)][:, b].sum() for x in range(m)]
            assert max(marginals) - min(marginals) <= 1e-10


def test_behavior_validation():
    with pytest.raises(DflabError):
        Behavior(1, 2, np.full((1, 1, 2, 2), 0.3))
    with pytest.raises(DflabError):
        Behavior(1, 2, -np.full((1, 1, 2, 2), 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_behavior_rejects_non_finite_probabilities(bad):
    table = np.full((1, 1, 2, 2), 0.25)
    table[0, 0, 0, 0] = bad
    with pytest.raises(DflabError, match="finite"):
        Behavior(1, 2, table)


def test_consistency_rejects_wrong_space():
    rng = np.random.default_rng(13)
    model = random_tensor_model(rng, 2, 2)
    D = quantum_df(model)
    bad = Behavior(1, 2, np.full((1, 1, 2, 2), 0.25))
    with pytest.raises(DflabError):
        check_behavior_consistency(D, bad)
