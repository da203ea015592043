import dataclasses
import itertools

import numpy as np
import pytest

from dflab import bell, jsonio
from dflab.axioms import check_partition_decoherence
from dflab.bell import (
    Behavior,
    adaptive_partition,
    bell_history_space,
    check_behavior_consistency,
    fixed_setting_partition,
    scenario_partitions,
)
from dflab.core import (
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    ValidationLevel,
    df_from_matrix,
)
from dflab.cli import main
from dflab.quantum import behavior_table, quantum_df, random_tensor_model
from oracles import per_partition_consistency


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


def bits(value):
    return None if value is None else float(value).hex()


def assert_reports_bit_equal(report, reference):
    assert report.verdict == reference.verdict
    assert bits(report.worst_deviation) == bits(reference.worst_deviation)
    assert len(report.partitions) == len(reference.partitions)
    for check, ref in zip(report.partitions, reference.partitions):
        key = (check.kind, check.party, check.x, check.y, check.g)
        assert key == (ref.kind, ref.party, ref.x, ref.y, ref.g)
        assert check.decoherence.mode == ref.decoherence.mode, key
        assert check.decoherence.verdict == ref.decoherence.verdict, key
        assert bits(check.decoherence.max_off_diagonal) == bits(
            ref.decoherence.max_off_diagonal), key
        assert bits(check.behavior_deviation) == bits(ref.behavior_deviation), key
        probabilities = check.decoherence.probabilities
        expected = ref.decoherence.probabilities
        assert (probabilities is None) == (expected is None), key
        if probabilities is not None:
            assert [bits(p) for p in probabilities] == [bits(p) for p in expected], key


def consistency_corpus(m, d, seed):
    """The model's DF alone and with a cross bump, against its own table and
    against one with a probability moved inside the last setting pair."""
    model = random_tensor_model(np.random.default_rng([seed, m, d]), d, d, m, d)
    D = quantum_df(model)
    matrix = D.matrix.copy()
    matrix[0, -1] += 1e-3
    matrix[-1, 0] += 1e-3
    bumped = DecoherenceFunctional(D.space, matrix, ValidationLevel.HERMITIAN)
    table = behavior_table(model)
    perturbed = table.copy()
    perturbed[m - 1, m - 1, 0, 0] -= 0.01
    perturbed[m - 1, m - 1, d - 1, d - 1] += 0.01
    for df in (D, bumped):
        for probabilities in (table, perturbed):
            yield df, Behavior(m, d, probabilities)


@pytest.mark.parametrize("mode", ["strong", "weak"])
@pytest.mark.parametrize("m, d", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (1, 3), (2, 4)])
def test_one_gram_route_matches_per_partition_oracle(m, d, mode):
    verdicts = []
    for seed in range(3):
        for D, behavior in consistency_corpus(m, d, seed):
            report = check_behavior_consistency(D, behavior, mode=mode)
            assert_reports_bit_equal(report, per_partition_consistency(D, behavior, mode=mode))
            verdicts.append(report.verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("perturb", [False, True], ids=["own", "perturbed"])
def test_bell_check_json_bytes_match_oracle(tmp_path, capsys, perturb):
    model = random_tensor_model(np.random.default_rng(42), 2, 2)
    D = quantum_df(model)
    table = behavior_table(model)
    if perturb:
        table[1, 0, 0, 1] += 0.02
        table[1, 0, 1, 1] -= 0.02
    behavior = Behavior(2, 2, table)
    df_path = tmp_path / "q.json"
    behavior_path = tmp_path / "p.json"
    jsonio.save_df(D, df_path)
    jsonio.save_behavior(behavior, behavior_path)
    code = main(["bell-check", "--df", str(df_path), "--behavior", str(behavior_path),
                 "--json"])
    out = capsys.readouterr().out
    loaded = jsonio.load_df(df_path)
    reference = per_partition_consistency(
        df_from_matrix(loaded.matrix, loaded.space), jsonio.load_behavior(behavior_path))
    payload = {
        "consistency": jsonio.consistency_report_to_dict(reference),
        "tolerances": {"eq": TOL_EQ, "pos": TOL_POS},
    }
    assert out == jsonio.dump_json(payload)
    assert code == (1 if perturb else 0)
    assert reference.verdict is not perturb


def test_consistency_rejects_unknown_mode_first():
    model = random_tensor_model(np.random.default_rng(13), 2, 2)
    D = quantum_df(model)
    partition = fixed_setting_partition(D.space, 0, 0)
    with pytest.raises(DflabError) as expected:
        check_partition_decoherence(D, partition, mode="medium")
    # the mode is checked before the space, so a wrong space still reports it
    wrong_space = Behavior(1, 2, np.full((1, 1, 2, 2), 0.25))
    for behavior in (Behavior(2, 2, behavior_table(model)), wrong_space):
        with pytest.raises(DflabError) as raised:
            check_behavior_consistency(D, behavior, mode="medium")
        assert str(raised.value) == str(expected.value) == "unknown decoherence mode 'medium'"


def recording_partition_check(monkeypatch, shift=0.0):
    """Count the per-partition re-checks, optionally skewing their cross term."""
    calls = []

    def recheck(D, partition, mode="strong", tol=TOL_EQ):
        calls.append(partition)
        report = check_partition_decoherence(D, partition, mode=mode, tol=tol)
        return dataclasses.replace(report, max_off_diagonal=report.max_off_diagonal + shift)

    monkeypatch.setattr(bell, "check_partition_decoherence", recheck)
    return calls


def test_pass_is_not_rechecked(monkeypatch):
    calls = recording_partition_check(monkeypatch)
    model = random_tensor_model(np.random.default_rng(17), 2, 2)
    report = check_behavior_consistency(quantum_df(model),
                                        Behavior(2, 2, behavior_table(model)))
    assert report.verdict and calls == []


def test_fail_is_rechecked_on_its_first_failing_partition(monkeypatch):
    calls = recording_partition_check(monkeypatch)
    model = random_tensor_model(np.random.default_rng(17), 2, 2)
    table = behavior_table(model)
    table[1, 1, 0, 0] += 0.01
    table[1, 1, 1, 0] -= 0.01
    report = check_behavior_consistency(quantum_df(model), Behavior(2, 2, table))
    assert not report.verdict
    first = next(c for c in report.partitions
                 if not (c.decoherence.verdict and c.behavior_deviation <= TOL_EQ))
    assert (first.kind, first.x, first.y) == ("fixed", 1, 1)
    expected = fixed_setting_partition(quantum_df(model).space, 1, 1)
    assert len(calls) == 1
    assert all(a == b for a, b in zip(calls[0].cells, expected.cells))


def test_fail_that_the_recheck_contradicts_raises(monkeypatch):
    recording_partition_check(monkeypatch, shift=1e-6)
    model = random_tensor_model(np.random.default_rng(17), 2, 2)
    table = behavior_table(model)
    table[0, 1, 0, 0] += 0.01
    table[0, 1, 1, 0] -= 0.01
    with pytest.raises(RuntimeError, match="per-partition"):
        check_behavior_consistency(quantum_df(model), Behavior(2, 2, table))
