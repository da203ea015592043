import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab.core import (
    DecoherenceFunctional,
    DflabError,
    Event,
    Partition,
    ValidationLevel,
    df_evaluate,
    df_from_matrix,
    make_space,
    single_property_partition,
    space_product,
)
from dflab.lemma1 import lemma1_df, lemma1_epsilon


def test_make_space_factored():
    space = make_space(
        ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], factors=[("a", 2), ("b", 2)]
    )
    assert space.size == 4
    assert space.encode((1, 0)) == 2
    assert space.decode(3) == (1, 1)


def test_make_space_singleton():
    assert make_space(["h"]).size == 1


def test_make_space_rejects_duplicates():
    with pytest.raises(DflabError):
        make_space(["a", "a"])


def test_make_space_rejects_factor_mismatch():
    with pytest.raises(DflabError):
        make_space(["x", "y", "z"], factors=[("p", 2)])


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_encode_decode_roundtrip(cards):
    size = int(np.prod(cards))
    space = make_space(
        [f"h{i}" for i in range(size)],
        factors=[(f"p{j}", c) for j, c in enumerate(cards)],
    )
    for index in range(size):
        assert space.encode(space.decode(index)) == index


def test_space_product_shape_and_index():
    s1 = make_space(["u0", "u1"], factors=[("u", 2)])
    s2 = make_space(["w0", "w1"], factors=[("w", 2)])
    prod = space_product(s1, s2)
    assert prod.size == 4
    assert prod.labels[2] == "u1⋈w0"  # index (1, 0) -> flat 2
    assert prod.factors == (("u", 2), ("w", 2))


def test_space_product_sizes():
    s1 = make_space([f"a{i}" for i in range(4)])
    s2 = make_space(["b0", "b1"])
    assert space_product(s1, s2).size == 8
    # unfactored operand drops the factor list
    assert space_product(s1, s2).factors is None


def test_space_product_singleton_identity():
    s = make_space(["x", "y"])
    unit = make_space(["()"])
    prod = space_product(s, unit)
    assert prod.size == s.size


def test_event_validation():
    space = make_space(["a", "b"])
    with pytest.raises(DflabError):
        Event(space, np.array([2, 0]))
    with pytest.raises(DflabError):
        Event(space, np.array([1, 0, 1]))
    ev = Event.from_indices(space, [1])
    assert ev.indices == (1,)
    assert ev.weight == 1


@pytest.mark.parametrize(
    "values",
    [[256, 0], [0.5, 1], [-1, 0], [1, 2.0], [np.nan, 0], [255, 1]],
)
def test_event_rejects_values_other_than_zero_and_one(values):
    # checked before the cast to int8, which would wrap 256 to 0 and truncate 0.5
    with pytest.raises(DflabError, match="must be 0 or 1"):
        Event(make_space(["a", "b"]), np.array(values))


@pytest.mark.parametrize(
    "values", [[True, False], [1.0, 0.0], [1, 1], np.array([0, 1], dtype=np.uint64)]
)
def test_event_accepts_zero_one_of_any_dtype(values):
    ev = Event(make_space(["a", "b"]), np.asarray(values))
    assert ev.indicator.dtype == np.int8
    assert ev.indicator.tolist() == [int(v) for v in values]
    assert not ev.indicator.flags.writeable


def test_partition_validation():
    space = make_space(["a", "b", "c"])
    good = Partition(
        space, (Event.from_indices(space, [0, 2]), Event.from_indices(space, [1]))
    )
    assert len(good.cells) == 2
    with pytest.raises(DflabError):
        Partition(space, (Event.from_indices(space, [0]),))
    with pytest.raises(DflabError):
        Partition(
            space,
            (Event.from_indices(space, [0, 1]), Event.from_indices(space, [1, 2])),
        )


def test_single_property_partition():
    space = make_space(
        ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], factors=[("a", 2), ("b", 2)]
    )
    part = single_property_partition(space, 1)
    assert [cell.indices for cell in part.cells] == [(0, 2), (1, 3)]


def test_df_evaluate_uniform_classical():
    space = make_space([f"h{i}" for i in range(4)])
    D = df_from_matrix(np.eye(4) / 4, space, require_normalized=True)
    full = Event.full(space)
    assert df_evaluate(D, full, full) == pytest.approx(1.0)
    empty = Event.empty(space)
    assert df_evaluate(D, empty, full) == 0.0


def test_df_evaluate_family_entry():
    # entry ((0,0),(0,0)) of the two-parameter family is eps/2
    eps = lemma1_epsilon(2.0, 1)
    D = lemma1_df(2.0, eps)
    single = Event.from_indices(D.space, [0])
    assert df_evaluate(D, single, single).real == pytest.approx(eps / 2, abs=1e-15)
    assert df_evaluate(D, single, single).real == pytest.approx(0.130602, abs=1e-6)


def test_df_evaluate_space_mismatch():
    space = make_space(["a", "b"])
    other = make_space(["c", "d"])
    D = df_from_matrix(np.eye(2) / 2, space)
    with pytest.raises(DflabError):
        df_evaluate(D, Event.full(other), Event.full(space))


def test_df_evaluate_bilinear_in_disjoint_union():
    rng = np.random.default_rng(3)
    space = make_space([f"h{i}" for i in range(6)])
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    D = DecoherenceFunctional(space, (g + g.conj().T) / 2)
    for _ in range(20):
        picks = rng.permutation(6)
        A = Event.from_indices(space, picks[:2])
        B = Event.from_indices(space, picks[2:4])
        C = Event.from_indices(space, picks[4:])
        union = Event(space, A.indicator | B.indicator)
        lhs = df_evaluate(D, union, C)
        rhs = df_evaluate(D, A, C) + df_evaluate(D, B, C)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_df_evaluate_conjugate_symmetry():
    rng = np.random.default_rng(4)
    space = make_space([f"h{i}" for i in range(5)])
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    D = df_from_matrix((g + g.conj().T) / 2, space)
    A = Event.from_indices(space, [0, 3])
    B = Event.from_indices(space, [1, 2, 4])
    assert df_evaluate(D, A, B) == pytest.approx(
        np.conj(df_evaluate(D, B, A)), abs=1e-13
    )


def test_df_from_matrix_classical():
    space = make_space(["0", "1"])
    D = df_from_matrix(np.diag([0.25, 0.75]), space, require_normalized=True)
    assert D.validation_level == ValidationLevel.NORMALIZED


def test_df_from_matrix_rejects_nonhermitian():
    space = make_space(["0", "1"])
    bad = np.array([[1.0, 1j], [1j, 1.0]])
    with pytest.raises(DflabError):
        df_from_matrix(bad, space)


def test_df_from_matrix_rejects_unnormalized():
    space = make_space(["0", "1"])
    with pytest.raises(DflabError):
        df_from_matrix(np.eye(2), space, require_normalized=True)


def test_family_matrix_entry_sum_is_one():
    eps = lemma1_epsilon(2.0, 1)
    D = lemma1_df(2.0, eps)
    assert complex(D.matrix.sum()) == pytest.approx(1.0, abs=1e-12)


def test_df_rejects_nonfinite():
    space = make_space(["0", "1"])
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DflabError):
        DecoherenceFunctional(space, bad)


def test_df_matrix_is_immutable():
    space = make_space(["0", "1"])
    D = df_from_matrix(np.eye(2) / 2, space)
    with pytest.raises(ValueError):
        D.matrix[0, 0] = 5.0


def test_df_matrix_is_isolated_from_writable_inputs():
    space = make_space(["0", "1"])
    M = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=np.complex128)
    D = DecoherenceFunctional(space, M)
    M[0, 0] = 9.0
    assert D.matrix[0, 0] == 0.5
    assert not D.matrix.flags.writeable
    # a read-only view of a writable array is copied as well
    base = np.eye(2, dtype=np.complex128)
    view = base[:]
    view.flags.writeable = False
    D = DecoherenceFunctional(space, view)
    base[0, 0] = 9.0
    assert D.matrix[0, 0] == 1.0


def test_df_keeps_a_read_only_matrix_it_is_handed():
    space = make_space(["0", "1"])
    M = np.eye(2, dtype=np.complex128)
    M.flags.writeable = False
    D = DecoherenceFunctional(space, M)
    assert D.matrix is M
    assert D.at_level(ValidationLevel.HERMITIAN).matrix is M
    view = M[:]  # a read-only view of a read-only owner
    assert DecoherenceFunctional(space, view).matrix is view
