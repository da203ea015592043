import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab import jsonio
from dflab.core import DecoherenceFunctional, DflabError, make_space
from dflab.lemma1 import lemma1_df, lemma1_epsilon
from dflab.quantum import quantum_df, random_tensor_model


def oracle(value):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
numbers = st.none() | st.booleans() | st.integers() | floats
numeric_rows = st.lists(st.lists(numbers, max_size=4), max_size=4)
scalars = numbers | st.text(max_size=6)
values = st.recursive(
    scalars | numeric_rows | st.lists(numbers, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_dump_json_matches_indented_json_dumps(value):
    assert jsonio.dump_json(value) == oracle(value)


@pytest.mark.parametrize(
    "value",
    [
        [], {}, [[]], [[1, 2], [3]], [[1], []], [1, [2]], [[1, [2]]], (1.5, -0.0),
        [[None, True], [False, 1]], {1: 2, 2.5: 3}, {"a": {"b": []}, "ü": "x,[]"},
        [[[1, 2], [3, 4]], [[5, 6]]], [[1, 2], "x"], [{"a": 1}, [1]], [[1], [{}]],
    ],
)
def test_dump_json_layout_edge_cases(value):
    assert jsonio.dump_json(value) == oracle(value)


def test_dump_json_rejects_what_json_rejects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        jsonio.dump_json({"a": [[1.0, object()]]})
    with pytest.raises(TypeError, match="keys must be"):
        jsonio.dump_json({(1, 2): 3})


@pytest.mark.parametrize(
    "D",
    [
        lemma1_df(2.0, lemma1_epsilon(2.0, 1)),
        quantum_df(random_tensor_model(np.random.default_rng(3), 3, 3, 2, 3)),
    ],
    ids=["lemma1", "quantum81"],
)
def test_save_df_bytes_match_json_dumps(tmp_path, D):
    path = tmp_path / "D.json"
    jsonio.save_df(D, path)
    assert path.read_bytes() == oracle(jsonio.df_to_dict(D)).encode("utf-8")


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    M = np.array(
        [[complex(a, b) for b in extremes] for a in extremes], dtype=np.complex128
    )
    D = DecoherenceFunctional(make_space([f"h{i}" for i in range(4)]), M)
    path = tmp_path / "D.json"
    jsonio.save_df(D, path)
    loaded = jsonio.load_df(path).matrix
    assert loaded.dtype == np.complex128
    assert loaded.tobytes() == M.tobytes()
    assert np.signbit(loaded.real[0]).all() and np.signbit(loaded.imag[:, 0]).all()


def test_matrix_to_entries_takes_vectors():
    v = np.array([1 + 2j, -0.0, 3, -4j])
    assert jsonio.matrix_to_entries(v) == [[1.0, 2.0], [-0.0, 0.0], [3.0, 0.0], [-0.0, -4.0]]
    back = jsonio.entries_to_matrix(jsonio.matrix_to_entries(v), 2)
    assert back.tobytes() == v.reshape(2, 2).tobytes()


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1, 0, 0]], "pairs"),
        ([["x", "0"]], "number pairs"),
        ([[None, 0]], "finite"),
        ([[math.nan, 0]], "finite"),
        ([1.0], "pairs"),
        ([[1, 0], [0]], "expected 1 entries"),
        ([[[1], 0]], "number pairs"),
        ({"ab": 1}, "number pairs"),
        (7, "pairs"),
    ],
)
def test_entries_to_matrix_rejects_malformed(entries, message):
    with pytest.raises(DflabError, match=message):
        jsonio.entries_to_matrix(entries, 1)
