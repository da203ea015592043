import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflab import jsonio
from dflab.core import DecoherenceFunctional, DflabError, make_space
from dflab.lemma1 import lemma1_df, lemma1_epsilon
from dflab.quantum import quantum_df, random_tensor_model


def oracle(value):
    text = json.dumps(
        value, indent=2, sort_keys=True, ensure_ascii=False, default=np.ndarray.tolist
    )
    return text + "\n"


floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
numbers = st.none() | st.booleans() | st.integers() | floats | floats.map(np.float64)
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


# A non-empty, finite, 2-D float64 array takes dump_json's memoized path, also
# when it is a strided view (a pnn partner is the .real of a complex matrix);
# an empty one, one holding NaN or an infinity, another shape or another dtype
# is emitted as its tolist().
repeated_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, -1e-300]) | st.floats(
    allow_nan=False, allow_infinity=False
)
INTRUDERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


@st.composite
def float_rows(draw):
    width = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.lists(repeated_floats, min_size=width, max_size=width),
                 min_size=1, max_size=6)
    )
    array = np.array(rows, dtype=np.float64)
    kind = draw(st.sampled_from(
        [None, "strided", "empty", "1-d", "3-d", "float32", "int64", *INTRUDERS]
    ))
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    if kind == "strided":
        array = array.astype(np.complex128).real
    elif kind == "empty":
        array = array[:0]
    elif kind == "1-d":
        array = array[i]
    elif kind == "3-d":
        array = array[None]
    elif kind == "float32":
        with np.errstate(over="ignore"):
            array = array.astype(np.float32)
    elif kind == "int64":
        array = np.arange(array.size).reshape(array.shape)
    elif kind is not None:
        array[i, j] = INTRUDERS[kind]
    return draw(st.sampled_from([array, {"entries": array}, [array]]))


@settings(max_examples=400, deadline=None)
@given(float_rows())
def test_dump_json_float_rows_match_indented_json_dumps(value):
    assert jsonio.dump_json(value) == oracle(value)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
def test_dump_json_float_rows_across_blocks(monkeypatch, block_rows):
    monkeypatch.setattr(jsonio, "_BLOCK_ROWS", block_rows)
    rows = np.random.default_rng(block_rows).normal(size=(7, 3)).round(1)
    assert jsonio.dump_json({"entries": rows}) == oracle({"entries": rows})


@functools.cache
def quantum(m, d):
    """The quantum DF of a seeded m-setting, d-outcome model (dim d^(2m))."""
    return quantum_df(random_tensor_model(np.random.default_rng([m, d]), d, d, m, d))


@pytest.mark.parametrize(
    "make",
    [
        lambda: lemma1_df(2.0, lemma1_epsilon(2.0, 1)),
        # the m = 2, d = 3 shape
        lambda: quantum_df(random_tensor_model(np.random.default_rng(3), 3, 3, 2, 3)),
        lambda: quantum(3, 2),
        lambda: quantum(4, 2),
    ],
    ids=["lemma1", "quantum81", "m3d2", "m4d2"],
)
def test_save_df_bytes_match_json_dumps(tmp_path, make):
    D = make()
    path = tmp_path / "D.json"
    jsonio.save_df(D, path)
    assert path.read_bytes() == oracle(jsonio.df_to_dict(D)).encode("utf-8")


def test_dump_json_peak_memory_stays_near_twice_the_text():
    data = jsonio.df_to_dict(quantum(4, 2))
    tracemalloc.start()
    try:
        text = jsonio.dump_json(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * len(text)


def test_save_df_peak_memory_stays_near_twice_the_text(tmp_path):
    D = quantum(4, 2)
    path = tmp_path / "D.json"
    tracemalloc.start()
    try:
        jsonio.save_df(D, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the text is ASCII, so its length is the file size
    assert peak <= 2.25 * path.stat().st_size


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


def test_loaded_matrix_is_the_read_only_array_entries_to_matrix_built(tmp_path):
    path = tmp_path / "D.json"
    jsonio.save_df(quantum(3, 2), path)
    matrix = jsonio.load_df(path).matrix
    # a copy would own its data; the parsed float64 array is kept instead
    assert not matrix.flags.writeable
    assert matrix.base is not None and matrix.base.dtype == np.float64
    assert matrix.base.flags.owndata and not matrix.base.flags.writeable


def test_matrix_to_entries_takes_vectors():
    v = np.array([1 + 2j, -0.0, 3, -4j])
    expected = [[1.0, 2.0], [-0.0, 0.0], [3.0, 0.0], [-0.0, -4.0]]
    assert jsonio.matrix_to_entries(v).tolist() == expected
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


# loader, a valid file's dict, and the path to one of its numbers
LOADERS = {
    "df": (jsonio.load_df, lambda: jsonio.df_to_dict(quantum(3, 2)), ["entries", 5, 0]),
    "behavior": (
        jsonio.load_behavior,
        lambda: {"m": 1, "d": 2, "P": [[[[1.0, 0.0], [0.0, 0.0]]]]},
        ["P", 0, 0, 0, 0],
    ),
    "model": (
        jsonio.load_model,
        lambda: jsonio.model_to_dict(random_tensor_model(np.random.default_rng(0), 2, 2)),
        ["rho", 0, 0],
    ),
}


@pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float", "past-digit-limit"])
@pytest.mark.parametrize("kind", LOADERS)
def test_loaders_reject_integers_beyond_float_range(tmp_path, kind, digits):
    load, make, where = LOADERS[kind]
    data = make()
    cell = data
    for key in where[:-1]:
        if isinstance(cell[key], np.ndarray):
            cell[key] = cell[key].tolist()
        cell = cell[key]
    cell[where[-1]] = "BIG"
    path = tmp_path / "f.json"
    path.write_text(jsonio.dump_json(data).replace('"BIG"', "9" * digits))
    with pytest.raises(DflabError, match=jsonio.BEYOND_FLOAT):
        load(path)


@pytest.mark.parametrize("dim", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("kind", ["df", "model"])
def test_loaders_reject_non_integer_dim(tmp_path, kind, dim):
    load, make, _ = LOADERS[kind]
    path = tmp_path / "f.json"
    path.write_text(jsonio.dump_json({**make(), "dim": "DIM"}).replace('"DIM"', dim))
    with pytest.raises(DflabError, match="malformed (DF|quantum model) object"):
        load(path)
