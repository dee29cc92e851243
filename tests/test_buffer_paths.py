"""Buffer-level bulk paths of the ``object`` backend, pinned to list references.

``Column.to_list``, the join gather and ``concat_rows`` work on the numpy
``values``/``validity`` buffers.  Their behaviour is defined by the list-based
code they replaced, which is kept below as the reference: every output must
match it in class, dtype, validity, the stored values (null slots included:
``None`` for strings, ``False`` for bools, ``0`` otherwise) and category
table.
"""

from typing import Any, Sequence

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.preparators import get_preparator
from repro.engines import create_engine
from repro.engines.modin_engine import partition_bounds
from repro.frame import Column, DataFrame, DictStringColumn, concat_rows, use_backend
from repro.frame.dtypes import BOOL, CATEGORICAL, DATETIME, FLOAT64, INT64, STRING
from repro.frame.errors import DTypeError
from repro.frame.join import _reference_indices, hash_join
from repro.simulate import PAPER_SERVER

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

_JOIN_TYPES = ("inner", "left", "right", "outer", "semi", "anti")
_DTYPES = (BOOL, INT64, FLOAT64, DATETIME, STRING, CATEGORICAL)


# --------------------------------------------------------------------------- #
# list-based references
# --------------------------------------------------------------------------- #
def reference_gather(column: Column, indices: "Sequence[int | None]") -> Column:
    """Take with ``None`` producing a null row, through Python lists."""
    values = column.to_list()
    out = [values[i] if i is not None else None for i in indices]
    dtype = column.dtype if column.dtype.value != "categorical" else None
    return Column.from_values(out, dtype)


def reference_join(left, right, on: Sequence[str], how: str,
                   suffix: str = "_right") -> DataFrame:
    """``hash_join`` on the reference probe with the list-based gather."""
    on = list(on)
    if how == "right":
        return reference_join(right, left, on, "left", suffix)
    left_idx, right_idx = _reference_indices(left, right, on, on, how)
    left_rows = [None if i < 0 else i for i in left_idx.tolist()]
    right_rows = [None if i < 0 else i for i in right_idx.tolist()]
    data = {name: reference_gather(left[name], left_rows) for name in left.columns}
    if how not in ("semi", "anti"):
        for name in right.columns:
            if name in on:
                continue
            out_name = f"{name}{suffix}" if name in data else name
            data[out_name] = reference_gather(right[name], right_rows)
    return DataFrame(data)


def reference_concat(frames: Sequence[DataFrame]) -> DataFrame:
    """``concat_rows`` through merged Python lists."""
    data: dict[str, Column] = {}
    for name in frames[0].columns:
        pieces = [frame[name] for frame in frames]
        merged_values: list[Any] = []
        for piece in pieces:
            merged_values.extend(piece.to_list())
        data[name] = Column.from_values(merged_values, pieces[0].dtype)
    return DataFrame(data)


# --------------------------------------------------------------------------- #
# comparison helpers
# --------------------------------------------------------------------------- #
def _same_items(a: list, b: list) -> bool:
    """Element-wise identity of two lists: equal values of the same type,
    with NaN equal to NaN."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        if isinstance(x, float) and np.isnan(x):
            if not np.isnan(y):
                return False
        elif x != y:
            return False
    return True


def assert_same_column(actual: Column, expected: Column) -> None:
    assert type(actual) is type(expected)
    assert actual.dtype is expected.dtype
    assert np.array_equal(actual.validity, expected.validity)
    assert actual.values.dtype == expected.values.dtype
    assert _same_items(actual.values.tolist(), expected.values.tolist())
    if expected.categories is None:
        assert actual.categories is None
    else:
        assert actual.categories.tolist() == expected.categories.tolist()


def assert_same_frame(actual: DataFrame, expected: DataFrame) -> None:
    assert actual.columns == expected.columns
    for name in expected.columns:
        assert_same_column(actual[name], expected[name])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_WORDS = st.text(alphabet="abc", max_size=2)


def _raw_values(dtype, n: int):
    if dtype is BOOL:
        return st.lists(st.booleans(), min_size=n, max_size=n)
    if dtype is INT64:
        return st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    if dtype is FLOAT64:
        # NaN included: a *valid* NaN slot must become a null downstream
        return st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(float("nan"))),
                        min_size=n, max_size=n)
    if dtype is DATETIME:
        return st.lists(st.integers(0, 2 ** 62), min_size=n, max_size=n)
    return st.lists(_WORDS, min_size=n, max_size=n)


@st.composite
def columns(draw, dtype=None, min_size=0, max_size=10, dict_strings=True):
    """A column of ``dtype`` with random null positions and non-zero values
    left in its null slots; string columns on either string class,
    categorical columns with unused categories in their table."""
    dtype = dtype or draw(st.sampled_from(_DTYPES))
    n = draw(st.integers(min_size, max_size))
    raw = draw(_raw_values(dtype, n))
    validity = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                        dtype=bool)
    if dtype is STRING:
        strings = np.array(raw, dtype=object)
        if dict_strings and draw(st.booleans()):
            strings[~validity] = None
            return DictStringColumn.from_strings(strings, validity)
        return Column(strings, STRING, validity)
    if dtype is CATEGORICAL:
        unused = draw(st.lists(st.sampled_from(["x", "yy", "zzz"]), unique=True))
        categories = np.array(sorted(set(raw) | set(unused)), dtype=object)
        codes = np.searchsorted(categories, np.array(raw, dtype=object)).astype(np.int32)
        return Column(codes, CATEGORICAL, validity, categories=categories)
    storage = {BOOL: bool, INT64: np.int64, FLOAT64: np.float64, DATETIME: np.int64}
    return Column(np.array(raw, dtype=storage[dtype]), dtype, validity)


@st.composite
def join_sides(draw):
    """Left and right frames sharing a key column ``k`` (int or string)."""
    key_dtype = draw(st.sampled_from([INT64, STRING]))

    def side(prefix: str) -> DataFrame:
        n = draw(st.integers(0, 8))
        data = {"k": draw(columns(key_dtype, n, n, dict_strings=False))}
        for dtype in (STRING, CATEGORICAL, FLOAT64, INT64):
            name = f"{prefix}_{dtype.value}"
            data[name] = draw(columns(dtype, n, n, dict_strings=False))
        data["shared"] = draw(columns(FLOAT64, n, n))
        return DataFrame(data)

    return side("l"), side("r")


# --------------------------------------------------------------------------- #
# to_list
# --------------------------------------------------------------------------- #
class TestToList:
    @_SETTINGS
    @given(column=columns())
    def test_matches_per_element_access(self, column):
        # categorical columns are drawn with unused categories in the table
        assert _same_items(column.to_list(), [column[i] for i in range(len(column))])

    @_SETTINGS
    @given(strings=st.lists(st.one_of(st.none(), _WORDS), max_size=12))
    def test_categorical_encoding_is_sorted_valid_strings(self, strings):
        column = Column.from_values(strings, CATEGORICAL)
        valid = [s for s in strings if s is not None]
        assert column.categories.tolist() == sorted(set(valid))
        assert column.to_list() == strings

    def test_foreign_storage_dtype_decodes_per_element(self):
        column = Column(np.array([1, 0, 2], dtype=np.int8), BOOL,
                        np.array([True, True, False]))
        assert _same_items(column.to_list(), [True, False, None])


# --------------------------------------------------------------------------- #
# join gather
# --------------------------------------------------------------------------- #
class TestJoinGather:
    @_SETTINGS
    @given(sides=join_sides(), how=st.sampled_from(_JOIN_TYPES))
    def test_matches_list_reference(self, sides, how):
        left, right = sides
        assert_same_frame(hash_join(left, right, ["k"], how=how),
                          reference_join(left, right, ["k"], how))

    @pytest.mark.parametrize("how", _JOIN_TYPES)
    def test_valid_nan_payload_becomes_null(self, how):
        left = DataFrame({"k": Column.from_values([1, 2, 3], INT64),
                          "x": Column(np.array([np.nan, 1.5, np.nan]), FLOAT64)})
        right = DataFrame({"k": Column.from_values([3, 1, 4], INT64),
                           "y": Column(np.array([np.nan, 2.5, 0.5]), FLOAT64)})
        joined = hash_join(left, right, ["k"], how=how)
        assert_same_frame(joined, reference_join(left, right, ["k"], how))
        assert not any(np.isnan(v) for name in joined.columns
                       for v in joined[name].to_list() if isinstance(v, float))


# --------------------------------------------------------------------------- #
# concat_rows
# --------------------------------------------------------------------------- #
def _concat_both(frames, backend: str):
    with use_backend(backend):
        try:
            expected = reference_concat(frames)
        except DTypeError:
            with pytest.raises(DTypeError):
                concat_rows(frames)
            return
        assert_same_frame(concat_rows(frames), expected)


@st.composite
def same_dtype_pieces(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    count = draw(st.integers(1, 4))
    return [DataFrame({"c": draw(columns(dtype, dict_strings=False))})
            for _ in range(count)]


class TestConcatRows:
    @_SETTINGS
    @given(frames=same_dtype_pieces(), backend=st.sampled_from(["object", "dict"]))
    def test_same_dtype_pieces_match_list_reference(self, frames, backend):
        # empty pieces and, for categoricals, different category tables
        # (unused categories included) are drawn here
        _concat_both(frames, backend)

    @_SETTINGS
    @given(frames=st.lists(columns(STRING).map(lambda c: DataFrame({"s": c})),
                           min_size=1, max_size=4),
           backend=st.sampled_from(["object", "dict"]))
    def test_mixed_string_classes_match_list_reference(self, frames, backend):
        _concat_both(frames, backend)

    @_SETTINGS
    @given(frames=st.lists(columns().map(lambda c: DataFrame({"c": c})),
                           min_size=1, max_size=4))
    def test_mismatched_dtypes_match_list_reference(self, frames):
        _concat_both(frames, "object")

    def test_category_tables_are_merged_and_pruned(self):
        a = Column(np.array([0, 1], dtype=np.int32), CATEGORICAL, np.array([True, True]),
                   categories=np.array(["b", "z"], dtype=object))
        b = Column(np.array([1, 0], dtype=np.int32), CATEGORICAL, np.array([True, False]),
                   categories=np.array(["a", "q"], dtype=object))
        out = concat_rows([DataFrame({"c": a}), DataFrame({"c": b})])["c"]
        assert out.to_list() == ["b", "z", "q", None]
        assert out.categories.tolist() == ["b", "q", "z"]


# --------------------------------------------------------------------------- #
# no per-element fallback
# --------------------------------------------------------------------------- #
class TestNoPerElementFallback:
    """Bulk paths must not decode row by row through ``Column.__getitem__``."""

    @pytest.fixture
    def frames(self):
        left = DataFrame({
            "id": [1, 2, 3, 4, None],
            "name": ["a", "b", None, "d", "e"],
            "score": [1.5, None, 3.5, 4.5, 5.5],
            "flag": [True, False, None, True, False],
        })
        right = DataFrame({
            "id": [4, 1, 1, 7],
            "name": ["d", "a", "a", None],
            "bonus": [10, 20, None, 40],
            "tag": ["x", None, "z", "w"],
        })
        return left, right

    @pytest.fixture
    def forbid_getitem(self, monkeypatch):
        def refuse(self, index):
            raise AssertionError("per-element Column.__getitem__ on a bulk path")
        monkeypatch.setattr(Column, "__getitem__", refuse)

    @pytest.mark.parametrize("how", _JOIN_TYPES)
    @pytest.mark.parametrize("keys", [["id"], ["name"], ["id", "name"]])
    def test_object_backend_join(self, frames, forbid_getitem, keys, how):
        left, right = frames
        with use_backend("object"):
            joined = hash_join(left, right, keys, how=how)
        assert joined.num_rows >= 0

    def test_concat_same_dtype_pieces(self, frames, forbid_getitem):
        left, _ = frames
        left = left.with_column("cat", left["name"].cast(CATEGORICAL))
        out = concat_rows([left.slice(0, 2), left.slice(2, 3), left.slice(5, 0)])
        assert out.num_rows == left.num_rows
        for name in left.columns:
            assert out[name].to_list() == left[name].to_list()


# --------------------------------------------------------------------------- #
# Modin partitioning
# --------------------------------------------------------------------------- #
class TestModinPartitions:
    @pytest.mark.parametrize("rows", [1, 4, 7, 39, 48, 95, 120, 1000])
    @pytest.mark.parametrize("parts", [2, 8, 48])
    def test_bounds_are_balanced(self, rows, parts):
        bounds = partition_bounds(rows, parts)
        assert len(bounds) == min(rows, parts)
        assert bounds[0][0] == 0 and bounds[-1][1] == rows
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
        sizes = [stop - start for start, stop in bounds]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("engine_name,rows,pieces", [
        ("modin_ray", 120, 48),   # 48 workers on the paper server
        ("modin_dask", 39, 8),    # 8 workers
        ("modin_ray", 5, 5),      # fewer rows than workers: one row each
    ])
    def test_engine_cuts_min_rows_parts_pieces(self, monkeypatch, engine_name,
                                               rows, pieces):
        import repro.engines.modin_engine as modin

        seen = []

        def recording_concat(frames):
            seen.append(len(frames))
            return concat_rows(frames)

        monkeypatch.setattr(modin, "concat_rows", recording_concat)
        engine = create_engine(engine_name, machine=PAPER_SERVER)
        frame = DataFrame({"x": [float(i) if i % 3 else None for i in range(rows)]})
        fillna = get_preparator("fillna")
        result = engine._execute_preparator(fillna, frame, {"value": 0})
        assert seen == [pieces]
        assert engine._preparator_path_tag(fillna, frame) == f"part{pieces}"
        assert result.frame.equals(fillna.apply(frame, {"value": 0}).frame)
