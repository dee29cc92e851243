"""The substrate DataFrame.

:class:`DataFrame` is an ordered mapping of column names to
:class:`~repro.frame.column.Column` objects of equal length.  It provides the
full operator vocabulary required by the paper's 27 preparators (Table 3) and
by the 22 TPC-H queries — selection, filtering, sorting, group-by, join,
pivot, deduplication, missing-value handling, string/date transforms,
encodings, descriptive statistics — plus conversion helpers used by the
simulated engines.

The API intentionally resembles Pandas (the "de facto standard" the paper
builds Bento around) without copying it verbatim: every method returns a new
frame, there is no implicit row index, and nulls are first-class citizens.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import strings as string_ops
from .backends import ColumnFactory, active_backend
from .column import Column
from .datetimes import extract_component, format_datetime_column, parse_datetime_column
from .dtypes import BOOL, CATEGORICAL, DType, FLOAT64, INT64, STRING, parse_dtype
from .errors import (
    ColumnNotFoundError,
    DuplicateColumnError,
    EmptyFrameError,
    LengthMismatchError,
)
from .groupby import GroupBy, aggregate
from .join import hash_join

__all__ = ["DataFrame", "concat_rows"]


class DataFrame:
    """Two-dimensional, column-oriented table with typed, nullable columns."""

    # _plan_stats_cache holds the statistics layer's harvested TableStats
    # (see repro.plan.stats.harvest_frame); plans reference the same frame
    # many times during optimization, so harvesting must be one-shot.
    __slots__ = ("_data", "_plan_stats_cache")

    def __init__(self, data: Mapping[str, "Column | Sequence[Any]"] | None = None):
        self._data: dict[str, Column] = {}
        if not data:
            return
        length: int | None = None
        for name, values in data.items():
            column = values if isinstance(values, Column) else Column.from_values(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise LengthMismatchError(
                    f"column {name!r} has {len(column)} rows, expected {length}"
                )
            if name in self._data:
                raise DuplicateColumnError(f"duplicate column name {name!r}")
            self._data[str(name)] = column

    # ------------------------------------------------------------------ #
    # shape / metadata (EDA preparators: getcols, dtypes)
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> list[str]:
        """Column names in order (the ``getcols`` preparator)."""
        return list(self._data.keys())

    @property
    def dtypes(self) -> dict[str, DType]:
        """Mapping of column name to logical dtype (the ``dtypes`` preparator)."""
        return {name: col.dtype for name, col in self._data.items()}

    @property
    def num_rows(self) -> int:
        if not self._data:
            return 0
        return len(next(iter(self._data.values())))

    @property
    def num_columns(self) -> int:
        return len(self._data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> Column:
        try:
            return self._data[name]
        except KeyError:
            raise ColumnNotFoundError(name, tuple(self._data)) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataFrame) and self.equals(other)

    def __hash__(self):  # frames are mutable containers; keep them unhashable
        raise TypeError("DataFrame objects are unhashable")

    def equals(self, other: "DataFrame") -> bool:
        """Column-wise equality, order sensitive, null aware."""
        if self.columns != other.columns:
            return False
        return all(self[name].equals(other[name]) for name in self.columns)

    def memory_usage(self) -> int:
        """Approximate in-memory footprint of all columns, in bytes."""
        return sum(col.memory_usage() for col in self._data.values())

    def copy(self) -> "DataFrame":
        return DataFrame({name: col.copy() for name, col in self._data.items()})

    def to_backend(self, backend: str) -> "DataFrame":
        """Re-represent every column on another physical backend (no-op when
        already there; see :mod:`repro.frame.backends`)."""
        from .backends import convert_frame

        return convert_frame(self, backend)

    def row(self, index: int) -> dict[str, Any]:
        """Single row as a dict (used by tests and examples, not pipelines)."""
        return {name: col[index] for name, col in self._data.items()}

    def to_dict(self) -> dict[str, list[Any]]:
        """Materialize as a plain dict of lists (None for nulls)."""
        return {name: col.to_list() for name, col in self._data.items()}

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, Any]],
                  columns: Sequence[str] | None = None) -> "DataFrame":
        """Build a frame from a list of row dicts."""
        if columns is None:
            seen: dict[str, None] = {}
            for row in rows:
                for key in row:
                    seen.setdefault(key, None)
            columns = list(seen)
        data = {name: [row.get(name) for row in rows] for name in columns}
        return cls(data)

    # ------------------------------------------------------------------ #
    # column-level manipulation (DT preparators: drop, rename, calccol, cast)
    # ------------------------------------------------------------------ #
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Keep only the listed columns, in the given order."""
        missing = [n for n in names if n not in self._data]
        if missing:
            raise ColumnNotFoundError(missing[0], tuple(self._data))
        return DataFrame({name: self._data[name] for name in names})

    def drop(self, names: "str | Sequence[str]") -> "DataFrame":
        """Remove columns (the ``drop`` preparator)."""
        targets = {names} if isinstance(names, str) else set(names)
        missing = targets - set(self._data)
        if missing:
            raise ColumnNotFoundError(sorted(missing)[0], tuple(self._data))
        return DataFrame({n: c for n, c in self._data.items() if n not in targets})

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        """Rename columns (the ``rename`` preparator)."""
        missing = [n for n in mapping if n not in self._data]
        if missing:
            raise ColumnNotFoundError(missing[0], tuple(self._data))
        data: dict[str, Column] = {}
        for name, col in self._data.items():
            new_name = mapping.get(name, name)
            if new_name in data:
                raise DuplicateColumnError(f"rename would duplicate column {new_name!r}")
            data[new_name] = col
        return DataFrame(data)

    def with_column(self, name: str, values: "Column | Sequence[Any]") -> "DataFrame":
        """Add or replace a column (backs the ``calccol`` preparator)."""
        column = values if isinstance(values, Column) else Column.from_values(values)
        if self._data and len(column) != self.num_rows:
            raise LengthMismatchError(
                f"new column {name!r} has {len(column)} rows, frame has {self.num_rows}"
            )
        data = dict(self._data)
        data[name] = column
        return DataFrame(data)

    def with_columns(self, columns: Mapping[str, "Column | Sequence[Any]"]) -> "DataFrame":
        out = self
        for name, values in columns.items():
            out = out.with_column(name, values)
        return out

    def cast(self, mapping: Mapping[str, "DType | str"]) -> "DataFrame":
        """Cast columns to new dtypes (the ``cast`` preparator)."""
        data = dict(self._data)
        for name, dtype in mapping.items():
            if name not in data:
                raise ColumnNotFoundError(name, tuple(self._data))
            data[name] = data[name].cast(parse_dtype(dtype))
        return DataFrame(data)

    # ------------------------------------------------------------------ #
    # row-level selection (EDA: query; DC: dropna, dedup)
    # ------------------------------------------------------------------ #
    def head(self, n: int = 5) -> "DataFrame":
        return DataFrame({name: col.head(n) for name, col in self._data.items()})

    def slice(self, offset: int, length: int | None = None) -> "DataFrame":
        return DataFrame({name: col.slice(offset, length) for name, col in self._data.items()})

    def take(self, indices: np.ndarray) -> "DataFrame":
        return DataFrame({name: col.take(indices) for name, col in self._data.items()})

    def filter(self, mask: "Column | np.ndarray") -> "DataFrame":
        """Keep rows where the boolean mask is True (the ``query`` preparator)."""
        if isinstance(mask, Column):
            mask = mask.to_numpy_bool()
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows:
            raise LengthMismatchError("filter mask length does not match frame length")
        return DataFrame({name: col.filter(mask) for name, col in self._data.items()})

    def sample(self, fraction: float, seed: int = 7) -> "DataFrame":
        """Random row sample without replacement (used for dataset scaling)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        n = self.num_rows
        k = max(1, int(round(n * fraction))) if n else 0
        indices = rng.choice(n, size=k, replace=False) if n else np.array([], dtype=np.int64)
        return self.take(np.sort(indices))

    def sort_values(self, by: "str | Sequence[str]", ascending: "bool | Sequence[bool]" = True,
                    nulls_last: bool = True) -> "DataFrame":
        """Sort rows by one or more columns (the ``sort`` preparator).

        Multi-key sort is implemented as repeated stable sorts from the last
        key to the first, the standard radix-style trick.
        """
        keys = [by] if isinstance(by, str) else list(by)
        orders = [ascending] * len(keys) if isinstance(ascending, bool) else list(ascending)
        if len(orders) != len(keys):
            raise ValueError("ascending must be a bool or match the number of sort keys")
        if self.num_rows == 0:
            return self.copy()
        indices = np.arange(self.num_rows)
        for key, asc in zip(reversed(keys), reversed(orders)):
            column = self[key].take(indices)
            order = column.sort_indices(ascending=asc, nulls_last=nulls_last)
            indices = indices[order]
        return self.take(indices)

    def drop_duplicates(self, subset: Sequence[str] | None = None, keep: str = "first") -> "DataFrame":
        """Remove duplicate rows (the ``dedup`` preparator)."""
        if keep not in ("first", "last"):
            raise ValueError("keep must be 'first' or 'last'")
        names = list(subset) if subset else self.columns
        for name in names:
            if name not in self._data:
                raise ColumnNotFoundError(name, tuple(self._data))
        key_lists = [self._data[name].to_list() for name in names]
        seen: dict[tuple, int] = {}
        rows = range(self.num_rows) if keep == "first" else range(self.num_rows - 1, -1, -1)
        for row in rows:
            key = tuple(key_list[row] for key_list in key_lists)
            seen.setdefault(key, row)
        kept = np.array(sorted(seen.values()), dtype=np.int64)
        return self.take(kept)

    def dropna(self, subset: Sequence[str] | None = None, how: str = "any") -> "DataFrame":
        """Drop rows with nulls (the ``dropna`` preparator)."""
        if how not in ("any", "all"):
            raise ValueError("how must be 'any' or 'all'")
        names = list(subset) if subset else self.columns
        if not names:
            return self.copy()
        masks = []
        for name in names:
            if name not in self._data:
                raise ColumnNotFoundError(name, tuple(self._data))
            masks.append(self._data[name].validity)
        stacked = np.vstack(masks)
        keep = stacked.all(axis=0) if how == "any" else stacked.any(axis=0)
        return self.filter(keep)

    # ------------------------------------------------------------------ #
    # missing values (EDA: isna; DC: fillna)
    # ------------------------------------------------------------------ #
    def isna(self) -> "DataFrame":
        """Boolean frame marking nulls (the ``isna`` preparator)."""
        return DataFrame({name: col.is_null() for name, col in self._data.items()})

    def null_counts(self) -> dict[str, int]:
        return {name: col.null_count() for name, col in self._data.items()}

    def null_fraction(self) -> float:
        """Fraction of null cells over all cells (Table 2's ``% Null``)."""
        cells = self.num_rows * self.num_columns
        if cells == 0:
            return 0.0
        return sum(self.null_counts().values()) / cells

    def fillna(self, value: "Any | Mapping[str, Any]") -> "DataFrame":
        """Fill nulls with a scalar or a per-column mapping (``fillna``)."""
        data = dict(self._data)
        if isinstance(value, Mapping):
            for name, fill in value.items():
                if name not in data:
                    raise ColumnNotFoundError(name, tuple(self._data))
                data[name] = data[name].fill_null(fill)
        else:
            for name, col in data.items():
                if col.null_count():
                    try:
                        data[name] = col.fill_null(value)
                    except (TypeError, ValueError):
                        continue
        return DataFrame(data)

    # ------------------------------------------------------------------ #
    # statistics (EDA: stats, outlier)
    # ------------------------------------------------------------------ #
    def describe(self, approximate_quantiles: bool = False) -> "DataFrame":
        """Descriptive statistics for numeric columns (the ``stats`` preparator)."""
        numeric = [n for n, c in self._data.items() if c.dtype.is_numeric]
        stats = ["count", "mean", "std", "min", "q25", "q50", "q75", "max"]
        data: dict[str, list[Any]] = {"statistic": stats}
        for name in numeric:
            col = self._data[name]
            data[name] = [
                float(col.count()),
                col.mean(),
                col.std(),
                None if col.min() is None else float(col.min()),
                col.quantile(0.25, approximate=approximate_quantiles),
                col.quantile(0.50, approximate=approximate_quantiles),
                col.quantile(0.75, approximate=approximate_quantiles),
                None if col.max() is None else float(col.max()),
            ]
        return DataFrame(data)

    def quantile(self, q: float, columns: Sequence[str] | None = None,
                 approximate: bool = False) -> dict[str, float | None]:
        names = columns or [n for n, c in self._data.items() if c.dtype.is_numeric]
        return {name: self._data[name].quantile(q, approximate=approximate) for name in names}

    def locate_outliers(self, column: str, factor: float = 1.5,
                        approximate: bool = False) -> Column:
        """IQR-based outlier mask for one numeric column (the ``outlier`` preparator)."""
        col = self[column]
        q1 = col.quantile(0.25, approximate=approximate)
        q3 = col.quantile(0.75, approximate=approximate)
        if q1 is None or q3 is None:
            return Column(np.zeros(self.num_rows, dtype=bool), BOOL)
        iqr = q3 - q1
        lower, upper = q1 - factor * iqr, q3 + factor * iqr
        floats = col.to_numpy_float()
        mask = (floats < lower) | (floats > upper)
        mask = np.where(np.isnan(floats), False, mask)
        return Column(mask.astype(bool), BOOL)

    # ------------------------------------------------------------------ #
    # string / datetime / value transforms (DC preparators)
    # ------------------------------------------------------------------ #
    def search_pattern(self, column: str, pattern: str, regex: bool = True) -> "DataFrame":
        """Rows whose string column matches a pattern (``srchptn``)."""
        mask = string_ops.contains(self[column], pattern, regex=regex)
        return self.filter(mask)

    def set_case(self, columns: Sequence[str], mode: str = "lower") -> "DataFrame":
        """Change case of string columns (``setcase``)."""
        data = dict(self._data)
        for name in columns:
            data[name] = string_ops.set_case(self[name], mode)
        return DataFrame(data)

    def replace_values(self, column: str, mapping: Mapping[Any, Any]) -> "DataFrame":
        """Replace exact value occurrences in one column (``replace``)."""
        return self.with_column(column, self[column].replace(dict(mapping)))

    def edit_values(self, column: str, func: Callable[[Any], Any],
                    dtype: "DType | str | None" = None) -> "DataFrame":
        """Apply a scalar function to one column (``edit``)."""
        return self.with_column(column, self[column].apply(func, dtype))

    def normalize(self, columns: Sequence[str], method: str = "minmax") -> "DataFrame":
        """Normalize numeric columns (``norm``)."""
        data = dict(self._data)
        for name in columns:
            data[name] = self[name].normalize(method)
        return DataFrame(data)

    def parse_dates(self, columns: Sequence[str], fmt: str | None = None) -> "DataFrame":
        """Parse string columns into DATETIME columns (``chdate``)."""
        data = dict(self._data)
        for name in columns:
            data[name] = parse_datetime_column(self[name], fmt)
        return DataFrame(data)

    def format_dates(self, columns: Sequence[str], fmt: str = "%Y-%m-%d") -> "DataFrame":
        """Format DATETIME columns as strings (``chdate`` output direction)."""
        data = dict(self._data)
        for name in columns:
            data[name] = format_datetime_column(self[name], fmt)
        return DataFrame(data)

    def extract_date_component(self, column: str, component: str, into: str | None = None) -> "DataFrame":
        """Add an integer calendar component column extracted from a date column."""
        return self.with_column(into or f"{column}_{component}",
                                extract_component(self[column], component))

    # ------------------------------------------------------------------ #
    # encodings (DT preparators: onehot, catenc)
    # ------------------------------------------------------------------ #
    def categorical_encode(self, columns: Sequence[str]) -> "DataFrame":
        """Dictionary-encode string columns into integer codes (``catenc``)."""
        data = dict(self._data)
        for name in columns:
            encoded = self[name].cast(CATEGORICAL)
            data[name] = Column(encoded.values.astype(np.int64), INT64, encoded.validity)
        return DataFrame(data)

    def one_hot_encode(self, column: str, prefix: str | None = None,
                       max_categories: int = 64) -> "DataFrame":
        """Expand a string column into 0/1 indicator columns (``onehot``)."""
        source = self[column]
        values = source.to_list()
        categories = sorted({v for v in values if v is not None}, key=str)[:max_categories]
        prefix = prefix if prefix is not None else column
        out = self.drop(column)
        for cat in categories:
            # Null source rows get 0 in every indicator column (Pandas' get_dummies).
            mask = np.array([v == cat for v in values], dtype=np.int64)
            out = out.with_column(f"{prefix}_{cat}", Column(mask, INT64))
        return out

    # ------------------------------------------------------------------ #
    # relational operators (DT: group, join, pivot)
    # ------------------------------------------------------------------ #
    def groupby(self, keys: "str | Sequence[str]") -> GroupBy:
        keys = [keys] if isinstance(keys, str) else list(keys)
        for name in keys:
            if name not in self._data:
                raise ColumnNotFoundError(name, tuple(self._data))
        return GroupBy(self, keys)

    def group_agg(self, keys: "str | Sequence[str]",
                  aggregations: Mapping[str, "str | Sequence[str]"]) -> "DataFrame":
        """Group-by + aggregate in one call (the ``group`` preparator)."""
        keys = [keys] if isinstance(keys, str) else list(keys)
        return aggregate(self, keys, aggregations)

    def join(self, other: "DataFrame", on: "str | Sequence[str] | None" = None,
             left_on: "str | Sequence[str] | None" = None,
             right_on: "str | Sequence[str] | None" = None,
             how: str = "inner", suffix: str = "_right") -> "DataFrame":
        """Equi-join with another frame (the ``join`` preparator)."""
        if on is not None:
            left_on = right_on = on
        if left_on is None or right_on is None:
            raise ValueError("join requires 'on' or both 'left_on' and 'right_on'")
        left_keys = [left_on] if isinstance(left_on, str) else list(left_on)
        right_keys = [right_on] if isinstance(right_on, str) else list(right_on)
        return hash_join(self, other, left_keys, right_keys, how=how, suffix=suffix)

    def pivot_table(self, index: str, columns: str, values: str, aggfunc: str = "mean") -> "DataFrame":
        """Spreadsheet-style pivot (the ``pivot`` preparator).

        Rows are the distinct values of ``index``; one output column per
        distinct value of ``columns``; cells aggregate ``values`` with
        ``aggfunc``.  Missing combinations become nulls.
        """
        if self.num_rows == 0:
            raise EmptyFrameError("pivot_table on an empty frame")
        grouped = self.group_agg([index, columns], {values: aggfunc})
        index_values = []
        seen_index: dict[Any, int] = {}
        for v in grouped[index].to_list():
            if v not in seen_index:
                seen_index[v] = len(index_values)
                index_values.append(v)
        col_values = []
        seen_cols: dict[Any, int] = {}
        for v in grouped[columns].to_list():
            if v not in seen_cols:
                seen_cols[v] = len(col_values)
                col_values.append(v)
        cells: list[list[Any]] = [[None] * len(index_values) for _ in col_values]
        value_list = grouped[values].to_list()
        idx_list = grouped[index].to_list()
        col_list = grouped[columns].to_list()
        for idx_value, col_value, cell in zip(idx_list, col_list, value_list):
            cells[seen_cols[col_value]][seen_index[idx_value]] = cell
        data: dict[str, Any] = {index: Column.from_values(index_values)}
        for col_value, series in zip(col_values, cells):
            data[f"{columns}_{col_value}"] = Column.from_values(series)
        return DataFrame(data)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def to_string(self, max_rows: int = 10) -> str:
        """Small fixed-width textual rendering for examples and reports."""
        header = self.columns
        rows = [
            [("" if v is None else str(v)) for v in self.row(i).values()]
            for i in range(min(max_rows, self.num_rows))
        ]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataFrame(shape={self.shape}, columns={self.columns[:8]})"


def concat_rows(frames: Iterable[DataFrame]) -> DataFrame:
    """Vertically concatenate frames sharing the same schema.

    Each output column is what ``Column.from_values`` builds from the pieces'
    merged values under the first piece's dtype.  When every piece of a
    column has the same dtype and column class, the ``values``/``validity``
    buffers are concatenated directly: categorical columns are re-encoded from
    their valid strings (so a category no row uses is dropped, as a
    whole-frame pass would do) and string columns are built on the active
    backend.  Pieces that differ in dtype or class take the list path.
    """
    frames = list(frames)
    if not frames:
        return DataFrame()
    columns = frames[0].columns
    for frame in frames[1:]:
        if frame.columns != columns:
            raise LengthMismatchError("cannot concatenate frames with different schemas")
    return DataFrame({name: _concat_column([frame[name] for frame in frames])
                      for name in columns})


def _concat_column(pieces: list[Column]) -> Column:
    dtype = pieces[0].dtype
    kind = type(pieces[0])
    if any(piece.dtype is not dtype or type(piece) is not kind for piece in pieces):
        merged_values: list[Any] = []
        for piece in pieces:
            merged_values.extend(piece.to_list())
        return Column.from_values(merged_values, dtype)
    validity = np.concatenate([np.asarray(piece.validity, dtype=bool)
                               for piece in pieces])
    if dtype is STRING or dtype is CATEGORICAL:
        strings = np.concatenate([piece.to_string_array() for piece in pieces])
        if dtype is CATEGORICAL:
            return Column._encode_categorical(strings, validity)
        return ColumnFactory.build(STRING.typecode, active_backend(), strings, validity)
    values = np.concatenate([piece.values for piece in pieces])
    return Column._from_storage(values, dtype, validity)
