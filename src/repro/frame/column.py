"""Typed column with explicit null handling.

A :class:`Column` couples a numpy storage array with a boolean *validity mask*
(``True`` marks a valid value, ``False`` a null), the Arrow-style
representation used by Polars and CuDF in the paper.  The simulated DataTable
engine instead relies on the sentinel view exposed by
:meth:`Column.to_sentinel` / :meth:`Column.from_sentinel`.

Columns are immutable from the caller's point of view: every operation returns
a new column (copy-on-write is emulated by sharing the underlying buffers when
no mutation is needed).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .dtypes import (
    BOOL,
    CATEGORICAL,
    DATETIME,
    DType,
    FLOAT64,
    INT64,
    STRING,
    common_dtype,
    infer_dtype,
    numpy_storage_dtype,
    parse_dtype,
)
from .backends import ColumnFactory, OBJECT_BACKEND, WILDCARD, active_backend
from .errors import DTypeError, LengthMismatchError

__all__ = ["Column"]

# Sentinels used by the DataTable-style encoding (one per storage kind).
_INT_SENTINEL = np.iinfo(np.int64).min
_FLOAT_SENTINEL = np.nan
_STRING_SENTINEL = ""


def _as_object_array(values: Iterable[Any]) -> np.ndarray:
    # Materialize iterators exactly once: sizing via ``len(list(values))`` and
    # then enumerating the original iterable would consume a generator during
    # sizing and fill nothing.
    if not hasattr(values, "__len__"):
        values = list(values)
    arr = np.empty(len(values), dtype=object)
    for i, item in enumerate(values):
        arr[i] = item
    return arr


class Column:
    """A single named-less, typed column of values with a validity mask."""

    __slots__ = ("dtype", "values", "validity", "categories")

    #: Physical backend this class implements (see :mod:`repro.frame.backends`).
    backend = OBJECT_BACKEND

    def __init__(
        self,
        values: np.ndarray,
        dtype: DType,
        validity: np.ndarray | None = None,
        categories: np.ndarray | None = None,
    ):
        if validity is None:
            validity = np.ones(len(values), dtype=bool)
        if len(validity) != len(values):
            raise LengthMismatchError(
                f"values ({len(values)}) and validity ({len(validity)}) lengths differ"
            )
        self.values = values
        self.validity = validity
        self.dtype = dtype
        self.categories = categories
        if dtype is CATEGORICAL and categories is None:
            raise DTypeError("categorical columns require a category table")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: Sequence[Any], dtype: DType | str | None = None) -> "Column":
        """Build a column from a Python sequence or numpy array.

        ``None`` and float NaN entries become nulls.  The dtype is inferred
        when not provided.
        """
        if isinstance(values, Column):
            return values
        if dtype is not None:
            dtype = parse_dtype(dtype)
        if isinstance(values, np.ndarray) and values.dtype != object:
            inferred = infer_dtype(values)
            dtype = dtype or inferred
            if dtype is DATETIME and values.dtype.kind == "M":
                data = values.astype("datetime64[ns]").view(np.int64).copy()
                validity = ~np.isnat(values)
                return cls(data, DATETIME, validity)
            if inferred.is_numeric and dtype.is_numeric:
                data = values.astype(numpy_storage_dtype(dtype))
                validity = np.ones(len(values), dtype=bool)
                if data.dtype.kind == "f":
                    validity = ~np.isnan(values.astype(np.float64))
                    data = np.where(validity, data, 0.0 if dtype is FLOAT64 else 0)
                return cls(np.asarray(data), dtype, validity)
            # fall through to the generic object path for everything else
            values = values.astype(object)

        objs = values if isinstance(values, np.ndarray) else _as_object_array(list(values))
        validity = np.array(
            [not (v is None or (isinstance(v, float) and np.isnan(v))) for v in objs], dtype=bool
        )
        if dtype is None:
            dtype = infer_dtype(objs)
        storage = numpy_storage_dtype(dtype)
        n = len(objs)
        if dtype is STRING:
            data = np.empty(n, dtype=object)
            for i, (v, ok) in enumerate(zip(objs, validity)):
                data[i] = str(v) if ok else None
            # Physical representation is backend-dependent: route through the
            # (typecode, backend) factory so e.g. the "dict" backend can build
            # a dictionary-encoded column from the same normalized parts.
            return ColumnFactory.build(STRING.typecode, active_backend(), data, validity)
        if dtype is CATEGORICAL:
            strings = np.array([str(v) if ok else None for v, ok in zip(objs, validity)], dtype=object)
            return cls._encode_categorical(strings, validity)
        if dtype is DATETIME:
            data = np.zeros(n, dtype=np.int64)
            for i, (v, ok) in enumerate(zip(objs, validity)):
                if not ok:
                    continue
                if isinstance(v, (int, np.integer)):
                    data[i] = int(v)
                elif isinstance(v, (float, np.floating)):
                    data[i] = int(v)
                elif isinstance(v, np.datetime64):
                    data[i] = v.astype("datetime64[ns]").view(np.int64)
                else:
                    from .datetimes import parse_datetime_scalar

                    parsed = parse_datetime_scalar(str(v))
                    if parsed is None:
                        validity[i] = False
                    else:
                        data[i] = parsed
            return cls(data, DATETIME, validity)
        data = np.zeros(n, dtype=storage)
        for i, (v, ok) in enumerate(zip(objs, validity)):
            if not ok:
                continue
            try:
                data[i] = v
            except (TypeError, ValueError) as exc:
                raise DTypeError(f"cannot store {v!r} in a {dtype} column") from exc
        return cls(data, dtype, validity)

    @classmethod
    def _encode_categorical(cls, strings: np.ndarray, validity: np.ndarray) -> "Column":
        # the category table is the sorted distinct *valid* strings, so
        # categories no row uses are dropped; null rows carry code -1
        validity = np.asarray(validity, dtype=bool)
        codes = np.full(len(strings), -1, dtype=np.int32)
        valid_strings = np.asarray(strings, dtype=object)[validity]
        if valid_strings.size:
            categories, inverse = np.unique(valid_strings, return_inverse=True)
            codes[validity] = inverse.astype(np.int32)
        else:
            categories = np.empty(0, dtype=object)
        return cls(codes, CATEGORICAL, validity.copy(), categories=categories)

    @classmethod
    def _from_storage(cls, values: np.ndarray, dtype: DType, validity: np.ndarray
                      ) -> "Column":
        """Wrap freshly gathered storage buffers, normalized the way
        :meth:`from_values` writes them: a valid float NaN becomes a null, and
        null slots hold ``None`` (strings), ``False`` (bools) or ``0``.

        ``values`` and ``validity`` must be owned by the caller (the result of
        a fancy index or a concatenation): they are modified in place.  STRING
        columns keep the plain object representation; CATEGORICAL columns
        are not accepted (re-encode them with :meth:`_encode_categorical`).
        """
        if dtype is STRING:
            values[~validity] = None
            return cls(values, STRING, validity)
        values = values.astype(numpy_storage_dtype(dtype), copy=False)
        if dtype is FLOAT64:
            validity &= ~np.isnan(values)
        values[~validity] = False if dtype is BOOL else 0
        return cls(values, dtype, validity)

    @classmethod
    def full_null(cls, length: int, dtype: DType = FLOAT64) -> "Column":
        """A column of ``length`` nulls."""
        storage = numpy_storage_dtype(dtype)
        if dtype is STRING:
            data = np.empty(length, dtype=object)
            return ColumnFactory.build(STRING.typecode, active_backend(), data,
                                       np.zeros(length, dtype=bool))
        data = np.zeros(length, dtype=storage)
        categories = np.array([], dtype=object) if dtype is CATEGORICAL else None
        return cls(data, dtype, np.zeros(length, dtype=bool), categories=categories)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.to_list())

    def __getitem__(self, index: int) -> Any:
        if isinstance(index, (int, np.integer)):
            if not self.validity[index]:
                return None
            return self._decode(self.values[index])
        raise TypeError("Column indexing supports single integer positions only")

    def _decode(self, raw: Any) -> Any:
        if self.dtype is CATEGORICAL:
            return self.categories[int(raw)]
        if self.dtype is BOOL:
            return bool(raw)
        if self.dtype is INT64:
            return int(raw)
        if self.dtype is FLOAT64:
            return float(raw)
        if self.dtype is DATETIME:
            return int(raw)
        return raw

    def to_list(self) -> list[Any]:
        """Materialize as a Python list with ``None`` for nulls.

        One ``tolist()`` of the storage buffer (of ``categories[codes]`` for
        categoricals) with ``None`` written at the null positions: the same
        Python objects ``self[i]`` returns, without a call per element.  A
        buffer stored in another numpy dtype than the logical dtype's falls
        back to the per-element decode.
        """
        if self.dtype is CATEGORICAL:
            return self.to_string_array().tolist()
        if self.values.dtype != numpy_storage_dtype(self.dtype):
            return [self[i] for i in range(len(self))]
        out = self.values.tolist()
        for i in np.flatnonzero(~np.asarray(self.validity, dtype=bool)).tolist():
            out[i] = None
        return out

    def copy(self) -> "Column":
        return type(self)(self.values.copy(), self.dtype, self.validity.copy(),
                          None if self.categories is None else self.categories.copy())

    def to_backend(self, backend: str) -> "Column":
        """Re-represent this column on another physical backend."""
        from .backends import convert_column

        return convert_column(self, backend)

    def equals(self, other: "Column") -> bool:
        """Exact equality including null positions (NaN-safe for floats)."""
        if not isinstance(other, Column) or len(self) != len(other) or self.dtype != other.dtype:
            return False
        if not np.array_equal(self.validity, other.validity):
            return False
        mine, theirs = self.to_list(), other.to_list()
        for a, b in zip(mine, theirs):
            if a is None and b is None:
                continue
            if isinstance(a, float) and isinstance(b, float):
                if np.isnan(a) and np.isnan(b):
                    continue
                if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                    return False
            elif a != b:
                return False
        return True

    # ------------------------------------------------------------------ #
    # nulls
    # ------------------------------------------------------------------ #
    def null_count(self) -> int:
        return int((~self.validity).sum())

    def is_null(self) -> "Column":
        """Boolean column marking nulls (the ``isna`` preparator)."""
        return Column(~self.validity.copy(), BOOL)

    def not_null(self) -> "Column":
        return Column(self.validity.copy(), BOOL)

    def fill_null(self, value: Any) -> "Column":
        """Replace nulls with ``value`` (the ``fillna`` preparator)."""
        if self.null_count() == 0:
            return self.copy()
        out = self.copy()
        if self.dtype is STRING:
            out.values[~out.validity] = str(value)
        elif self.dtype is CATEGORICAL:
            text = str(value)
            if text not in set(out.categories.tolist()):
                out.categories = np.append(out.categories, text)
            code = int(np.where(out.categories == text)[0][0])
            out.values[~out.validity] = code
        else:
            out.values[~out.validity] = value
        out.validity[:] = True
        return out

    def drop_null(self) -> "Column":
        return self.filter(self.validity)

    # ------------------------------------------------------------------ #
    # selection
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Column":
        indices = np.asarray(indices)
        return type(self)(self.values[indices], self.dtype, self.validity[indices],
                          self.categories)

    def filter(self, mask: "np.ndarray | Column") -> "Column":
        if isinstance(mask, Column):
            mask = mask.to_numpy_bool()
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise LengthMismatchError("filter mask length does not match column length")
        return type(self)(self.values[mask], self.dtype, self.validity[mask], self.categories)

    def slice(self, offset: int, length: int | None = None) -> "Column":
        stop = len(self) if length is None else min(len(self), offset + length)
        return type(self)(self.values[offset:stop], self.dtype, self.validity[offset:stop],
                          self.categories)

    def head(self, n: int) -> "Column":
        return self.slice(0, n)

    # ------------------------------------------------------------------ #
    # conversion helpers
    # ------------------------------------------------------------------ #
    def to_numpy_float(self) -> np.ndarray:
        """Float view with NaN for nulls (numeric/datetime columns only)."""
        if self.dtype is STRING or self.dtype is CATEGORICAL:
            raise DTypeError(f"cannot view {self.dtype} column as float")
        out = self.values.astype(np.float64)
        out[~self.validity] = np.nan
        return out

    def to_numpy_bool(self) -> np.ndarray:
        """Boolean mask view; nulls count as False (SQL-like semantics)."""
        if self.dtype is not BOOL:
            raise DTypeError("expected a BOOL column")
        return np.asarray(self.values, dtype=bool) & self.validity

    def to_string_array(self) -> np.ndarray:
        """Object array of strings with ``None`` for nulls."""
        if self.dtype is STRING:
            out = self.values.copy()
            out[~self.validity] = None
            return out
        if self.dtype is CATEGORICAL:
            valid = np.asarray(self.validity, dtype=bool)
            out = np.empty(len(self), dtype=object)
            out[valid] = self.categories[self.values[valid]]
            return out
        out = np.empty(len(self), dtype=object)
        for i in range(len(self)):
            out[i] = None if not self.validity[i] else str(self._decode(self.values[i]))
        return out

    def memory_usage(self) -> int:
        """Approximate in-memory footprint in bytes.

        String columns are sized from their actual average length (plus a
        small per-object overhead) so that the simulated dataset sizes track
        the generated data rather than a fixed per-string budget.
        """
        n = len(self)
        if self.dtype is STRING:
            sample = self.values[:1024]
            lengths = [len(v) for v in sample if isinstance(v, str)]
            avg = (sum(lengths) / len(lengths)) if lengths else 8.0
            return int(n * (avg + 16)) + n // 8 + 1
        base = n * self.dtype.itemsize + n // 8 + 1
        if self.dtype is CATEGORICAL and self.categories is not None:
            base += int(sum(len(str(c)) for c in self.categories))
        return base

    # ------------------------------------------------------------------ #
    # sentinel view (DataTable-style encoding)
    # ------------------------------------------------------------------ #
    def to_sentinel(self) -> np.ndarray:
        """Single-buffer representation with sentinel-encoded nulls."""
        if self.dtype is INT64 or self.dtype is DATETIME:
            out = self.values.astype(np.int64).copy()
            out[~self.validity] = _INT_SENTINEL
            return out
        if self.dtype is FLOAT64:
            out = self.values.astype(np.float64).copy()
            out[~self.validity] = _FLOAT_SENTINEL
            return out
        if self.dtype is BOOL:
            out = self.values.astype(np.int8).copy()
            out[~self.validity] = -1
            return out
        out = self.to_string_array()
        out[~self.validity] = _STRING_SENTINEL
        return out

    @classmethod
    def from_sentinel(cls, data: np.ndarray, dtype: DType) -> "Column":
        """Inverse of :meth:`to_sentinel`."""
        dtype = parse_dtype(dtype)
        if dtype is INT64 or dtype is DATETIME:
            validity = data != _INT_SENTINEL
            values = np.where(validity, data, 0).astype(np.int64)
            return cls(values, dtype, validity)
        if dtype is FLOAT64:
            validity = ~np.isnan(data)
            values = np.where(validity, data, 0.0)
            return cls(values, dtype, validity)
        if dtype is BOOL:
            validity = data >= 0
            return cls(np.where(validity, data, 0).astype(bool), BOOL, validity)
        validity = np.array([bool(v) for v in data], dtype=bool)
        values = np.array([v if v else None for v in data], dtype=object)
        return cls(values, STRING, validity)

    # ------------------------------------------------------------------ #
    # casting
    # ------------------------------------------------------------------ #
    def cast(self, dtype: DType | str) -> "Column":
        """Cast to another logical dtype (the ``cast`` preparator)."""
        target = parse_dtype(dtype)
        if target == self.dtype:
            return self.copy()
        if target is STRING:
            return Column(self.to_string_array(), STRING, self.validity.copy())
        if target is CATEGORICAL:
            return Column._encode_categorical(self.to_string_array(), self.validity.copy())
        if self.dtype in (STRING, CATEGORICAL):
            strings = self.to_string_array()
            return Column.from_values(strings.tolist(), target)
        if target is BOOL:
            values = self.values.astype(bool)
            return Column(values, BOOL, self.validity.copy())
        if target in (INT64, DATETIME):
            values = self.values.astype(np.int64)
            return Column(values, target, self.validity.copy())
        if target is FLOAT64:
            values = self.values.astype(np.float64)
            return Column(values, FLOAT64, self.validity.copy())
        raise DTypeError(f"unsupported cast {self.dtype} -> {target}")

    # ------------------------------------------------------------------ #
    # elementwise arithmetic / comparison
    # ------------------------------------------------------------------ #
    def _binary_numeric(self, other: "Column | Any", op: Callable, result_dtype: DType | None) -> "Column":
        if isinstance(other, Column):
            if len(other) != len(self):
                raise LengthMismatchError("binary operation on columns of different lengths")
            validity = self.validity & other.validity
            left = self.values.astype(np.float64)
            right = other.values.astype(np.float64)
            dtype = result_dtype or common_dtype(self.dtype, other.dtype)
        else:
            validity = self.validity.copy()
            left = self.values.astype(np.float64)
            right = float(other)
            dtype = result_dtype or (
                FLOAT64 if isinstance(other, float) or self.dtype is FLOAT64 else self.dtype
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = op(left, right)
        if dtype is BOOL:
            values = np.asarray(raw, dtype=bool)
        elif dtype is FLOAT64:
            values = np.asarray(raw, dtype=np.float64)
            bad = ~np.isfinite(values)
            validity = validity & ~bad
            values = np.where(validity, values, 0.0)
        else:
            values = np.asarray(np.nan_to_num(raw), dtype=numpy_storage_dtype(dtype))
        return Column(values, dtype, validity)

    def _ensure_numeric(self, op_name: str) -> None:
        if self.dtype in (STRING, CATEGORICAL):
            raise DTypeError(f"{op_name} requires a numeric column, got {self.dtype}")

    def add(self, other: "Column | Any") -> "Column":
        self._ensure_numeric("add")
        return self._binary_numeric(other, np.add, None)

    def sub(self, other: "Column | Any") -> "Column":
        self._ensure_numeric("sub")
        return self._binary_numeric(other, np.subtract, None)

    def mul(self, other: "Column | Any") -> "Column":
        self._ensure_numeric("mul")
        return self._binary_numeric(other, np.multiply, None)

    def div(self, other: "Column | Any") -> "Column":
        self._ensure_numeric("div")
        return self._binary_numeric(other, np.divide, FLOAT64)

    def neg(self) -> "Column":
        self._ensure_numeric("neg")
        return self._binary_numeric(-1, np.multiply, None)

    def _compare(self, other: "Column | Any", op: Callable) -> "Column":
        if self.dtype in (STRING, CATEGORICAL) or (
            isinstance(other, Column) and other.dtype in (STRING, CATEGORICAL)
        ) or isinstance(other, str):
            left = self.to_string_array()
            if isinstance(other, Column):
                right = other.to_string_array()
                validity = self.validity & other.validity
            else:
                right = np.full(len(self), str(other), dtype=object)
                validity = self.validity.copy()
            values = np.zeros(len(self), dtype=bool)
            for i in range(len(self)):
                if validity[i]:
                    values[i] = bool(op(left[i], right[i]))
            return Column(values, BOOL, validity)
        return self._binary_numeric(other, op, BOOL)

    def eq(self, other: "Column | Any") -> "Column":
        return self._compare(other, np.equal if not isinstance(other, str) else (lambda a, b: a == b))

    def ne(self, other: "Column | Any") -> "Column":
        out = self.eq(other)
        return Column(~out.values, BOOL, out.validity)

    def lt(self, other: "Column | Any") -> "Column":
        return self._compare(other, np.less if not isinstance(other, str) else (lambda a, b: a < b))

    def le(self, other: "Column | Any") -> "Column":
        return self._compare(other, np.less_equal if not isinstance(other, str) else (lambda a, b: a <= b))

    def gt(self, other: "Column | Any") -> "Column":
        return self._compare(other, np.greater if not isinstance(other, str) else (lambda a, b: a > b))

    def ge(self, other: "Column | Any") -> "Column":
        return self._compare(other, np.greater_equal if not isinstance(other, str) else (lambda a, b: a >= b))

    def logical_and(self, other: "Column") -> "Column":
        return Column(self.to_numpy_bool() & other.to_numpy_bool(), BOOL)

    def logical_or(self, other: "Column") -> "Column":
        return Column(self.to_numpy_bool() | other.to_numpy_bool(), BOOL)

    def logical_not(self) -> "Column":
        return Column(~self.to_numpy_bool(), BOOL)

    def is_in(self, values: Iterable[Any]) -> "Column":
        lookup = set(values)
        out = np.zeros(len(self), dtype=bool)
        for i, v in enumerate(self.to_list()):
            out[i] = v in lookup
        return Column(out, BOOL, self.validity.copy())

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def _valid_floats(self) -> np.ndarray:
        return self.values[self.validity].astype(np.float64)

    def count(self) -> int:
        return int(self.validity.sum())

    def sum(self) -> float:
        self._ensure_numeric("sum")
        vals = self._valid_floats()
        return float(vals.sum()) if len(vals) else 0.0

    def mean(self) -> float | None:
        self._ensure_numeric("mean")
        vals = self._valid_floats()
        return float(vals.mean()) if len(vals) else None

    def min(self) -> Any:
        vals = [v for v in self.to_list() if v is not None]
        return min(vals) if vals else None

    def max(self) -> Any:
        vals = [v for v in self.to_list() if v is not None]
        return max(vals) if vals else None

    def std(self) -> float | None:
        self._ensure_numeric("std")
        vals = self._valid_floats()
        if len(vals) < 2:
            return None
        return float(vals.std(ddof=1))

    def var(self) -> float | None:
        out = self.std()
        return None if out is None else out * out

    def nunique(self) -> int:
        return len({v for v in self.to_list() if v is not None})

    def quantile(self, q: float, approximate: bool = False, sample_size: int = 4096,
                 seed: int = 13) -> float | None:
        """Quantile of the valid values.

        ``approximate=True`` follows the Spark/Polars strategy described in
        the paper for the ``outlier`` preparator: a bounded-size random sample
        is used instead of a full sort, trading a small error for speed.
        """
        self._ensure_numeric("quantile")
        vals = self._valid_floats()
        if len(vals) == 0:
            return None
        if approximate and len(vals) > sample_size:
            rng = np.random.default_rng(seed)
            vals = rng.choice(vals, size=sample_size, replace=False)
        return float(np.quantile(vals, q))

    def unique(self) -> "Column":
        seen: dict[Any, None] = {}
        for v in self.to_list():
            if v is not None and v not in seen:
                seen[v] = None
        return Column.from_values(list(seen.keys()), self.dtype if self.dtype is not CATEGORICAL else STRING)

    def value_counts(self) -> dict[Any, int]:
        counts: dict[Any, int] = {}
        for v in self.to_list():
            if v is None:
                continue
            counts[v] = counts.get(v, 0) + 1
        return counts

    def mode(self) -> Any:
        counts = self.value_counts()
        if not counts:
            return None
        return max(counts.items(), key=lambda kv: (kv[1], str(kv[0])))[0]

    # ------------------------------------------------------------------ #
    # ordering
    # ------------------------------------------------------------------ #
    def _sort_keys(self) -> np.ndarray:
        """Array whose stable argsort orders the valid values ascending.

        Null rows may carry any key; :meth:`sort_indices` regroups them at the
        requested end afterwards.  Backends override this to sort on their
        physical representation (e.g. dictionary codes) instead of decoding.
        """
        if self.dtype in (STRING, CATEGORICAL):
            strings = self.to_string_array()
            return np.array([s if s is not None else "" for s in strings], dtype=object)
        floats = self.values.astype(np.float64).copy()
        floats[~self.validity] = np.inf
        return floats

    def sort_indices(self, ascending: bool = True, nulls_last: bool = True) -> np.ndarray:
        """Stable argsort with nulls grouped at one end."""
        order = np.argsort(self._sort_keys(), kind="stable")
        if not ascending:
            valid_part = order[self.validity[order]]
            null_part = order[~self.validity[order]]
            order = np.concatenate([valid_part[::-1], null_part])
        else:
            valid_part = order[self.validity[order]]
            null_part = order[~self.validity[order]]
            order = np.concatenate([valid_part, null_part])
        if not nulls_last:
            valid_part = order[self.validity[order]]
            null_part = order[~self.validity[order]]
            order = np.concatenate([null_part, valid_part])
        return order

    # ------------------------------------------------------------------ #
    # value replacement / normalization
    # ------------------------------------------------------------------ #
    def replace(self, mapping: dict[Any, Any]) -> "Column":
        """Replace occurrences of keys with values (the ``replace`` preparator)."""
        out = self.to_list()
        changed = False
        for i, v in enumerate(out):
            if v in mapping:
                out[i] = mapping[v]
                changed = True
        if not changed:
            return self.copy()
        dtype = self.dtype if self.dtype is not CATEGORICAL else STRING
        try:
            return Column.from_values(out, dtype)
        except DTypeError:
            return Column.from_values(out)

    def clip(self, lower: float | None = None, upper: float | None = None) -> "Column":
        self._ensure_numeric("clip")
        values = self.values.astype(np.float64).copy()
        if lower is not None:
            values = np.maximum(values, lower)
        if upper is not None:
            values = np.minimum(values, upper)
        dtype = FLOAT64 if self.dtype is FLOAT64 else self.dtype
        return Column(values.astype(numpy_storage_dtype(dtype)), dtype, self.validity.copy())

    def normalize(self, method: str = "minmax") -> "Column":
        """Normalize numeric values (the ``norm`` preparator).

        ``minmax`` rescales into [0, 1]; ``zscore`` standardizes to zero mean
        and unit variance.  Constant columns map to 0.0.
        """
        self._ensure_numeric("normalize")
        vals = self.to_numpy_float()
        valid = self.validity
        out = np.zeros(len(self), dtype=np.float64)
        if valid.any():
            src = vals[valid]
            if method == "minmax":
                lo, hi = float(np.nanmin(src)), float(np.nanmax(src))
                span = hi - lo
                out[valid] = 0.0 if span == 0 else (src - lo) / span
            elif method == "zscore":
                mu, sigma = float(np.nanmean(src)), float(np.nanstd(src))
                out[valid] = 0.0 if sigma == 0 else (src - mu) / sigma
            else:
                raise ValueError(f"unknown normalization method {method!r}")
        return Column(out, FLOAT64, valid.copy())

    def apply(self, func: Callable[[Any], Any], dtype: DType | str | None = None) -> "Column":
        """Apply a Python function to every non-null value (the ``edit`` preparator)."""
        out = [func(v) if v is not None else None for v in self.to_list()]
        return Column.from_values(out, dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(v) for v in self.to_list()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.dtype}, n={len(self)}, nulls={self.null_count()}>[{preview}{suffix}]"


# --------------------------------------------------------------------------- #
# "object" reference backend registration
# --------------------------------------------------------------------------- #
def _build_object_string(values: np.ndarray, validity: np.ndarray) -> Column:
    return Column(values, STRING, validity)


def _build_object_any(values: np.ndarray, dtype: DType, validity: np.ndarray,
                      categories: np.ndarray | None = None) -> Column:
    return Column(values, dtype, validity, categories)


ColumnFactory.register((STRING.typecode, OBJECT_BACKEND), _build_object_string)
ColumnFactory.register((WILDCARD, OBJECT_BACKEND), _build_object_any)
