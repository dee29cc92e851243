"""Hash-join kernel for the substrate.

Implements inner / left / right / outer / semi / anti equi-joins on one or
more key columns.  The build side is always the right frame (a hash table
from key tuple to row indices), the probe side the left frame — the classic
strategy used by Polars, CuDF and Spark for equi-joins.

Two physical kernels compute the output row indices with the same
semantics:

* the **reference** kernel (``"object"`` backend): a Python dict from key
  tuples to row lists, probed row by row — simple, and the behavioural
  oracle the property tests compare against.  The probe stays row-at-a-time
  on purpose: its loop *defines* the output row order;
* the **vectorized** kernel (``"dict"`` backend, or whenever a key column is
  dictionary-encoded): each key-column pair is factorized to shared int64
  codes (dictionary columns merge their sorted value tables with a
  ``searchsorted`` instead of re-hashing the strings), multi-column keys fold
  with mixed-radix combination + compression, and the probe is a stable
  argsort of the build side plus two ``searchsorted`` range lookups — no
  per-row Python at all.  Row ordering reproduces the reference kernel
  exactly: probe rows in left order, matches in right-row order, unmatched
  right rows appended ascending for outer joins.

Both kernels emit int64 index arrays (``-1`` = null row) and share one
buffer-level gather, :func:`_take_with_nulls`, which takes every output
column straight from the input column's ``values``/``validity`` buffers.

Column-name collisions on non-key columns are resolved with a ``_right``
suffix, matching the Pandas convention Bento relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backends import DICT_BACKEND, active_backend
from .column import Column
from .dictionary import DictStringColumn
from .dtypes import CATEGORICAL, FLOAT64, STRING
from .errors import JoinError

__all__ = ["hash_join"]

_VALID_HOW = ("inner", "left", "right", "outer", "semi", "anti")


def _key_tuples(frame, keys: Sequence[str]) -> list[tuple]:
    lists = [frame[k].to_list() for k in keys]
    return list(zip(*lists)) if lists else []


def _build_table(keys: list[tuple]) -> dict[tuple, list[int]]:
    table: dict[tuple, list[int]] = {}
    for idx, key in enumerate(keys):
        table.setdefault(key, []).append(idx)
    return table


def _reference_indices(left, right, left_on: Sequence[str], right_on: Sequence[str],
                       how: str) -> tuple[np.ndarray, np.ndarray]:
    """Output row indices (``-1`` = null row) from the row-at-a-time probe."""
    left_keys = _key_tuples(left, left_on)
    right_keys = _key_tuples(right, right_on)
    table = _build_table(right_keys)

    left_idx: list[int] = []
    right_idx: list[int] = []
    if how in ("inner", "left", "outer"):
        matched_right: set[int] = set()
        for i, key in enumerate(left_keys):
            matches = table.get(key) if None not in key else None
            if matches:
                for j in matches:
                    left_idx.append(i)
                    right_idx.append(j)
                    matched_right.add(j)
            elif how in ("left", "outer"):
                left_idx.append(i)
                right_idx.append(-1)
        if how == "outer":
            for j in range(len(right_keys)):
                if j not in matched_right:
                    left_idx.append(-1)
                    right_idx.append(j)
    else:  # semi / anti
        for i, key in enumerate(left_keys):
            has_match = None not in key and key in table
            if (how == "semi") == has_match:
                left_idx.append(i)
                right_idx.append(-1)
    return np.array(left_idx, dtype=np.int64), np.array(right_idx, dtype=np.int64)


# --------------------------------------------------------------------------- #
# vectorized kernel
# --------------------------------------------------------------------------- #
def _pair_codes(lcol: Column, rcol: Column) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one key-column pair into shared int64 codes (``-1`` = null).

    Equal values on the two sides receive equal codes; null keys never match
    anything (the reference kernel's ``None not in key`` rule).
    """
    lvalid = np.asarray(lcol.validity, dtype=bool)
    rvalid = np.asarray(rcol.validity, dtype=bool)
    lcodes = np.full(len(lcol), -1, dtype=np.int64)
    rcodes = np.full(len(rcol), -1, dtype=np.int64)
    if isinstance(lcol, DictStringColumn) and isinstance(rcol, DictStringColumn):
        # merge the two sorted value tables instead of re-hashing the strings
        merged = np.unique(np.concatenate([lcol.categories, rcol.categories]))
        if len(lcol.categories):
            lmap = np.searchsorted(merged, lcol.categories).astype(np.int64)
            lcodes[lvalid] = lmap[lcol.values[lvalid]]
        if len(rcol.categories):
            rmap = np.searchsorted(merged, rcol.categories).astype(np.int64)
            rcodes[rvalid] = rmap[rcol.values[rvalid]]
        return lcodes, rcodes
    if lcol.dtype in (STRING, CATEGORICAL) or rcol.dtype in (STRING, CATEGORICAL):
        lvals = lcol.to_string_array()[lvalid]
        rvals = rcol.to_string_array()[rvalid]
    else:
        lvals, rvals = lcol.values, rcol.values
        if lvals.dtype != rvals.dtype:
            # cross-storage numeric keys (int vs float/bool) compare by value
            lvals = lvals.astype(np.float64)
            rvals = rvals.astype(np.float64)
        lvals, rvals = lvals[lvalid], rvals[rvalid]
    pool = np.concatenate([lvals, rvals])
    if pool.size:
        _, inverse = np.unique(pool, return_inverse=True)
        inverse = inverse.astype(np.int64)
        nl = int(lvalid.sum())
        lcodes[lvalid] = inverse[:nl]
        rcodes[rvalid] = inverse[nl:]
    return lcodes, rcodes


def _fold_codes(left, right, left_on: Sequence[str], right_on: Sequence[str]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-column code pairs into one int64 key per row."""
    lkey, rkey = _pair_codes(left[left_on[0]], right[right_on[0]])
    for lname, rname in zip(left_on[1:], right_on[1:]):
        lc, rc = _pair_codes(left[lname], right[rname])
        lnull = (lkey < 0) | (lc < 0)
        rnull = (rkey < 0) | (rc < 0)
        card = max(int(lc.max(initial=-1)), int(rc.max(initial=-1))) + 1
        card = max(card, 1)
        lkey = lkey * card + np.where(lc < 0, 0, lc)
        rkey = rkey * card + np.where(rc < 0, 0, rc)
        # compress after every fold so magnitudes stay < n and never overflow
        pool = np.concatenate([lkey[~lnull], rkey[~rnull]])
        lnew = np.full(len(lkey), -1, dtype=np.int64)
        rnew = np.full(len(rkey), -1, dtype=np.int64)
        if pool.size:
            _, inverse = np.unique(pool, return_inverse=True)
            inverse = inverse.astype(np.int64)
            nl = int((~lnull).sum())
            lnew[~lnull] = inverse[:nl]
            rnew[~rnull] = inverse[nl:]
        lkey, rkey = lnew, rnew
    return lkey, rkey


def _probe_indices(lkey: np.ndarray, rkey: np.ndarray, how: str
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Output row indices (``-1`` = null row) reproducing reference ordering."""
    nl, nr = len(lkey), len(rkey)
    order = np.argsort(rkey, kind="stable")
    sorted_keys = rkey[order]
    starts = np.searchsorted(sorted_keys, lkey, side="left")
    ends = np.searchsorted(sorted_keys, lkey, side="right")
    lvalid = lkey >= 0  # null left keys probe nothing (and never hit right nulls)
    counts = np.where(lvalid, ends - starts, 0)
    matched = counts > 0
    if how in ("semi", "anti"):
        keep = matched if how == "semi" else ~matched
        left_idx = np.flatnonzero(keep).astype(np.int64)
        return left_idx, np.full(len(left_idx), -1, dtype=np.int64)
    emit = counts.astype(np.int64)
    if how in ("left", "outer"):
        emit = np.where(matched, emit, 1)
    total = int(emit.sum())
    left_idx = np.repeat(np.arange(nl, dtype=np.int64), emit)
    if nr == 0:
        right_idx = np.full(total, -1, dtype=np.int64)
    else:
        group_start = np.cumsum(emit) - emit
        offsets = np.arange(total, dtype=np.int64) - np.repeat(group_start, emit)
        base = np.repeat(np.where(matched, starts, 0), emit) + offsets
        right_idx = order[base].astype(np.int64)
        right_idx[np.repeat(~matched, emit)] = -1
    if how == "outer":
        seen = np.zeros(nr, dtype=bool)
        seen[right_idx[right_idx >= 0]] = True
        extra = np.flatnonzero(~seen).astype(np.int64)
        left_idx = np.concatenate([left_idx, np.full(len(extra), -1, dtype=np.int64)])
        right_idx = np.concatenate([right_idx, extra])
    return left_idx, right_idx


def _take_with_nulls(column: Column, indices: np.ndarray) -> Column:
    """Gather rows by index; ``-1`` indices produce null rows.

    The result is what ``Column.from_values`` builds from the gathered Python
    values (see :meth:`Column._from_storage`), taken from the buffers.
    """
    missing = indices < 0
    if len(column) == 0:
        # gathering from an empty side: every index is -1 (or there are none)
        dtype = column.dtype if column.dtype is not CATEGORICAL else FLOAT64
        return Column.full_null(len(indices), dtype)
    safe = np.where(missing, 0, indices)
    validity = np.asarray(column.validity, dtype=bool)[safe] & ~missing
    if column.dtype is CATEGORICAL:
        # gathered categoricals are re-inferred from their strings (STRING,
        # or FLOAT64 when every gathered row is null)
        strings = column.to_string_array()[safe]
        strings[~validity] = None
        return Column.from_values(strings, None)
    if isinstance(column, DictStringColumn):
        codes = np.where(validity, column.values[safe], -1).astype(np.int32)
        return DictStringColumn(codes, STRING, validity, column.categories.copy())
    return Column._from_storage(column.values[safe], column.dtype, validity)


def _use_vectorized(left, right, left_on: Sequence[str], right_on: Sequence[str]) -> bool:
    if active_backend() == DICT_BACKEND:
        return True
    return any(isinstance(left[k], DictStringColumn) for k in left_on) or any(
        isinstance(right[k], DictStringColumn) for k in right_on)


def hash_join(
    left,
    right,
    left_on: Sequence[str],
    right_on: Sequence[str] | None = None,
    how: str = "inner",
    suffix: str = "_right",
):
    """Join two DataFrames on equality of key columns.

    Parameters mirror the ``join`` preparator: ``left_on``/``right_on`` name
    the key columns on each side, ``how`` selects the join type and ``suffix``
    disambiguates clashing non-key column names from the right side.
    """
    from .frame import DataFrame

    if how not in _VALID_HOW:
        raise JoinError(f"unknown join type {how!r}; expected one of {_VALID_HOW}")
    right_on = list(right_on) if right_on is not None else list(left_on)
    left_on = list(left_on)
    if len(left_on) != len(right_on):
        raise JoinError("left_on and right_on must have the same number of key columns")
    for name in left_on:
        if name not in left.columns:
            raise JoinError(f"left join key {name!r} not in left frame")
    for name in right_on:
        if name not in right.columns:
            raise JoinError(f"right join key {name!r} not in right frame")

    if how == "right":
        # implemented as a left join with sides swapped, then reordered
        return hash_join(right, left, right_on, left_on, how="left", suffix=suffix)

    if _use_vectorized(left, right, left_on, right_on):
        lkey, rkey = _fold_codes(left, right, left_on, right_on)
        left_idx, right_idx = _probe_indices(lkey, rkey, how)
    else:
        left_idx, right_idx = _reference_indices(left, right, left_on, right_on, how)

    data: dict[str, Column] = {}
    for name in left.columns:
        data[name] = _take_with_nulls(left[name], left_idx)

    if how not in ("semi", "anti"):
        key_map = dict(zip(right_on, left_on))
        for name in right.columns:
            if name in key_map and key_map[name] == name:
                # identical key column name already provided by the left side
                continue
            out_name = name
            if out_name in data:
                out_name = f"{name}{suffix}"
            if out_name in data:
                raise JoinError(f"cannot disambiguate output column {name!r}")
            data[out_name] = _take_with_nulls(right[name], right_idx)

    return DataFrame(data)
