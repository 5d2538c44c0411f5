"""The member enumerator: a dimension set's members listed as distinct int8
exponent rows, the oracle the tests hold the closed-form verifier to.

The enumerator shares no code with the closed form: it writes each set's
`Monomial` rows as an int8 pattern matrix over the sorted names the rows
use, and lists the image of the box under it.  Whole rows compare as
fixed-width byte strings, so sorting and deduplicating them is one
np.unique over a void view.
"""
import numpy as np

from sdof.errors import CapacityError
from sdof.interference_sets import DimensionSet
from sdof.monomial import Monomial

# exponent rows one set may enumerate; a row costs K^2 + K + 1 bytes plus
# sorting scratch, and the largest set of (4, 2) holds 4.8M
MEMBER_ROW_BUDGET = 30_000_000


def box_image(pattern: np.ndarray, top: int) -> np.ndarray:
    """Rows e @ pattern for every e in {1..top}^s, one free exponent at a
    time, the first varying slowest (itertools.product order)."""
    # int8 must hold every row and its shift by one generator
    reach = int(np.abs(pattern).sum(axis=0).max()) * top + 1
    if reach > 127:
        raise CapacityError(f"exponents up to {reach} overflow int8 rows")
    values = np.arange(1, top + 1, dtype=np.int8)[:, None]
    width = pattern.shape[1]
    rows = np.zeros((1, width), np.int8)
    for step in pattern:
        rows = (rows[:, None, :] + values * step).reshape(-1, width)
    return rows


def generators(dset: DimensionSet) -> tuple[str, ...]:
    """The sorted names the set's rows use: the columns of its pattern."""
    return tuple(sorted({n for row in dset.rows for n, _ in row.exponents}))


def pattern(dset: DimensionSet) -> np.ndarray:
    """The int8 pattern matrix: one row per set row, one column per name."""
    column = {g: c for c, g in enumerate(generators(dset))}
    out = np.zeros((len(dset.rows), len(column)), np.int8)
    for r, row in enumerate(dset.rows):
        for n, e in row.exponents:
            out[r, column[n]] = e
    return out


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int8 row as one fixed-width byte string (a view, no copy)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).reshape(len(rows))


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted by their bytes."""
    keys = np.unique(row_keys(rows))
    return keys.view(np.int8).reshape(len(keys), rows.shape[1])


def rows(dset: DimensionSet) -> np.ndarray:
    """The members as distinct int8 exponent rows over generators(dset),
    sorted by their bytes, enumerated on every call and refused above
    MEMBER_ROW_BUDGET."""
    if dset.size > MEMBER_ROW_BUDGET:
        raise CapacityError(f"{dset.label} has {dset.size} members, over budget "
                            f"{MEMBER_ROW_BUDGET} exponent rows")
    return distinct_rows(box_image(pattern(dset), dset.top))


def members(dset: DimensionSet) -> frozenset[Monomial]:
    return frozenset(Monomial.from_dict(dict(zip(generators(dset), row)))
                     for row in rows(dset).tolist())
