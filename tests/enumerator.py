"""The member enumerator: a dimension set's members listed as distinct int8
exponent rows, the oracle the tests hold the closed-form verifier to.

Whole rows compare as fixed-width byte strings, so sorting and
deduplicating them is one np.unique over a void view.
"""
import numpy as np

from sdof.errors import CapacityError
from sdof.interference_sets import DimensionSet
from sdof.monomial import Monomial, box_image

# exponent rows one set may enumerate; a row costs K^2 + K + 1 bytes plus
# sorting scratch, and the largest set of (4, 2) holds 4.8M
MEMBER_ROW_BUDGET = 30_000_000


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each int8 row as one fixed-width byte string (a view, no copy)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).reshape(len(rows))


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, sorted by their bytes."""
    keys = np.unique(row_keys(rows))
    return keys.view(np.int8).reshape(len(keys), rows.shape[1])


def rows(dset: DimensionSet) -> np.ndarray:
    """The members as distinct int8 exponent rows sorted by their bytes,
    enumerated on every call and refused above MEMBER_ROW_BUDGET."""
    if dset.size > MEMBER_ROW_BUDGET:
        raise CapacityError(f"{dset.label} has {dset.size} members, over budget "
                            f"{MEMBER_ROW_BUDGET} exponent rows")
    return distinct_rows(box_image(dset.pattern, dset.top))


def members(dset: DimensionSet) -> frozenset[Monomial]:
    return frozenset(Monomial.from_dict(dict(zip(dset.generators, row)))
                     for row in rows(dset).tolist())
