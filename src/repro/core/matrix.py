"""Data matrix substrate with first-class missing values.

The delta-cluster model (Yang et al., ICDE 2002, Section 3) operates on an
``M x N`` matrix ``D`` whose rows are objects and whose columns are
attributes.  Entries may be *unspecified* (a viewer who never rated a movie,
a gene never measured under a condition).  This module provides
:class:`DataMatrix`, a thin, validated wrapper around a float ``numpy``
array in which ``NaN`` marks a missing entry, plus the handful of
whole-matrix transforms the paper relies on (e.g. the logarithm transform
that turns amplification coherence into shifting coherence).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["DataMatrix"]

#: Weight per matrix cell that FLOC's r-residue score puts on a relative
#: residue excess (``repro.core.floc._score``), so any excess outweighs
#: any volume difference.  It also sets the magnitude bound below.
_SCORE_WEIGHT_PER_CELL = 1e6

#: ``|entry| * _SCORE_WEIGHT_PER_CELL * cells`` must stay below this.
#: ``sqrt`` of the float maximum (~1.3e154) leaves the same margin again
#: for the score's ``k / target`` factor and for squared residues.
_MAGNITUDE_BUDGET = float(np.sqrt(np.finfo(np.float64).max))


class DataMatrix:
    """An ``M x N`` real-valued matrix in which ``NaN`` means "unspecified".

    Parameters
    ----------
    values:
        Anything convertible to a 2-D ``float64`` array.  ``NaN`` entries
        are treated as missing.  The array is copied so later mutation of
        the caller's buffer cannot corrupt the matrix.  Specified entries
        must satisfy ``|d| <= 1.3e154 / (1e6 * n_rows * n_cols)`` (about
        2.8e145 for a 40x12 matrix) so the residue arithmetic and FLOC's
        score, which weights residue excess by ``1e6`` per cell, cannot
        overflow; rescale larger data first.
    row_labels, col_labels:
        Optional human-readable names (e.g. gene names, movie titles).
        Lengths must match the matrix shape when given.

    Examples
    --------
    >>> m = DataMatrix([[1.0, 2.0], [float("nan"), 4.0]])
    >>> m.shape
    (2, 2)
    >>> m.n_specified
    3
    """

    def __init__(
        self,
        values: Iterable,
        row_labels: Optional[Sequence[str]] = None,
        col_labels: Optional[Sequence[str]] = None,
    ) -> None:
        array = np.array(values, dtype=np.float64, copy=True)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got ndim={array.ndim}")
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ValueError(f"matrix must be non-empty, got shape {array.shape}")
        if np.isinf(array).any():
            raise ValueError("matrix entries must be finite or NaN (missing)")
        mask = ~np.isnan(array)
        bound = _MAGNITUDE_BUDGET / (_SCORE_WEIGHT_PER_CELL * array.size)
        if np.abs(array[mask]).max(initial=0.0) > bound:
            raise ValueError(
                f"matrix entries must have magnitude <= {bound:.3g} for a "
                f"{array.shape[0]}x{array.shape[1]} matrix (the residue "
                "score would overflow); rescale the data"
            )
        self._values = array
        self._mask = mask
        self._row_labels = self._check_labels(row_labels, array.shape[0], "row")
        self._col_labels = self._check_labels(col_labels, array.shape[1], "col")

    @staticmethod
    def _check_labels(
        labels: Optional[Sequence[str]], expected: int, kind: str
    ) -> Optional[tuple]:
        if labels is None:
            return None
        labels = tuple(str(label) for label in labels)
        if len(labels) != expected:
            raise ValueError(
                f"{kind}_labels has {len(labels)} entries, expected {expected}"
            )
        return labels

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying ``float64`` array (``NaN`` = missing).

        The array is shared, not copied; callers must treat it as
        read-only.  Algorithms in this package index it heavily, so
        handing out a view keeps the hot paths allocation-free.
        """
        return self._values

    @property
    def mask(self) -> np.ndarray:
        """Boolean array, ``True`` where the entry is specified."""
        return self._mask

    @property
    def shape(self) -> tuple:
        return self._values.shape

    @property
    def n_rows(self) -> int:
        """Number of objects (``M`` in the paper)."""
        return self._values.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of attributes (``N`` in the paper)."""
        return self._values.shape[1]

    @property
    def n_specified(self) -> int:
        """Number of specified (non-missing) entries in the whole matrix."""
        return int(self._mask.sum())

    @property
    def density(self) -> float:
        """Fraction of entries that are specified, in ``[0, 1]``."""
        return self.n_specified / self._values.size

    @property
    def row_labels(self) -> Optional[tuple]:
        return self._row_labels

    @property
    def col_labels(self) -> Optional[tuple]:
        return self._col_labels

    # ------------------------------------------------------------------
    # Slicing / transforms
    # ------------------------------------------------------------------
    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Return a copy of the submatrix selected by ``rows`` x ``cols``.

        The result is a plain array (with ``NaN`` for missing entries);
        use it for inspection and tests, not for the hot algorithm paths
        which index :attr:`values` directly.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        return self._values[np.ix_(rows, cols)]

    def row_occupancy(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Per-row fraction of specified entries within ``rows`` x ``cols``.

        This is the quantity ``|J'_i| / |J|`` from Definition 3.1.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if len(cols) == 0:
            return np.ones(len(rows))
        sub_mask = self._mask[np.ix_(rows, cols)]
        return sub_mask.sum(axis=1) / len(cols)

    def col_occupancy(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Per-column fraction of specified entries within ``rows`` x ``cols``.

        This is the quantity ``|I'_j| / |I|`` from Definition 3.1.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if len(rows) == 0:
            return np.ones(len(cols))
        sub_mask = self._mask[np.ix_(rows, cols)]
        return sub_mask.sum(axis=0) / len(rows)

    def log_transform(self, offset: float = 0.0) -> "DataMatrix":
        """Return ``log(values + offset)`` as a new matrix.

        Section 3 of the paper: amplification (multiplicative) coherence
        reduces to shifting (additive) coherence after taking logarithms.
        All specified entries must be positive after the offset is added.
        """
        shifted = self._values + offset
        specified = shifted[self._mask]
        if (specified <= 0).any():
            raise ValueError(
                "log_transform requires all specified entries to be positive; "
                "pass a larger offset"
            )
        out = np.full_like(self._values, np.nan)
        out[self._mask] = np.log(specified)
        return DataMatrix(out, self._row_labels, self._col_labels)

    def with_mask(self, keep: np.ndarray) -> "DataMatrix":
        """Return a copy where entries with ``keep == False`` become missing."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self._values.shape:
            raise ValueError(
                f"keep mask shape {keep.shape} != matrix shape {self._values.shape}"
            )
        out = np.where(keep, self._values, np.nan)
        return DataMatrix(out, self._row_labels, self._col_labels)

    def drop_missing_rows(self, min_fraction: float) -> "DataMatrix":
        """Return a matrix keeping only rows specified on >= ``min_fraction``."""
        frac = self._mask.sum(axis=1) / self.n_cols
        keep = np.flatnonzero(frac >= min_fraction)
        if len(keep) == 0:
            raise ValueError("no rows survive the occupancy filter")
        labels = None
        if self._row_labels is not None:
            labels = [self._row_labels[i] for i in keep]
        return DataMatrix(self._values[keep], labels, self._col_labels)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"DataMatrix(shape={self.shape}, "
            f"specified={self.n_specified}/{self._values.size})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        both_missing = ~self._mask & ~other._mask
        both_equal = np.isclose(self._values, other._values, equal_nan=True)
        return bool(np.all(both_missing | both_equal))

    def __hash__(self) -> int:  # matrices are mutable-ish: not hashable
        raise TypeError("DataMatrix is not hashable")
