"""Scalar gain oracles: per-candidate reference evaluators of a FLOC state.

Production scoring goes through the lanes of
:mod:`repro.core.gain_engine`.  These free functions of a
:class:`~repro.core.floc._State` are the per-slot scalar forms the lanes
replaced, kept as test oracles: ``exact_candidate`` rescans the
candidate submatrix (the paper-literal Section 4.1 evaluation),
``fast_candidate`` / ``_candidate_parts`` fold one toggled line into a
cluster with frozen bases, and ``candidate_parts_batch`` does that fold
for one slot against all ``k`` clusters at once.  The engine's lanes are
checked against them -- bitwise for the estimate lane, to float
tolerance for the exact lane.
"""

from typing import Tuple

import numpy as np

from repro.core.actions import ROW, evaluate_toggle
from repro.core.floc import _State

__all__ = [
    "candidate_parts_batch",
    "exact_candidate",
    "fast_candidate",
]


def exact_candidate(state: _State, kind: str, index: int, c: int) -> Tuple[float, int]:
    residue, volume = evaluate_toggle(
        state.values, state.row_member[c], state.col_member[c], kind, index
    )
    w = state.work
    if w is not None:
        w.residue_evals += 1
        w.toggle_evals += 1
        w.cells_scanned += volume
    return residue, volume


def fast_candidate(state: _State, kind: str, index: int, c: int) -> Tuple[float, int]:
    """O(m) / O(n) residue estimate after toggling ``index`` in ``c``.

    Freezes the cluster's bases and folds the toggled line's residue
    contribution in (addition) or out (removal) of the volume-weighted
    mean.
    """
    new_residue, new_volume, _ = _candidate_parts(state, kind, index, c)
    return new_residue, new_volume


def candidate_parts_batch(
    state: _State, kind: str, index: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_candidate_parts` across ALL k clusters.

    One (k x N) / (k x M) pass instead of k separate O(m) calls --
    the per-slot form the engine's estimate lane transposed.  Returns ``(new_residues, new_volumes,
    line_residues, line_counts, widths)`` arrays of length k; the
    first three are numerically identical to the per-cluster path,
    ``line_counts`` is the number of specified entries the toggled
    line has on each cluster, and ``widths`` the cluster's extent
    along the toggled line (member column count for a row toggle) --
    exposed for missingness-aware admission experiments (see
    :func:`repro.core.floc._gain`'s docstring for the rejected variant).
    """
    if kind == ROW:
        member = state.col_member                     # (k, N)
        line_values = state.values[index]             # (N,)
        line_mask = state.mask[index]
        base_sums = state.col_sums                    # (k, N)
        base_counts = state.col_counts
        line_sums = state.row_sums[:, index]          # (k,)
        line_counts = state.row_counts[:, index]
        line_counts_f = state.row_counts_f[:, index]
        removing = state.row_member[:, index]
    else:
        member = state.row_member                     # (k, M)
        line_values = state.values[:, index]
        line_mask = state.mask[:, index]
        base_sums = state.row_sums
        base_counts = state.row_counts
        line_sums = state.col_sums[:, index]
        line_counts = state.col_counts[:, index]
        line_counts_f = state.col_counts_f[:, index]
        removing = state.col_member[:, index]

    # Cached float views: no astype conversions on the hot path.
    volumes = state.volumes_f
    residues = state.residues

    # All denominators are >= 1 by construction, so no errstate
    # context is needed anywhere on this path.
    line_base = line_sums / np.maximum(line_counts_f, 1.0)
    cross_base = np.where(
        base_counts > 0,
        base_sums / np.maximum(base_counts, 1),
        0.0,
    )
    totals = (base_sums * member).sum(axis=1)
    counts = (base_counts * member).sum(axis=1)
    grand = np.where(counts > 0, totals / np.maximum(counts, 1), 0.0)

    filled_line = np.where(line_mask, line_values, 0.0)
    deviations = np.abs(
        filled_line[None, :]
        - line_base[:, None]
        - cross_base
        + grand[:, None]
    )
    relevant = member & line_mask[None, :]
    line_residues = np.where(relevant, deviations, 0.0).sum(axis=1)
    line_residues = np.where(
        line_counts > 0, line_residues / np.maximum(line_counts_f, 1.0), 0.0
    )

    add_volumes = volumes + line_counts_f
    remove_volumes = volumes - line_counts_f
    add_residues = (
        volumes * residues + line_counts_f * line_residues
    ) / np.maximum(add_volumes, 1.0)
    remove_residues = np.maximum(
        (volumes * residues - line_counts_f * line_residues)
        / np.maximum(remove_volumes, 1.0),
        0.0,
    )
    new_volumes = np.where(removing, remove_volumes, add_volumes)
    new_residues = np.where(removing, remove_residues, add_residues)

    # Toggling a fully-missing line never changes anything.
    untouched = line_counts == 0
    new_volumes = np.where(untouched, volumes, new_volumes)
    new_residues = np.where(untouched, residues, new_residues)
    # Removing the whole volume empties the cluster.
    emptied = removing & ~untouched & (remove_volumes <= 0)
    new_volumes = np.where(emptied, 0.0, new_volumes)
    new_residues = np.where(emptied, 0.0, new_residues)
    line_residues = np.where(untouched | emptied, 0.0, line_residues)
    widths = member.sum(axis=1)
    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.toggle_evals += state.k
        w.cells_scanned += int(line_counts.sum())
    return (
        new_residues,
        new_volumes.astype(np.int64),
        line_residues,
        line_counts,
        widths,
    )


def _candidate_parts(
    state: _State, kind: str, index: int, c: int
) -> Tuple[float, int, float]:
    """(new_residue, new_volume, line_residue) of one candidate toggle."""
    volume = int(state.volumes[c])
    residue = float(state.residues[c])
    w = state.work
    if w is not None:
        w.toggle_evals += 1
        w.cells_scanned += int(
            state.row_counts[c, index] if kind == ROW
            else state.col_counts[c, index]
        )
    if kind == ROW:
        member_axis = state.col_member[c]
        line_values = state.values[index, member_axis]
        base_sums = state.col_sums[c, member_axis]
        base_counts = state.col_counts[c, member_axis]
        line_sum = float(state.row_sums[c, index])
        line_count = int(state.row_counts[c, index])
        removing = bool(state.row_member[c, index])
    else:
        member_axis = state.row_member[c]
        line_values = state.values[member_axis, index]
        base_sums = state.row_sums[c, member_axis]
        base_counts = state.row_counts[c, member_axis]
        line_sum = float(state.col_sums[c, index])
        line_count = int(state.col_counts[c, index])
        removing = bool(state.col_member[c, index])

    if line_count == 0:
        # Toggling a fully-missing line never changes the residue.
        return residue, volume, 0.0
    if removing and volume - line_count <= 0:
        return 0.0, 0, 0.0

    line_mask = ~np.isnan(line_values)
    line_base = line_sum / line_count
    with np.errstate(invalid="ignore"):
        cross_base = np.where(
            base_counts > 0, base_sums / np.maximum(base_counts, 1), 0.0
        )
    total = float(base_sums.sum())
    count = int(base_counts.sum())
    grand = total / count if count else 0.0
    deviations = np.abs(line_values - line_base - cross_base + grand)
    line_residue = float(deviations[line_mask].sum()) / line_count
    if removing:
        new_volume = volume - line_count
        new_residue = max(
            (volume * residue - line_count * line_residue) / new_volume, 0.0
        )
    else:
        new_volume = volume + line_count
        new_residue = (volume * residue + line_count * line_residue) / new_volume
    return new_residue, new_volume, line_residue
