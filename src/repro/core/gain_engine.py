"""Sweep-level batched gain engine: vectorised action scoring for FLOC.

Phase 2 consults one gain per (slot, cluster) pair -- up to k * (M + N)
candidate toggles per sweep.  Scoring each candidate with its own scalar
call (a full-submatrix rescan, or a per-slot frozen-bases fold) leaves
nearly all wall time in per-action Python loops.  This module scores in
*lanes* instead: one lane is the vector of scores of **every slot of one
kind against one cluster**, produced in a handful of NumPy passes.

Three layers (see DESIGN.md section "Batched gain engine"):

**Scoring functions** (:func:`estimate_lane`, :func:`exact_lane`)
    Plain functions of the state's per-cluster sufficient statistics
    under the paper's one measure, the mean absolute residue.  The
    *estimate* lane freezes the cluster's bases (cheap; action ordering
    and fast-mode moves); the *exact* lane is the true after-toggle
    residue derived from the incremental statistics -- no submatrix
    rescan.  :func:`exact_context` and :func:`exact_one` split the exact
    lane into its candidate-independent half and a single-candidate
    evaluation that is bit-identical to the lane's entry.

**Vectorised policy** (:func:`gain_lane`, the blocking masks)
    Array forms of FLOC's ``_gain`` branch ladder and of the cheap
    (cluster-local) constraint checks, so a lane of raw scores becomes a
    lane of gains with blocked entries at ``-inf`` in O(S) vector work.

**The engine** (:class:`GainEngine`)
    Caches lanes per (kind, cluster) and invalidates them by comparing
    the state's per-cluster modification stamps -- a performed action
    dirties only the acted cluster's lanes, so a sweep costs a few lane
    builds instead of k * (M + N) scalar evaluations, while every
    consult still scores against the *current* state (sequential
    semantics are preserved bit for bit; the paranoia-mode test in
    ``tests/test_gain_engine.py`` rebuilds every lane at every consult
    and checks the full run is identical).

Cross-cluster constraints (Cons_o overlap, Cons_c coverage) and the
exact alpha-occupancy check depend on *other* clusters' state, so they
cannot live in a per-cluster lane cache: the engine applies them at
consult time, walking candidates in descending-gain order and verifying
only the few that could win.  At ordering time the state is frozen, so
they are applied as whole-lane vector masks instead.

The exact lane's core trick: with row means fixed under a row toggle,
the after-toggle deviation sum of a member column ``j`` is the sum of
absolute deviations of its centred residuals ``E_rj = d_rj - a_r``
about a candidate-specific pivot ``t'_j = b'_j - g'``.  Sorting each
column's residuals once per lane (with prefix sums) answers that for
every candidate via ``searchsorted`` in O(log n) -- the O(n*m) rescan
per candidate becomes O(n*m*log n) per *lane*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import NULL_TRACER, Tracer
from .actions import BLOCKED_GAIN, COL, ROW, toggle_occupancy_ok
from .constraints import Constraints

if TYPE_CHECKING:  # circular at runtime: floc imports this module
    from .floc import _State

__all__ = [
    "ExactContext",
    "GainEngine",
    "LaneScores",
    "estimate_lane",
    "exact_context",
    "exact_lane",
    "exact_one",
    "gain_lane",
]

# No ``np.errstate`` on the hot paths: every division below guards its
# denominator with ``np.maximum(..., 1)``, so none can raise
# divide/invalid.


@dataclass
class LaneScores:
    """Scores of every slot of one kind against one cluster.

    All arrays have length S (= M for row lanes, N for column lanes).
    ``new_residues`` / ``new_volumes`` describe the cluster after the
    candidate toggle; ``line_residues`` is the toggled line's own
    frozen-bases residue (the r-residue admission test input);
    ``line_counts`` the number of specified entries the line has on the
    cluster; ``width`` the cluster's extent along the toggled line.
    """

    new_residues: np.ndarray
    new_volumes: np.ndarray
    line_residues: np.ndarray
    line_counts: np.ndarray
    width: int


class ExactContext:
    """Cluster-epoch scratch of :func:`exact_lane` and :func:`exact_one`.

    Built by :func:`exact_context`; valid until the cluster's
    modification stamp moves (the engine keys its cache on exactly
    that).  ``m == 0`` contexts carry only the header fields -- every
    candidate of such a cluster takes the early-out path.
    """

    __slots__ = (
        "filled", "mask", "cand_member", "line_sums", "line_counts",
        "line_counts_f", "volume", "residue", "jidx", "m",
        "base_sub_sums", "base_counts_f", "cross_base", "total", "grand0",
        "table", "prefix", "col_off", "col_totals",
    )


# -- scoring: frozen-bases estimate lane -------------------------------

def estimate_lane(state: "_State", kind: str, c: int) -> LaneScores:
    """Frozen-bases residue estimate of every slot against cluster ``c``.

    Numerically identical, element for element, to the per-slot
    all-clusters batch oracle (enforced by ``tests/test_gain_engine.py``
    against ``tests/oracles.py``), so the weighted ordering consumes
    the same gains -- and therefore the same RNG stream -- as the
    per-slot implementation it replaced.
    """
    if kind == ROW:
        filled, mask = state.filled, state.mask
        member = state.col_member[c]
        base_sums, base_counts = state.col_sums[c], state.col_counts[c]
        line_sums = state.row_sums[c]
        line_counts = state.row_counts[c]
        line_counts_f = state.row_counts_f[c]
        removing = state.row_member[c]
    else:
        filled, mask = state.filled_T, state.mask_T
        member = state.row_member[c]
        base_sums, base_counts = state.row_sums[c], state.row_counts[c]
        line_sums = state.col_sums[c]
        line_counts = state.col_counts[c]
        line_counts_f = state.col_counts_f[c]
        removing = state.col_member[c]

    volume = state.volumes_f[c]
    residue = state.residues[c]

    line_base = line_sums / np.maximum(line_counts_f, 1.0)
    cross_base = np.where(
        base_counts > 0,
        base_sums / np.maximum(base_counts, 1),
        0.0,
    )
    total = (base_sums * member).sum()
    count = (base_counts * member).sum()
    grand = np.where(count > 0, total / np.maximum(count, 1), 0.0)

    # In-place passes over the one (S, base) temporary; the op order
    # matches the per-slot batch oracle exactly (bit-identity with it
    # is load-bearing: it fixes the RNG stream).
    deviations = filled - line_base[:, None]
    deviations -= cross_base[None, :]
    deviations += grand
    np.abs(deviations, out=deviations)
    relevant = member[None, :] & mask
    deviations *= relevant
    line_residues = deviations.sum(axis=1)
    line_residues = np.where(
        line_counts > 0, line_residues / np.maximum(line_counts_f, 1.0), 0.0
    )

    add_volumes = volume + line_counts_f
    remove_volumes = volume - line_counts_f
    add_residues = (
        volume * residue + line_counts_f * line_residues
    ) / np.maximum(add_volumes, 1.0)
    remove_residues = np.maximum(
        (volume * residue - line_counts_f * line_residues)
        / np.maximum(remove_volumes, 1.0),
        0.0,
    )
    new_volumes = np.where(removing, remove_volumes, add_volumes)
    new_residues = np.where(removing, remove_residues, add_residues)

    untouched = line_counts == 0
    new_volumes = np.where(untouched, volume, new_volumes)
    new_residues = np.where(untouched, residue, new_residues)
    emptied = removing & ~untouched & (remove_volumes <= 0)
    new_volumes = np.where(emptied, 0.0, new_volumes)
    new_residues = np.where(emptied, 0.0, new_residues)
    line_residues = np.where(untouched | emptied, 0.0, line_residues)

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.toggle_evals += line_counts.size
        w.cells_scanned += int(line_counts.sum())
    return LaneScores(
        new_residues=new_residues,
        new_volumes=new_volumes.astype(np.int64),
        line_residues=line_residues,
        line_counts=line_counts,
        width=int(member.sum()),
    )

# -- scoring: exact lane, sorted-prefix SAD over centred residuals -----

def exact_lane(
    state: "_State",
    kind: str,
    c: int,
    sel: Optional[np.ndarray] = None,
    ctx: Optional[ExactContext] = None,
) -> LaneScores:
    """True after-toggle residue of every slot, without rescans.

    Derivation (row lane; column lanes run the same code on the
    transposed state).  Toggling row ``i`` leaves every retained
    row's mean ``a_r`` unchanged; the member columns' means become
    ``b'_j = (S_j +- d_ij) / (n_j +- 1)`` and the grand mean
    ``g' = T' / V'`` -- all available from the cached sufficient
    statistics.  A retained cell's residual is then
    ``|E_rj - t'_j|`` with ``E_rj = d_rj - a_r`` and
    ``t'_j = b'_j - g'``: a sum of absolute deviations about a
    pivot, answered for all candidates at once from each column's
    sorted residuals + prefix sums.  The toggled row's own cells
    contribute ``+-sum_j |E_ij - t'_j|`` on top.

    The candidate-independent half (gathers, bases, sorted table)
    lives in :func:`exact_context` and may be passed in via ``ctx``
    to amortise it across several builds of one cluster epoch.
    ``sel`` restricts the candidate block to a subset of slots (in
    ``sel`` order): every per-candidate value is bit-identical to
    the corresponding entry of the full lane, because all candidate
    arrays are C-contiguous row blocks and every per-candidate
    reduction runs over one contiguous length-``m`` row either way.
    """
    if ctx is None:
        ctx = exact_context(state, kind, c)
    volume = ctx.volume
    residue = ctx.residue
    m = ctx.m
    if sel is None:
        removing = ctx.cand_member
        line_sums = ctx.line_sums
        line_counts = ctx.line_counts
        line_counts_f = ctx.line_counts_f
    else:
        removing = ctx.cand_member[sel]
        line_sums = ctx.line_sums[sel]
        line_counts = ctx.line_counts[sel]
        line_counts_f = ctx.line_counts_f[sel]
    n_out = line_counts.size

    lcpos = line_counts > 0
    rem_volumes = volume - line_counts
    emptied = removing & lcpos & (rem_volumes <= 0)
    active = lcpos & ~emptied  # == ~(untouched | emptied)

    w = state.work
    if w is not None:
        w.batch_evals += 1
        w.lane_builds += 1
        w.toggle_evals += n_out
        w.cells_scanned += int(line_counts.sum())

    # One branch-free volume pass covers every inactive case too: an
    # untouched line has line_counts == 0 on both sides (volume
    # survives), and an emptied removal has rem_volumes == 0 (every
    # specified cell of the cluster sat on the toggled line).
    new_volumes = np.where(removing, rem_volumes, volume + line_counts)
    new_residues = np.where(emptied, 0.0, residue)
    if m == 0 or not active.any():
        return LaneScores(
            new_residues=new_residues,
            new_volumes=new_volumes,
            line_residues=np.zeros(n_out),
            line_counts=line_counts,
            width=m,
        )

    sign = np.where(removing, -1.0, 1.0)
    # C-contiguous gathers of the base-member columns, full or
    # ``sel``-restricted: either way each candidate occupies one
    # contiguous length-m row, so every per-candidate reduction
    # accumulates identically (bit for bit) in both shapes.
    jidx = ctx.jidx
    if sel is None:
        sub_filled = ctx.filled.take(jidx, axis=1)    # (n_out, m)
        sub_mask_f = ctx.mask.take(jidx, axis=1).astype(np.float64)
    else:
        cells = np.ix_(sel, jidx)
        sub_filled = ctx.filled[cells]
        sub_mask_f = ctx.mask[cells].astype(np.float64)
    base_counts_f = ctx.base_counts_f

    lden = np.maximum(line_counts_f, 1.0)
    line_base = line_sums / lden

    # Centred residuals of every line against its own mean.
    # ``filled`` is zero at unspecified cells, so masking happens
    # once, where each consumer needs it.
    centred = sub_filled - line_base[:, None]         # (n_out, m)

    # The toggled line's own frozen-bases residue (the r-residue
    # admission input -- same definition as the estimate lane).
    # In-place passes over one temporary, same op order.
    dev = centred - ctx.cross_base[None, :]
    dev += ctx.grand0
    np.abs(dev, out=dev)
    dev *= sub_mask_f
    line_residues = np.where(active, dev.sum(axis=1) / lden, 0.0)

    table = ctx.table
    prefix = ctx.prefix
    col_off = ctx.col_off
    n = table.shape[1]

    # Candidate-specific bases, all candidates at once.  The int
    # volumes convert exactly (far below 2**53), so the float view
    # is the same value the sign-fold arithmetic used to produce;
    # the +-1 membership folds are one sign-broadcast multiply each
    # (``x * -1.0 == -x`` bitwise), no bool/int broadcast casts.
    new_vol_f = new_volumes.astype(np.float64)        # (n_out,)
    denom_v = np.maximum(new_vol_f, 1.0)
    grand_new = (ctx.total + sign * line_sums) / denom_v
    sign_col = sign[:, None]
    base_new_counts = sign_col * sub_mask_f
    base_new_counts += base_counts_f
    base_new_sums = sign_col * sub_filled
    base_new_sums += ctx.base_sub_sums
    # ``base / max(count, 1)`` then a rare explicit zero where the
    # base line lost its last specified cell: the same values as the
    # branchless np.where form, without its full-size select pass.
    pivots = base_new_sums / np.maximum(base_new_counts, 1.0)
    dead = base_new_counts <= 0
    if dead.any():
        pivots[dead] = 0.0
    pivots -= grand_new[:, None]                      # (n_out, m)

    # Rank of each candidate's pivot in each base line's sorted
    # residuals (count of residuals strictly below the pivot).  Both
    # strategies produce the same integer ranks; the cost of each is
    # its Python-level dispatch count, so pick the shorter loop:
    # with fewer member lines than base lines (column lanes)
    # accumulate one whole-lane comparison per member line,
    # otherwise binary-search each base line's sorted row (m calls
    # of n_out queries -- m is small for row lanes).  The compare
    # operands are copied contiguous first: strided broadcast/needle
    # inner loops cost more than the copies.
    if n <= m:
        tab_rows = np.ascontiguousarray(table.T)      # (n, m)
        p = np.zeros((n_out, m), dtype=np.int64)
        for r in range(n):
            p += tab_rows[r] < pivots
    else:
        pivots_t = np.ascontiguousarray(pivots.T)     # (m, n_out)
        p = np.empty((n_out, m), dtype=np.intp)
        pt = p.T
        for j in range(m):
            pt[j] = table[j].searchsorted(pivots_t[j], side="left")
    # SAD of each base line's sorted residuals about each
    # candidate's pivot: sad_j = t*(2p - cnt) + total_j - 2*prefix[p],
    # accumulated in place (same op tree as the spelled-out form).
    pre = prefix.take(col_off + p)                    # (n_out, m)
    q = 2.0 * p
    q -= base_counts_f
    q *= pivots
    pre *= 2.0
    np.subtract(ctx.col_totals, pre, out=pre)
    q += pre
    sad = q.sum(axis=1)

    # The toggled line's own cells: added lines contribute them,
    # removed lines' contributions leave the member-line SAD.
    own = centred - pivots
    np.abs(own, out=own)
    own *= sub_mask_f
    own_sums = own.sum(axis=1)

    np.multiply(own_sums, sign, out=own_sums)
    own_sums += sad
    candidate_res = np.maximum(own_sums / denom_v, 0.0)
    new_residues = np.where(active, candidate_res, new_residues)
    return LaneScores(
        new_residues=new_residues,
        new_volumes=new_volumes,
        line_residues=line_residues,
        line_counts=line_counts,
        width=m,
    )

# -- scoring: one candidate, lane-identical arithmetic -----------------

def exact_context(state: "_State", kind: str, c: int) -> ExactContext:
    """Candidate-independent half of a scalar exact evaluation.

    Everything here depends only on the cluster's current state, so
    the engine caches one context per (kind, cluster) modification
    epoch and amortises the O(V log n) table build over every
    :func:`exact_one` of the epoch.
    """
    if kind == ROW:
        filled, mask = state.filled, state.mask
        cand_member = state.row_member[c]
        base_member = state.col_member[c]
        line_sums = state.row_sums[c]
        line_counts = state.row_counts[c]
        line_counts_f = state.row_counts_f[c]
        base_sums_all, base_counts_all = state.col_sums[c], state.col_counts[c]
    else:
        filled, mask = state.filled_T, state.mask_T
        cand_member = state.col_member[c]
        base_member = state.row_member[c]
        line_sums = state.col_sums[c]
        line_counts = state.col_counts[c]
        line_counts_f = state.col_counts_f[c]
        base_sums_all, base_counts_all = state.row_sums[c], state.row_counts[c]

    volume = int(state.volumes[c])
    residue = float(state.residues[c])
    jidx = np.flatnonzero(base_member)
    m = jidx.size

    w = state.work
    if w is not None:
        w.residue_evals += 1
        w.cells_scanned += volume

    ctx = ExactContext()
    ctx.filled = filled
    ctx.mask = mask
    ctx.cand_member = cand_member
    ctx.line_sums = line_sums
    ctx.line_counts = line_counts
    ctx.line_counts_f = line_counts_f
    ctx.volume = volume
    ctx.residue = residue
    ctx.jidx = jidx
    ctx.m = m
    if m == 0:
        return ctx

    base_sub_sums = base_sums_all[jidx]
    base_sub_counts = base_counts_all[jidx]
    base_counts_f = base_sub_counts.astype(np.float64)
    ctx.base_sub_sums = base_sub_sums
    ctx.base_counts_f = base_counts_f
    ctx.cross_base = np.where(
        base_sub_counts > 0,
        base_sub_sums / np.maximum(base_counts_f, 1.0),
        0.0,
    )
    # The cluster total is exactly the sum of its member base sums.
    total = float(base_sub_sums.sum())
    ctx.total = total
    ctx.grand0 = total / volume if volume else 0.0

    # Sorted residual table of the member lines, one (contiguous)
    # row per member of the base axis; +inf-padded so every base
    # line's specified residuals occupy its sorted prefix.  The inf
    # padding may leak into the prefix tail, but every read sits at
    # a rank <= the line's specified count, before the first inf.
    ridx = np.flatnonzero(cand_member)
    n = ridx.size
    cells = np.ix_(ridx, jidx)
    mem_filled = filled[cells]                        # (n, m)
    mem_mask = mask[cells]
    mem_base = line_sums[ridx] / np.maximum(line_counts_f[ridx], 1.0)
    mem_centred = mem_filled - mem_base[:, None]
    table = np.ascontiguousarray(
        np.where(mem_mask, mem_centred, np.inf).T
    )                                                 # (m, n)
    table.sort(axis=1)
    prefix = np.zeros((m, n + 1))
    np.cumsum(table, axis=1, out=prefix[:, 1:])
    col_n = base_sub_counts.astype(np.intp)
    col_off = np.arange(m) * (n + 1)
    ctx.table = table
    ctx.prefix = prefix
    ctx.col_off = col_off
    ctx.col_totals = prefix.take(col_off + col_n)
    return ctx

def exact_one(
    state: "_State",
    kind: str,
    index: int,
    c: int,
    ctx: Optional[ExactContext] = None,
) -> Tuple[float, int, float]:
    """Exact after-toggle score of a single candidate.

    Returns ``(new_residue, new_volume, line_residue)`` --
    **bit-identical** to the ``index`` entries of
    :func:`exact_lane`'s output arrays.  Every expression mirrors
    the lane's op tree exactly (same sorted-prefix SAD formula, same
    reduction shapes and layouts), so the engine may serve a consult
    from either path interchangeably; the lazy-vs-eager run-identity
    test in ``tests/test_gain_engine.py`` depends on it.  With a
    cached ``ctx`` the cost is O(m) -- cheaper than the lane's O(S)
    candidate block whenever only a few of the S slots are consulted
    before the cluster changes again.
    """
    if ctx is None:
        ctx = exact_context(state, kind, c)
    volume = ctx.volume
    residue = ctx.residue
    line_count = int(ctx.line_counts[index])
    removing = bool(ctx.cand_member[index])
    rem_volume = volume - line_count
    emptied = removing and line_count > 0 and rem_volume <= 0
    active = line_count > 0 and not emptied
    new_volume = rem_volume if removing else volume + line_count

    w = state.work
    if w is not None:
        w.toggle_evals += 1
        w.cells_scanned += line_count

    m = ctx.m
    if m == 0 or not active:
        return (0.0 if emptied else residue), new_volume, 0.0

    jidx = ctx.jidx
    row_filled = ctx.filled[index].take(jidx)         # (m,) contiguous
    row_mask_f = ctx.mask[index].take(jidx).astype(np.float64)

    lden = max(float(ctx.line_counts_f[index]), 1.0)
    line_base = float(ctx.line_sums[index]) / lden
    centred = row_filled - line_base                  # (m,)
    dev = centred - ctx.cross_base
    dev += ctx.grand0
    np.abs(dev, out=dev)
    dev *= row_mask_f
    # The lane's per-candidate reductions run over one contiguous
    # length-m row each (ctx gathers are C-ordered), so the plain
    # 1-D pairwise sum here is the same accumulation, bit for bit.
    line_residue = float(dev.sum()) / lden

    sign = -1.0 if removing else 1.0
    denom_v = max(float(new_volume), 1.0)
    grand_new = (ctx.total + sign * float(ctx.line_sums[index])) / denom_v
    bnc = ctx.base_counts_f + sign * row_mask_f
    bns = ctx.base_sub_sums + sign * row_filled
    pivots = np.where(bnc > 0, bns / np.maximum(bnc, 1.0), 0.0)
    pivots -= grand_new                               # (m,)

    # Strict rank of the pivot per member line -- one broadcast
    # count (== the lane's accumulate/searchsorted ranks).
    p = (ctx.table < pivots[:, None]).sum(axis=1)
    pre = ctx.prefix.take(ctx.col_off + p)
    q = 2.0 * p
    q -= ctx.base_counts_f
    q *= pivots
    pre *= 2.0
    np.subtract(ctx.col_totals, pre, out=pre)
    q += pre
    sad = q.sum()

    own = centred - pivots
    np.abs(own, out=own)
    own *= row_mask_f
    own_sum = own.sum()
    own_sum = own_sum * sign
    own_sum += sad
    new_residue = float(np.maximum(own_sum / denom_v, 0.0))
    return new_residue, new_volume, line_residue


# -- vectorised policy -------------------------------------------------

def gain_lane(
    old_residue: float,
    old_volume: int,
    new_residues: np.ndarray,
    new_volumes: np.ndarray,
    residue_target: Optional[float],
    line_residues: np.ndarray,
    is_addition: np.ndarray,
) -> np.ndarray:
    """Vector form of :func:`repro.core.floc._gain` over one lane.

    Branch for branch the same ladder (property-tested against the
    scalar), collapsed to two ``np.where`` overlays: the misfit branch
    (highest priority) over the feasibility branch over the reduction
    default.  Every arithmetic expression is bit-equal to the scalar
    code's -- additions only commute, the +-1 adjustments fold to
    ``x + (+-1.0)``, and a bool addend contributes exactly ``1.0``.
    """
    if residue_target is None:
        return old_residue - new_residues
    scale = max(old_residue, residue_target)
    reduction = (old_residue - new_residues) / scale
    feasible = new_residues <= residue_target
    if old_residue > residue_target:
        f_val = 2.0 + reduction
    else:
        f_val = (new_volumes - old_volume) / (old_volume + 1.0)
        f_val += is_addition  # the +1.0 admission bonus for additions
    gains = np.where(feasible, f_val, reduction)
    misfit = line_residues > residue_target
    mis_val = reduction + np.where(is_addition, -1.0, 1.0)
    return np.where(misfit, mis_val, gains)


def _structural_bounds(
    constraints: Constraints, kind: str, n: int, m: int
) -> Tuple[bool, bool]:
    """Cluster-local blocking: structural floor + Cons_v volume bounds.

    These depend only on the acted cluster's shape, so the whole lane
    shares two scalar verdicts ``(removal_blocked, addition_blocked)``
    -- usually both false, letting the caller skip the mask entirely.
    """
    if kind == ROW:
        rem_rows, rem_cols = n - 1, m
        add_cells = (n + 1) * m
    else:
        rem_rows, rem_cols = n, m - 1
        add_cells = n * (m + 1)
    rem_cells = rem_rows * rem_cols
    removal_blocked = (
        rem_rows < constraints.min_rows or rem_cols < constraints.min_cols
    )
    if constraints.min_volume is not None and rem_cells < constraints.min_volume:
        removal_blocked = True
    addition_blocked = (
        constraints.max_volume is not None and add_cells > constraints.max_volume
    )
    return removal_blocked, addition_blocked


def _overlap_blocked(
    state: "_State", constraints: Constraints, kind: str, c: int
) -> np.ndarray:
    """Vector form of ``Constraints._overlap_worsens`` over one lane.

    Valid only while the *whole* state is frozen (ordering time): the
    verdict depends on every other cluster, so it cannot be cached in a
    per-cluster lane.
    """
    max_overlap = constraints.max_overlap
    assert max_overlap is not None
    row_c, col_c = state.row_member[c], state.col_member[c]
    n, m = int(row_c.sum()), int(col_c.sum())
    old_cells = n * m
    if kind == ROW:
        member = row_c
        new_extent = n + np.where(member, -1, 1)
        new_cells = new_extent * m
    else:
        member = col_c
        new_extent = m + np.where(member, -1, 1)
        new_cells = n * new_extent
    delta = np.where(member, -1, 1)
    blocked = np.zeros(member.size, dtype=bool)
    for other in range(state.k):
        if other == c:
            continue
        other_rows = state.row_member[other]
        other_cols = state.col_member[other]
        shared_rows = int((row_c & other_rows).sum())
        shared_cols = int((col_c & other_cols).sum())
        old_shared = shared_rows * shared_cols
        if kind == ROW:
            new_shared = np.where(
                other_rows, (shared_rows + delta) * shared_cols, old_shared
            )
        else:
            new_shared = np.where(
                other_cols, shared_rows * (shared_cols + delta), old_shared
            )
        other_cells = int(other_rows.sum()) * int(other_cols.sum())
        new_smaller = np.minimum(new_cells, other_cells)
        relevant = (new_shared > 0) & (new_smaller > 0)
        new_fraction = new_shared / np.maximum(new_smaller, 1)
        old_smaller = min(old_cells, other_cells)
        old_fraction = old_shared / old_smaller if old_smaller else 0.0
        blocked |= (
            relevant
            & (new_fraction > max_overlap)
            & (new_fraction > old_fraction + 1e-12)
        )
    return blocked


# -- the engine --------------------------------------------------------

#: Ski-rental threshold of the lazy exact path: after this many scalar
#: ``exact_one`` evaluations of one cluster within one modification
#: epoch, the engine stops renting and buys the full lane (a lane build
#: costs a handful of scalar evals; most epochs see far fewer consults).
_LAZY_PROMOTE = 7

#: Candidate-block width of windowed exact lane rebuilds.  When the
#: sweep's consult order is registered (:meth:`GainEngine.begin_sweep`),
#: a dirtied wide lane is rebuilt only for the next ``_BLOCK`` slots in
#: consult order -- the candidate block is the expensive half of a lane
#: build, and on action-dense sweeps only a handful of its S entries
#: are ever consulted before the cluster changes again.
_BLOCK = 128


class _LaneSet:
    """Per-kind cache of lanes: scores, gains, per-cluster versions."""

    __slots__ = (
        "scores", "raw", "proxy", "versions", "move",
        "best_gain", "rev_seen", "lazy", "ctx",
        "full", "win_start", "win_end", "win_floor",
    )

    def __init__(self, k: int, size: int) -> None:
        self.scores: List[Optional[LaneScores]] = [None] * k
        self.raw = np.full((k, size), BLOCKED_GAIN)
        self.proxy: Optional[np.ndarray] = None
        self.versions = np.full(k, -1, dtype=np.int64)
        self.move = self.raw
        self.best_gain: Optional[np.ndarray] = None
        #: Global state revision this set was last synced against -- an
        #: O(1) scalar check that skips the per-cluster stamp compare on
        #: the (common) consults where nothing changed.
        self.rev_seen = -1
        #: Clusters whose lane rebuild is deferred: cluster -> number of
        #: scalar ``exact_one`` evaluations served this epoch (their
        #: ``raw`` rows are BLOCKED_GAIN-filled; consults merge scalar
        #: evals in).  Only ever populated on exact move lanes of a
        #: minority kind -- see ``GainEngine._lazy_kinds``.
        self.lazy: Dict[int, int] = {}
        #: Cached ``ExactContext`` per deferred/windowed cluster,
        #: dropped with the epoch (same keying as ``versions``).
        self.ctx: Dict[int, ExactContext] = {}
        #: Block-window bookkeeping (consult-position space, see
        #: ``GainEngine.begin_sweep``): a cluster's lane entries are
        #: valid either everywhere (``full``) or on the half-open
        #: position window ``[win_start, win_end)`` of the registered
        #: sweep order.  ``win_floor`` is the smallest pending window
        #: end -- the O(1) "does any window expire by position t?"
        #: check of the block consult path.
        self.full = np.zeros(k, dtype=bool)
        self.win_start = np.zeros(k, dtype=np.intp)
        self.win_end = np.zeros(k, dtype=np.intp)
        self.win_floor = 0


class GainEngine:
    """Scores all candidate actions of a sweep from cached lanes.

    One engine serves one :func:`~repro.core.floc._phase2` call.  Lanes
    are rebuilt lazily when the state's per-cluster modification stamp
    moves past the cached version -- a performed action therefore costs
    two lane rebuilds (its cluster's row and column lanes) at the next
    consult instead of a full sweep rescore.
    """

    def __init__(
        self,
        state: "_State",
        constraints: Constraints,
        alpha: float,
        residue_target: Optional[float],
        gain_mode: str,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.state = state
        self.constraints = constraints
        self.alpha = alpha
        self.residue_target = residue_target
        self.fast_mode = gain_mode == "fast"
        self.tracer = tracer
        n_rows = state.row_member.shape[1]
        n_cols = state.col_member.shape[1]
        self._sizes = {ROW: n_rows, COL: n_cols}
        self._move = {ROW: _LaneSet(state.k, n_rows), COL: _LaneSet(state.k, n_cols)}
        if self.fast_mode:
            self._order = self._move
        else:
            self._order = {
                ROW: _LaneSet(state.k, n_rows),
                COL: _LaneSet(state.k, n_cols),
            }
        #: Cross-cluster / exact-occupancy checks that cannot be cached
        #: per lane; verified per consulted candidate instead.
        self._scalar_constraints = (
            constraints.max_overlap is not None
            or constraints.require_row_coverage
            or constraints.require_col_coverage
        )
        self._expensive = self._scalar_constraints or alpha > 0.0
        #: Memo of the "already violating alpha" healing rule, keyed by
        #: the cluster's modification stamp.
        self._alpha_memo: Dict[int, Tuple[int, bool]] = {}
        #: Kinds whose exact move lanes are rebuilt *lazily*: a stale
        #: cluster's slots are scored one-at-a-time by ``exact_one`` at
        #: consult time instead of eagerly all-S-at-once.  Worth it only
        #: for a *minority* kind (lane width <= 1/4 of all slots):
        #: consulted proportionally rarely, so a lane epoch often ends
        #: after a handful of consults and the eager build is wasted.
        #: Majority/wide kinds stay eager -- their epochs serve enough
        #: consults that per-consult scalar merging (and per-epoch
        #: :class:`ExactContext` sorted-table builds) costs more than
        #: the one amortised lane build.  Exact cheap-path mode only --
        #: fast mode's lanes fix the RNG stream (bit-identity), and the
        #: expensive path's ordered consult walk wants whole columns.
        if self.fast_mode or self._expensive:
            self._lazy_kinds: frozenset = frozenset()
        else:
            total = n_rows + n_cols
            self._lazy_kinds = frozenset(
                kind for kind, size in self._sizes.items()
                if size * 4 <= total
            )
        #: Per-kind consult order of the current sweep (and its inverse,
        #: slot index -> consult position), registered by
        #: :meth:`begin_sweep`.  ``None`` disables block windows for the
        #: kind -- the safe default for direct ``best_action`` callers.
        self._seq: Dict[str, Optional[np.ndarray]] = {ROW: None, COL: None}
        self._pos: Dict[str, Optional[np.ndarray]] = {ROW: None, COL: None}
        from .floc import _gain  # deferred: floc imports this module
        self._scalar_gain = _gain

    # -- lane maintenance ----------------------------------------------
    def _member(self, kind: str, c: int) -> np.ndarray:
        return self.state.row_member[c] if kind == ROW else self.state.col_member[c]

    def _build_lane(
        self,
        lanes: _LaneSet,
        kind: str,
        c: int,
        exact: bool,
        sel: Optional[np.ndarray] = None,
        ctx: Optional[ExactContext] = None,
    ) -> None:
        state = self.state
        if exact:
            scores = exact_lane(state, kind, c, sel=sel, ctx=ctx)
        else:
            assert sel is None  # block windows are exact-mode only
            scores = estimate_lane(state, kind, c)
        member = self._member(kind, c)
        # ``width`` already counts the base axis; only the toggled axis
        # needs a fresh popcount.
        if kind == ROW:
            n, m = int(member.sum()), scores.width
        else:
            n, m = scores.width, int(member.sum())
        removing = member if sel is None else member[sel]
        gains = gain_lane(
            float(state.residues[c]),
            int(state.volumes[c]),
            scores.new_residues,
            scores.new_volumes,
            self.residue_target,
            scores.line_residues,
            ~removing,
        )
        rb, ab = _structural_bounds(self.constraints, kind, n, m)
        if rb or ab:
            blocked = np.where(removing, rb, ab)
            gains = np.where(blocked, BLOCKED_GAIN, gains)
        if sel is None:
            lanes.scores[c] = scores
            lanes.raw[c] = gains
            lanes.full[c] = True
            lanes.win_start[c] = 0
            lanes.win_end[c] = lanes.raw.shape[1]
            if self.alpha > 0.0:
                if lanes.proxy is None:
                    lanes.proxy = np.zeros_like(lanes.raw, dtype=bool)
                # The cheap occupancy proxy: a joining line must itself
                # meet alpha on the cluster's current extent.
                lanes.proxy[c] = (
                    ~removing
                    & (scores.width > 0)
                    & (scores.line_counts < self.alpha * scores.width)
                )
        else:
            # Scatter the block into the cluster's full-size store; the
            # entries outside the window keep stale values that the
            # block consult path never reads.
            store = lanes.scores[c]
            assert store is not None  # first builds are always full
            store.new_residues[sel] = scores.new_residues
            store.new_volumes[sel] = scores.new_volumes
            lanes.raw[c][sel] = gains
        lanes.versions[c] = state.stamp[c]

    def _ensure(self, lanes: _LaneSet, kind: str, exact: bool) -> None:
        if lanes.rev_seen == self.state.rev:
            return
        lanes.rev_seen = self.state.rev
        stale = np.flatnonzero(lanes.versions != self.state.stamp)
        if stale.size == 0:
            return
        defer = exact and kind in self._lazy_kinds
        for c in stale:
            ci = int(c)
            if defer and lanes.versions[ci] != -1:
                # Rent before buying: blank the row and let consults
                # score this cluster's slots scalar-at-a-time (initial
                # builds stay eager -- every slot is about to be
                # consulted by the first sweeps).
                lanes.raw[ci].fill(BLOCKED_GAIN)
                lanes.scores[ci] = None
                lanes.versions[ci] = self.state.stamp[ci]
                lanes.lazy[ci] = 0
                lanes.ctx.pop(ci, None)
                continue
            self._build_lane(lanes, kind, ci, exact)
            lanes.lazy.pop(ci, None)
            lanes.ctx.pop(ci, None)
        if self.alpha > 0.0 and self.fast_mode and lanes.proxy is not None:
            lanes.move = np.where(lanes.proxy, BLOCKED_GAIN, lanes.raw)
        else:
            lanes.move = lanes.raw
        lanes.best_gain = None

    def begin_sweep(self, order: Sequence[Tuple[str, int]]) -> None:
        """Register a sweep's consult order, enabling block windows.

        ``order`` must be the exact sequence of ``(kind, index)`` slots
        the caller will pass to :meth:`best_action`, each slot exactly
        once -- :func:`~repro.core.floc._phase2` consults the ordered
        slots front to back, so a dirtied wide lane needs scores only
        for the *next* ``_BLOCK`` consult positions, not all S slots.
        Applies to exact cheap-path move lanes of non-lazy kinds wide
        enough to amortise the window bookkeeping; every other path
        (fast mode, the expensive constraint walk, direct consults
        without a registered order) keeps full builds.  Scores are
        bit-identical either way (the block evaluator is an exact slice
        of the full lane), so enabling windows never changes results.
        """
        if self.fast_mode or self._expensive:
            return
        per_kind: Dict[str, List[int]] = {ROW: [], COL: []}
        for kind, index in order:
            per_kind[kind].append(index)
        for kind in (ROW, COL):
            size = self._sizes[kind]
            seq_list = per_kind[kind]
            if (
                kind in self._lazy_kinds
                or size < _BLOCK + _BLOCK // 2
                or len(seq_list) != size
            ):
                self._seq[kind] = None
                continue
            seq = np.asarray(seq_list, dtype=np.intp)
            pos = np.full(size, -1, dtype=np.intp)
            pos[seq] = np.arange(size, dtype=np.intp)
            if (pos < 0).any():  # not a permutation of every slot
                self._seq[kind] = None
                continue
            self._seq[kind] = seq
            self._pos[kind] = pos
            lanes = self._move[kind]
            # The new order voids every window (positions renumbered);
            # full lanes stay valid -- their entries cover any order.
            lanes.win_start.fill(0)
            lanes.win_end.fill(0)
            lanes.win_floor = 0

    # -- consult: best action for one slot -----------------------------
    def best_action(
        self, kind: str, index: int
    ) -> Optional[Tuple[int, float, int, float]]:
        """Highest-gain unblocked action of one slot, or ``None``.

        Same contract as the scalar ``_best_action`` it replaces:
        negative gains are eligible (the caller's ``mandatory_moves``
        policy decides whether they are performed), ties go to the
        lowest cluster index.
        """
        lanes = self._move[kind]
        if (
            not self.fast_mode
            and not self._expensive
            and self._seq[kind] is not None
        ):
            return self._best_action_block(lanes, kind, index)
        self._ensure(lanes, kind, exact=not self.fast_mode)
        if not self._expensive:
            if lanes.lazy:
                return self._best_action_lazy(lanes, kind, index)
            best_gain = lanes.best_gain
            if best_gain is None:
                # Elementwise max over the k lanes is a fast contiguous
                # reduce; the winning cluster index is only needed for
                # the one consulted slot, so a k-element argmax at
                # consult time (same lowest-index tie rule) beats a full
                # (k, S) argmax here.
                best_gain = lanes.best_gain = lanes.move.max(axis=0)
            gain = float(best_gain[index])
            if self.tracer.enabled:
                blocked = int((lanes.move[:, index] == BLOCKED_GAIN).sum())
                if blocked:
                    self.tracer.inc("actions_blocked_by_constraint", blocked)
            if gain == BLOCKED_GAIN:
                return None
            c = int(np.argmax(lanes.move[:, index]))
            scores = lanes.scores[c]
            assert scores is not None
            return (
                c,
                float(scores.new_residues[index]),
                int(scores.new_volumes[index]),
                gain,
            )
        column = lanes.move[:, index]
        if self.tracer.enabled:
            blocked = int((column == BLOCKED_GAIN).sum())
            if blocked:
                self.tracer.inc("actions_blocked_by_constraint", blocked)
        for c in np.argsort(-column, kind="stable"):
            gain = float(column[c])
            if gain == BLOCKED_GAIN:
                break
            if self._consult_blocked(kind, index, int(c)):
                if self.tracer.enabled:
                    self.tracer.inc("actions_blocked_by_constraint")
                continue
            scores = lanes.scores[int(c)]
            assert scores is not None
            return (
                int(c),
                float(scores.new_residues[index]),
                int(scores.new_volumes[index]),
                gain,
            )
        return None

    def _best_action_lazy(
        self, lanes: _LaneSet, kind: str, index: int
    ) -> Optional[Tuple[int, float, int, float]]:
        """Cheap-path consult with lazily-deferred clusters in the lane.

        Fresh clusters answer from the cached lane (their deferred
        peers' rows are BLOCKED_GAIN, so they never shadow); each
        deferred cluster is scored for this one slot by ``exact_one``
        with the identical arithmetic, so the merged column -- and
        therefore the chosen action -- is bit-for-bit what an eager
        rebuild would have produced.
        """
        state = self.state
        column = lanes.move[:, index].copy()
        details: Dict[int, Tuple[float, int]] = {}
        for c in sorted(lanes.lazy):
            count = lanes.lazy[c] + 1
            if count >= _LAZY_PROMOTE:
                # Consulted often this epoch: buy the lane after all.
                self._build_lane(lanes, kind, c, exact=True)
                del lanes.lazy[c]
                lanes.ctx.pop(c, None)
                lanes.best_gain = None
                column[c] = lanes.move[c, index]
                continue
            lanes.lazy[c] = count
            ctx = lanes.ctx.get(c)
            if ctx is None:
                ctx = lanes.ctx[c] = exact_context(state, kind, c)
            new_res, new_vol, line_res = exact_one(state, kind, index, c, ctx)
            details[c] = (new_res, new_vol)
            removing = bool(self._member(kind, c)[index])
            n = int(state.row_member[c].sum())
            m = int(state.col_member[c].sum())
            rb, ab = _structural_bounds(self.constraints, kind, n, m)
            if rb if removing else ab:
                column[c] = BLOCKED_GAIN
                continue
            column[c] = self._scalar_gain(
                float(state.residues[c]),
                int(state.volumes[c]),
                new_res,
                new_vol,
                self.residue_target,
                line_res,
                not removing,
            )
        if self.tracer.enabled:
            blocked = int((column == BLOCKED_GAIN).sum())
            if blocked:
                self.tracer.inc("actions_blocked_by_constraint", blocked)
        gain = float(column.max())
        if gain == BLOCKED_GAIN:
            return None
        c = int(np.argmax(column))
        if c in details:
            new_res, new_vol = details[c]
        else:
            scores = lanes.scores[c]
            assert scores is not None
            new_res = float(scores.new_residues[index])
            new_vol = int(scores.new_volumes[index])
        return c, new_res, new_vol, gain

    def _best_action_block(
        self, lanes: _LaneSet, kind: str, index: int
    ) -> Optional[Tuple[int, float, int, float]]:
        """Cheap-path consult against block-windowed lanes.

        Invariant: after :meth:`_resync_block`, every cluster's lane is
        valid at the consulted position (full, or inside its window),
        so the column read below is exactly what an eager full rebuild
        would have produced.  Positions only move forward within a
        sweep (the :meth:`begin_sweep` contract), so entries behind the
        current position are never read again.
        """
        state = self.state
        t = int(self._pos[kind][index])
        if lanes.rev_seen != state.rev or t >= lanes.win_floor:
            self._resync_block(lanes, kind, t)
        column = lanes.move[:, index]
        if self.tracer.enabled:
            blocked = int((column == BLOCKED_GAIN).sum())
            if blocked:
                self.tracer.inc("actions_blocked_by_constraint", blocked)
        gain = float(column.max())
        if gain == BLOCKED_GAIN:
            return None
        c = int(np.argmax(column))
        scores = lanes.scores[c]
        assert scores is not None
        return (
            c,
            float(scores.new_residues[index]),
            int(scores.new_volumes[index]),
            gain,
        )

    def _resync_block(self, lanes: _LaneSet, kind: str, t: int) -> None:
        """Make every cluster's lane valid at consult position ``t``.

        Stale clusters rebuild a fresh ``_BLOCK``-wide window starting
        at ``t`` (reusing the epoch's cached :class:`ExactContext` when
        only the window expired); initial builds stay full -- the first
        sweeps consult every slot.
        """
        state = self.state
        lanes.rev_seen = state.rev
        seq = self._seq[kind]
        assert seq is not None
        size = seq.size
        stamp = state.stamp
        floor = size + 1  # sentinel: no pending window expiry
        for c in range(state.k):
            if lanes.versions[c] == stamp[c]:
                if lanes.full[c]:
                    continue
                end = int(lanes.win_end[c])
                if t < end:
                    if end < floor:
                        floor = end
                    continue
            else:
                lanes.ctx.pop(c, None)
            if lanes.versions[c] == -1 or lanes.scores[c] is None:
                self._build_lane(lanes, kind, c, exact=True)
                continue
            ctx = lanes.ctx.get(c)
            if ctx is None:
                ctx = lanes.ctx[c] = exact_context(state, kind, c)
            end = min(t + _BLOCK, size)
            self._build_lane(
                lanes, kind, c, exact=True, sel=seq[t:end], ctx=ctx
            )
            lanes.full[c] = False
            lanes.win_start[c] = t
            lanes.win_end[c] = end
            if end < floor:
                floor = end
        lanes.win_floor = floor
        lanes.best_gain = None

    # -- consult-time (non-cacheable) blocking --------------------------
    def _consult_blocked(self, kind: str, index: int, c: int) -> bool:
        state = self.state
        is_removal = bool(self._member(kind, c)[index])
        if self._scalar_constraints:
            if self.constraints.blocks(
                state.row_member[c], state.col_member[c], kind, index,
                is_removal, c, state.row_member, state.col_member,
            ):
                return True
        if self.alpha > 0.0:
            if self.fast_mode and not is_removal:
                return False  # the cheap proxy already ran in the lane
            return self._alpha_blocked(kind, index, c)
        return False

    def _alpha_blocked(self, kind: str, index: int, c: int) -> bool:
        """Exact Definition-3.1 occupancy with the healing rule.

        A candidate violating alpha is blocked only when the cluster
        currently satisfies alpha -- an already-violating cluster (e.g.
        a fresh random seed) may keep moving until it heals.
        """
        state = self.state
        if toggle_occupancy_ok(
            state.mask, state.row_member[c], state.col_member[c],
            kind, index, self.alpha,
        ):
            return False
        memo = self._alpha_memo.get(c)
        stamp = int(state.stamp[c])
        if memo is not None and memo[0] == stamp:
            return memo[1]
        rows = np.flatnonzero(state.row_member[c])
        cols = np.flatnonzero(state.col_member[c])
        if rows.size == 0 or cols.size == 0:
            verdict = True
        else:
            sub_mask = state.mask[np.ix_(rows, cols)]
            row_frac = sub_mask.sum(axis=1) / cols.size
            col_frac = sub_mask.sum(axis=0) / rows.size
            verdict = bool(
                (row_frac >= self.alpha).all() and (col_frac >= self.alpha).all()
            )
        self._alpha_memo[c] = (stamp, verdict)
        return verdict

    # -- ordering: per-slot best-gain estimates -------------------------
    def ordering_gains(self, slots: Sequence[Tuple[str, int]]) -> List[float]:
        """Frozen-bases best gain of every slot, for the weighted/greedy
        schedulers.

        The state is frozen while an order is built, so the
        cross-cluster constraint masks are applied lane-wide here (the
        one place that is sound).  Estimates come from the estimate
        lanes regardless of gain mode -- ordering is only a heuristic,
        exactly as in the scalar implementation.
        """
        best: Dict[str, np.ndarray] = {}
        for kind in (ROW, COL):
            lanes = self._order[kind]
            self._ensure(lanes, kind, exact=False)
            gains = lanes.raw
            if self.alpha > 0.0 and lanes.proxy is not None:
                gains = np.where(lanes.proxy, BLOCKED_GAIN, gains)
            if self._scalar_constraints or self.alpha > 0.0:
                gains = gains.copy()
            state = self.state
            for c in range(state.k):
                member = self._member(kind, c)
                if self.constraints.max_overlap is not None:
                    overlap = _overlap_blocked(state, self.constraints, kind, c)
                    gains[c, overlap] = BLOCKED_GAIN
                if kind == ROW and self.constraints.require_row_coverage:
                    cover = state.row_member.sum(axis=0)
                    gains[c, member & (cover <= 1)] = BLOCKED_GAIN
                if kind == COL and self.constraints.require_col_coverage:
                    cover = state.col_member.sum(axis=0)
                    gains[c, member & (cover <= 1)] = BLOCKED_GAIN
                if self.alpha > 0.0:
                    # Removals get the exact occupancy check even at
                    # ordering time (removals can break alpha in ways
                    # the joining-line proxy cannot see).
                    for index in np.flatnonzero(member):
                        if gains[c, index] == BLOCKED_GAIN:
                            continue
                        if self._alpha_blocked(kind, int(index), c):
                            gains[c, index] = BLOCKED_GAIN
            best[kind] = gains.max(axis=0)
        return [float(best[kind][index]) for kind, index in slots]
