"""White-box tests for FLOC's internal machinery.

The public behaviour is covered by test_floc.py; these pin down the
pieces that are easy to break silently: the r-residue gain table, the
score function, alpha seed trimming, dead-slot reseeding, and the
incremental fast-gain caches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import Constraints
from repro.core.floc import (
    _State,
    _gain,
    _reseed_dead_slots,
    _score,
    _trim_seed_to_alpha,
)
from repro.core.seeding import bernoulli_seeds

from .oracles import (
    _candidate_parts,
    candidate_parts_batch,
    exact_candidate,
    fast_candidate,
)

NAN = float("nan")


class TestGainTable:
    """The r-residue gain classes must rank exactly as designed."""

    TARGET = 5.0

    def test_literal_mode_is_residue_reduction(self):
        assert _gain(10.0, 100, 8.0, 110, None) == pytest.approx(2.0)
        assert _gain(10.0, 100, 12.0, 90, None) == pytest.approx(-2.0)

    def test_crossing_into_feasibility_ranks_highest(self):
        crossing = _gain(8.0, 100, 4.0, 90, self.TARGET, 1.0, False)
        growth = _gain(4.0, 100, 4.5, 120, self.TARGET, 2.0, True)
        cleanup = _gain(20.0, 100, 15.0, 90, self.TARGET, 10.0, False)
        assert crossing > growth > 0
        assert crossing > cleanup

    def test_feasible_growth_beats_feasible_shrink(self):
        growth = _gain(4.0, 100, 4.5, 120, self.TARGET, 2.0, True)
        shrink = _gain(4.0, 100, 3.5, 80, self.TARGET, 2.0, False)
        assert growth > 1.0
        assert shrink < 0.0

    def test_unfitting_addition_negative(self):
        # Adding a junk line that dilutes the mean below target must NOT
        # rank as growth.
        diluting = _gain(4.0, 1000, 4.4, 1010, self.TARGET, 50.0, True)
        assert diluting < 0.0

    def test_unfitting_line_eviction_is_cleanup(self):
        eviction = _gain(4.0, 100, 3.0, 90, self.TARGET, 50.0, False)
        assert eviction > 1.0

    def test_infeasible_progress_positive(self):
        assert _gain(20.0, 100, 18.0, 90, self.TARGET, 1.0, False) > 0.0
        assert _gain(20.0, 100, 22.0, 110, self.TARGET, 1.0, True) < 0.0


class TestScore:
    def make_state(self, residues, volumes):
        values = np.ones((10, 10))
        seeds = bernoulli_seeds(10, 10, len(residues), 0.5,
                                np.random.default_rng(0))
        state = _State(values, ~np.isnan(values), seeds)
        state.residues[:] = residues
        state.volumes[:] = volumes
        return state

    def test_literal_mode_mean_residue(self):
        state = self.make_state([2.0, 4.0], [10, 20])
        assert _score(state, None) == pytest.approx(3.0)

    def test_target_mode_feasible_rewards_volume(self):
        state = self.make_state([1.0, 2.0], [10, 20])
        assert _score(state, 5.0) == pytest.approx(-30.0)

    def test_target_mode_excess_dominates(self):
        feasible = self.make_state([1.0, 2.0], [10, 20])
        infeasible = self.make_state([1.0, 6.0], [10, 2000])
        assert _score(infeasible, 5.0) > _score(feasible, 5.0)


class TestTrimSeedToAlpha:
    def test_valid_seed_untouched(self):
        mask = np.ones((6, 6), dtype=bool)
        rows = np.array([True] * 4 + [False] * 2)
        cols = np.array([True] * 4 + [False] * 2)
        trimmed_rows, trimmed_cols = _trim_seed_to_alpha(
            rows, cols, mask, 0.6, 2, 2
        )
        assert (trimmed_rows == rows).all()
        assert (trimmed_cols == cols).all()

    def test_sparse_row_trimmed(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[0, :] = False  # row 0 fully missing
        rows = np.ones(5, dtype=bool)
        cols = np.ones(5, dtype=bool)
        trimmed_rows, __ = _trim_seed_to_alpha(rows, cols, mask, 0.6, 2, 2)
        assert not trimmed_rows[0]

    def test_input_not_mutated(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[0, :] = False
        rows = np.ones(5, dtype=bool)
        cols = np.ones(5, dtype=bool)
        _trim_seed_to_alpha(rows, cols, mask, 0.6, 2, 2)
        assert rows.all()

    def test_floor_stops_trimming(self):
        mask = np.zeros((4, 4), dtype=bool)  # everything missing
        rows = np.array([True, True, False, False])
        cols = np.array([True, True, False, False])
        trimmed_rows, trimmed_cols = _trim_seed_to_alpha(
            rows, cols, mask, 0.9, 2, 2
        )
        # Cannot trim below the structural floor even if still invalid.
        assert trimmed_rows.sum() == 2
        assert trimmed_cols.sum() == 2


class TestReseedDeadSlots:
    def make_state(self, rng_seed=0, k=3):
        rng = np.random.default_rng(rng_seed)
        values = rng.uniform(0, 100, size=(40, 20))
        seeds = bernoulli_seeds(40, 20, k, 0.3, rng)
        return _State(values, ~np.isnan(values), seeds), rng

    def test_floor_cluster_reseeded(self):
        state, rng = self.make_state()
        # Collapse cluster 0 to the floor.
        state.row_member[0] = False
        state.row_member[0, :2] = True
        state.col_member[0] = False
        state.col_member[0, :2] = True
        state.refresh_cluster(0)
        changed = _reseed_dead_slots(state, 0.3, Constraints(), rng, None)
        assert changed
        assert state.row_member[0].sum() > 3

    def test_infeasible_cluster_reseeded_in_target_mode(self):
        state, rng = self.make_state(rng_seed=1)
        before = state.row_member.copy()
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=0.001
        )
        # Random clusters on uniform data are all far above the target.
        assert changed
        assert not (state.row_member == before).all()

    def test_duplicate_locked_clusters_deduplicated(self):
        state, rng = self.make_state(rng_seed=2, k=2)
        # Make both clusters identical, large, and trivially feasible.
        member_rows = np.zeros(40, dtype=bool)
        member_rows[:10] = True
        member_cols = np.zeros(20, dtype=bool)
        member_cols[:8] = True
        for c in (0, 1):
            state.row_member[c] = member_rows
            state.col_member[c] = member_cols
            state.refresh_cluster(c)
        state.residues[:] = 0.0  # pretend both are coherent
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=1000.0
        )
        assert changed
        # Exactly one of the twins must have been reseeded.
        same0 = (state.row_member[0] == member_rows).all()
        same1 = (state.row_member[1] == member_rows).all()
        assert same0 != same1

    def test_healthy_state_untouched(self):
        state, rng = self.make_state(rng_seed=3)
        before_rows = state.row_member.copy()
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=None
        )
        # Literal mode: no residue-based death; clusters are above floor.
        assert not changed
        assert (state.row_member == before_rows).all()


class TestFastCaches:
    """The incremental caches must agree with a full refresh after any
    sequence of toggles."""

    def test_cache_consistency_random_walk(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(20, 12))
        values[rng.random((20, 12)) < 0.15] = np.nan
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(20, 12, 2, 0.4, rng)
        state = _State(values, mask, seeds)
        for step in range(60):
            kind = "row" if rng.random() < 0.5 else "col"
            index = int(rng.integers(0, 20 if kind == "row" else 12))
            c = int(rng.integers(0, 2))
            state.toggle(kind, index, c)
            # Compare incremental caches against a from-scratch rebuild.
            rows = np.flatnonzero(state.row_member[c])
            cols = np.flatnonzero(state.col_member[c])
            filled = np.where(mask, values, 0.0)
            expected_col_sums = filled[rows, :].sum(axis=0)
            expected_row_sums = filled[:, cols].sum(axis=1)
            assert np.allclose(state.col_sums[c], expected_col_sums)
            assert np.allclose(state.row_sums[c], expected_row_sums)
            assert (
                state.col_counts[c] == mask[rows, :].sum(axis=0)
            ).all()
            assert (
                state.row_counts[c] == mask[:, cols].sum(axis=1)
            ).all()

    def test_fast_candidate_close_to_exact_for_additions(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 10))
        seeds = bernoulli_seeds(30, 10, 1, 0.4, rng)
        state = _State(values, ~np.isnan(values), seeds)
        outside = np.flatnonzero(~state.row_member[0])
        for index in outside[:5]:
            fast_res, fast_vol = fast_candidate(state, "row", int(index), 0)
            exact_res, exact_vol = exact_candidate(state, "row", int(index), 0)
            assert fast_vol == exact_vol
            # Frozen-bases estimate: same ballpark, not exact.
            assert fast_res == pytest.approx(exact_res, rel=0.5, abs=0.5)

    def test_batch_candidates_match_per_cluster(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(25, 14))
        values[rng.random((25, 14)) < 0.2] = np.nan
        seeds = bernoulli_seeds(25, 14, 4, 0.35, rng)
        state = _State(values, ~np.isnan(values), seeds)
        # Include degenerate clusters: one at the floor, one tiny.
        state.row_member[3] = False
        state.row_member[3, :2] = True
        state.col_member[3] = False
        state.col_member[3, :2] = True
        state.refresh_cluster(3)
        for kind, limit in (("row", 25), ("col", 14)):
            for index in range(limit):
                batch = candidate_parts_batch(state, kind, index)
                for c in range(4):
                    single = _candidate_parts(state, kind, index, c)
                    assert float(batch[0][c]) == pytest.approx(
                        single[0], rel=1e-12, abs=1e-12
                    ), (kind, index, c)
                    assert int(batch[1][c]) == single[1]
                    assert float(batch[2][c]) == pytest.approx(
                        single[2], rel=1e-12, abs=1e-12
                    )

    def test_snapshot_restore_round_trip(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(15, 8))
        seeds = bernoulli_seeds(15, 8, 2, 0.4, rng)
        state = _State(values, ~np.isnan(values), seeds)
        snapshot = state.snapshot()
        for __ in range(10):
            state.toggle("row", int(rng.integers(0, 15)), int(rng.integers(0, 2)))
        state.restore(snapshot)
        assert (state.row_member == snapshot["row_member"]).all()
        assert np.allclose(state.row_sums, snapshot["row_sums"])
        assert np.allclose(state.residues, snapshot["residues"])


class TestSnapshotRestoreProperty:
    """Snapshot/restore must be a *bit-exact* undo, not an approximate one.

    Twin construction: both states apply the same prefix ``t1``; one then
    detours through ``t2`` and restores the snapshot.  Every piece of
    state -- membership, residues, occupancy counts, fast caches -- and
    every subsequent toggle-gain evaluation must be bitwise identical to
    the twin that never detoured.  (The checkpoint/resume parity of
    ``repro.runtime`` rests on this class of exact-undo invariant.)
    """

    N_ROWS, N_COLS, K = 12, 7, 3

    _toggle_ops = st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 10 ** 6),
            st.integers(0, 10 ** 6),
        ),
        max_size=12,
    )

    def _make_twins(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(self.N_ROWS, self.N_COLS))
        values[rng.random(size=values.shape) < 0.15] = NAN
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(
            self.N_ROWS, self.N_COLS, self.K, 0.4,
            np.random.default_rng(seed + 1),
        )
        return (
            _State(values, mask, seeds),
            _State(values, mask, seeds),
        )

    def _apply(self, state, ops):
        for is_row, index, cluster in ops:
            kind = "row" if is_row else "col"
            limit = self.N_ROWS if is_row else self.N_COLS
            state.toggle(kind, index % limit, cluster % self.K)

    @staticmethod
    def _assert_bit_identical(a, b, label):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), label
        else:
            assert np.array_equal(a, b), label

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), t1=_toggle_ops,
           t2=_toggle_ops)
    def test_round_trip_is_bit_exact(self, seed, t1, t2):
        state, twin = self._make_twins(seed)
        self._apply(state, t1)
        self._apply(twin, t1)
        snapshot = state.snapshot()
        self._apply(state, t2)
        state.restore(snapshot)
        for attr in ("row_member", "col_member", "residues", "volumes",
                     "row_sums", "row_counts", "col_sums", "col_counts"):
            self._assert_bit_identical(
                getattr(state, attr), getattr(twin, attr), attr
            )
        for kind, limit in (("row", self.N_ROWS), ("col", self.N_COLS)):
            for index in range(limit):
                parts_a = candidate_parts_batch(state, kind, index)
                parts_b = candidate_parts_batch(twin, kind, index)
                for part_a, part_b in zip(parts_a, parts_b):
                    self._assert_bit_identical(
                        part_a, part_b, (kind, index)
                    )
