"""Property tests for the batched gain engine (``repro.core.gain_engine``).

The engine's whole claim is *equivalence*: the batched exact evaluator,
its single-candidate form, and the vectorised gain ladder must
reproduce the per-action oracle path (``exact_candidate`` from
``tests/oracles.py`` / ``evaluate_toggle`` / scalar ``_gain``) -- exactly
where exactness is promised (volumes, chosen actions, bitwise-identical
lane entries) and to float tolerance where the oracle recomputes from
scratch (residues).
The WorkCounters accounting rules of the batched counters are pinned
here too.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.gain_engine as ge
from repro.core.constraints import Constraints
from repro.core.floc import _State, _gain, floc
from repro.core.gain_engine import GainEngine, gain_lane
from repro.core.seeding import bernoulli_seeds
from repro.data.synthetic import generate_embedded
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.obs.perf.counters import WorkCounters

from .oracles import candidate_parts_batch, exact_candidate

# -- strategies --------------------------------------------------------


def matrices_with_missing(min_side=3, max_side=10):
    side = st.integers(min_side, max_side)
    return side.flatmap(
        lambda n: side.flatmap(
            lambda m: arrays(
                np.float64,
                (n, m),
                elements=st.one_of(
                    st.floats(
                        min_value=-1e4, max_value=1e4,
                        allow_nan=False, allow_infinity=False,
                    ),
                    st.just(float("nan")),
                ),
            )
        )
    )


def make_state(values, seed, k, work=None, p=0.4):
    mask = ~np.isnan(values)
    rng = np.random.default_rng(seed)
    seeds = bernoulli_seeds(values.shape[0], values.shape[1], k, p, rng)
    return _State(values, mask, seeds, work=work)


# -- exact lane vs the per-action oracle -------------------------------


class TestExactLaneOracle:
    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_lane_matches_exact_candidate(self, values, seed, k):
        """Full-lane residues/volumes == per-action evaluate_toggle rescans."""
        state = make_state(values, seed, k)
        for kind in ("row", "col"):
            size = values.shape[0] if kind == "row" else values.shape[1]
            for c in range(k):
                lane = ge.exact_lane(state, kind, c)
                for i in range(size):
                    oracle_res, oracle_vol = exact_candidate(state, kind, i, c)
                    assert int(lane.new_volumes[i]) == oracle_vol
                    assert float(lane.new_residues[i]) == pytest.approx(
                        oracle_res, rel=1e-9, abs=1e-9
                    )

    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_chosen_action_matches_oracle_argmax(self, values, seed, k):
        """best_action's winner == argmax of per-action oracle gains."""
        state = make_state(values, seed, k)
        engine = GainEngine(
            state, Constraints(min_rows=1, min_cols=1),
            alpha=0.0, residue_target=None, gain_mode="exact",
        )
        for kind in ("row", "col"):
            size = values.shape[0] if kind == "row" else values.shape[1]
            for index in range(min(size, 4)):
                picked = engine.best_action(kind, index)
                gains = {}
                for c in range(k):
                    n_c = int(state.row_member[c].sum())
                    m_c = int(state.col_member[c].sum())
                    member = (
                        state.row_member[c] if kind == "row"
                        else state.col_member[c]
                    )
                    if member[index]:  # structural floor on removals
                        if kind == "row" and (n_c - 1 < 1 or m_c < 1):
                            continue
                        if kind == "col" and (n_c < 1 or m_c - 1 < 1):
                            continue
                    res, _ = exact_candidate(state, kind, index, c)
                    gains[c] = _gain(
                        float(state.residues[c]), int(state.volumes[c]),
                        res, 0, residue_target=None,
                    )
                if not gains:
                    assert picked is None
                    continue
                assert picked is not None
                best = max(gains.values())
                # Chosen cluster is a maximiser of the oracle gains (up
                # to float tolerance -- ulp ties may pick either), and
                # the reported gain is that cluster's oracle gain.
                assert picked[0] in gains
                assert gains[picked[0]] == pytest.approx(
                    best, rel=1e-9, abs=1e-9
                )
                assert picked[3] == pytest.approx(
                    gains[picked[0]], rel=1e-9, abs=1e-9
                )


# -- estimate lane vs candidate_parts_batch (bitwise) ------------------


class TestEstimateLane:
    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_estimate_lane_bitwise_equals_batch(self, values, seed, k):
        state = make_state(values, seed, k)
        for kind in ("row", "col"):
            size = values.shape[0] if kind == "row" else values.shape[1]
            lanes = [ge.estimate_lane(state, kind, c) for c in range(k)]
            for index in range(size):
                new_res, new_vol, line_res, _, _ = candidate_parts_batch(
                    state, kind, index
                )
                for c in range(k):
                    assert lanes[c].new_residues[index] == new_res[c]
                    assert lanes[c].new_volumes[index] == new_vol[c]
                    assert lanes[c].line_residues[index] == line_res[c]


# -- the scalar form is bitwise-identical to the full lane -------------


class TestScalarParity:
    def test_exact_one_bitwise_equals_full_lane(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            N = int(rng.integers(8, 80))
            M = int(rng.integers(4, 30))
            k = int(rng.integers(1, 6))
            values = rng.normal(size=(N, M)) * 3
            values[rng.random((N, M)) < 0.15] = np.nan
            mask = ~np.isnan(values)
            seeds = bernoulli_seeds(N, M, k, 0.3, rng)
            state = _State(values, mask, seeds, work=None)
            for kind in ("row", "col"):
                size = N if kind == "row" else M
                for c in range(k):
                    ctx = ge.exact_context(state, kind, c)
                    full = ge.exact_lane(state, kind, c)
                    for i in rng.integers(0, size, size=min(4, size)):
                        i = int(i)
                        nr, nv, lr = ge.exact_one(state, kind, i, c, ctx)
                        assert nr == full.new_residues[i]
                        assert nv == full.new_volumes[i]
                        assert lr == full.line_residues[i]

    def test_ctx_reuse_bitwise_equals_fresh_ctx(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 12))
        values[rng.random((40, 12)) < 0.1] = np.nan
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(40, 12, 3, 0.3, rng)
        state = _State(values, mask, seeds, work=None)
        for kind in ("row", "col"):
            for c in range(3):
                ctx = ge.exact_context(state, kind, c)
                for i in range(40 if kind == "row" else 12):
                    with_ctx = ge.exact_one(state, kind, i, c, ctx)
                    assert with_ctx == ge.exact_one(state, kind, i, c)


# -- vectorised gain ladder vs the scalar ------------------------------


class TestGainLane:
    finite = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)

    @given(
        finite,
        st.integers(0, 1000),
        st.lists(finite, min_size=1, max_size=8),
        st.lists(st.integers(0, 1000), min_size=8, max_size=8),
        st.one_of(st.none(), st.floats(1e-3, 1e3)),
        st.lists(finite, min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_gain_lane_bitwise_equals_scalar_gain(
        self, old_res, old_vol, new_res, new_vol, target, line_res, is_add
    ):
        n = len(new_res)
        new_vol, line_res, is_add = new_vol[:n], line_res[:n], is_add[:n]
        lane = gain_lane(
            old_res, old_vol,
            np.asarray(new_res), np.asarray(new_vol, dtype=np.float64),
            target,
            np.asarray(line_res), np.asarray(is_add),
        )
        for i in range(n):
            scalar = _gain(
                old_res, old_vol, new_res[i], int(new_vol[i]), target,
                line_residue=line_res[i], is_addition=is_add[i],
            )
            assert lane[i] == scalar, (i, lane[i], scalar)


# -- admission filter: pruned candidates never have a positive gain ----


class TestAdmissionBound:
    @given(
        matrices_with_missing(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0.1, 0.7),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_pruned_candidates_have_nonpositive_gain(
        self, values, seed, k, p, target_scale
    ):
        """Every candidate the admission pass prunes has gain <= 0.

        Small seeds (low ``p``) put clusters at the structural floor
        (one row or column, emptying removals); the target is scaled
        around the median cluster residue so feasible and infeasible
        clusters both occur.
        """
        state = make_state(values, seed, k, p=p)
        scale = float(np.median(state.residues))
        target = max(scale * target_scale, 1e-6)
        for kind in ("row", "col"):
            for c in range(k):
                ctx = ge._exact_header(state, kind, c)
                pruned = ge._admission_prunable(state, ctx, target)
                lane = ge.exact_lane(state, kind, c)
                member = (
                    state.row_member[c] if kind == "row"
                    else state.col_member[c]
                )
                gains = gain_lane(
                    float(state.residues[c]), int(state.volumes[c]),
                    lane.new_residues, lane.new_volumes, target,
                    lane.line_residues, ~member,
                )
                assert (gains[pruned] <= 0.0).all(), (kind, c)

    @given(
        matrices_with_missing(),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0.1, 0.7),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_filtered_consult_is_the_lane_consult_when_positive(
        self, values, seed, k, p, target_scale
    ):
        """Consult contract of the filtered path: the lane engine's
        choice when its gain is positive, ``None`` otherwise."""
        state = make_state(values, seed, k, p=p)
        target = max(float(np.median(state.residues)) * target_scale, 1e-6)
        constraints = Constraints(min_rows=2, min_cols=2)
        lanes = GainEngine(state, constraints, 0.0, target, "exact")
        filtered = GainEngine(
            state, constraints, 0.0, target, "exact", mandatory_moves=False
        )
        for kind in ("row", "col"):
            size = values.shape[0] if kind == "row" else values.shape[1]
            for index in range(size):
                want = lanes.best_action(kind, index)
                if want is not None and want[3] <= 0.0:
                    want = None
                assert filtered.best_action(kind, index) == want

    def test_admission_pass_prunes_most_planted_candidates(self):
        """The bound is not vacuous: on a planted matrix most of a
        consult's candidates are pruned."""
        dataset = generate_embedded(
            120, 24, 3, cluster_shape=(15, 7), noise=1.0, rng=5
        )
        values = dataset.matrix.values
        state = make_state(values, 3, 4, p=0.3)
        target = 2.0 * dataset.embedded_average_residue()
        pruned = total = 0
        for kind in ("row", "col"):
            for c in range(4):
                ctx = ge._exact_header(state, kind, c)
                mask = ge._admission_prunable(state, ctx, target)
                pruned += int(mask.sum())
                total += mask.size
        assert pruned > total // 2


# -- WorkCounters accounting rules -------------------------------------


class TestCounterAccounting:
    def _payload(self, work):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(60, 20))
        values[rng.random((60, 20)) < 0.1] = np.nan
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(60, 20, 4, 0.3, rng)
        return _State(values, mask, seeds, work=work)

    def test_exact_context_counts_one_residue_eval_of_volume_cells(self):
        work = WorkCounters()
        state = self._payload(work)
        before = work.copy()
        ctx = ge.exact_context(state, "row", 0)
        assert work.residue_evals == before.residue_evals + 1
        assert work.cells_scanned == before.cells_scanned + ctx.volume
        assert work.toggle_evals == before.toggle_evals
        assert work.batch_evals == before.batch_evals

    def test_header_counts_nothing_and_table_one_residue_eval(self):
        work = WorkCounters()
        state = self._payload(work)
        before = work.copy()
        ctx = ge._exact_header(state, "col", 1)
        assert work == before
        ge._sort_table(state, ctx)
        assert work.residue_evals == before.residue_evals + 1
        assert work.cells_scanned == before.cells_scanned + ctx.volume
        assert work.batch_evals == before.batch_evals

    def test_admission_pass_counts_like_a_lane_candidate_scan(self):
        work = WorkCounters()
        state = self._payload(work)
        ctx = ge._exact_header(state, "row", 0)
        before = work.copy()
        ge._admission_prunable(state, ctx, 1.0)
        assert work.batch_evals == before.batch_evals + 1
        assert work.toggle_evals == before.toggle_evals + 60
        assert work.cells_scanned == (
            before.cells_scanned + int(ctx.line_counts.sum())
        )
        assert work.residue_evals == before.residue_evals
        assert work.lane_builds == before.lane_builds

    def test_exact_lane_counts_batch_and_per_slot_toggles(self):
        # One context build (a residue eval of the cluster volume) plus
        # the lane's candidate block.
        work = WorkCounters()
        state = self._payload(work)
        before = work.copy()
        lane = ge.exact_lane(state, "row", 0)
        assert work.residue_evals == before.residue_evals + 1
        assert work.batch_evals == before.batch_evals + 1
        assert work.lane_builds == before.lane_builds + 1
        assert work.toggle_evals == before.toggle_evals + 60
        assert work.cells_scanned == (
            before.cells_scanned + int(state.volumes[0])
            + int(lane.line_counts.sum())
        )

    def test_exact_one_counts_one_toggle_of_line_count_cells(self):
        work = WorkCounters()
        state = self._payload(work)
        ctx = ge.exact_context(state, "row", 0)
        full = ge.exact_lane(state, "row", 0)
        before = work.copy()
        ge.exact_one(state, "row", 5, 0, ctx)
        assert work.toggle_evals == before.toggle_evals + 1
        assert work.cells_scanned == (
            before.cells_scanned + int(full.line_counts[5])
        )
        assert work.batch_evals == before.batch_evals
        assert work.lane_builds == before.lane_builds


# -- full-run identity: engine caching policies are invisible ----------


def _fingerprint(res):
    return (
        res.n_iterations, res.n_actions, res.converged, res.average_residue,
        tuple((tuple(c.rows), tuple(c.cols)) for c in res.clustering.clusters),
    )


class _EagerEngine(GainEngine):
    """Reference engine: eager full lanes, admission filter disabled.

    The engine is told every move is mandatory, so it returns negative
    gains; ``floc`` still skips them when its own ``mandatory_moves``
    is off.
    """

    def __init__(self, *args, **kwargs):
        kwargs["mandatory_moves"] = True
        super().__init__(*args, **kwargs)


def _golden_digest(res):
    """SHA-256 of a run's iterations, actions, history and memberships.

    History floats enter as ``float.hex`` so the digest is bit-exact.
    """
    payload = repr((
        res.n_iterations,
        res.n_actions,
        [float(h).hex() for h in res.history],
        [
            ([int(r) for r in c.rows], [int(j) for j in c.cols])
            for c in res.clustering.clusters
        ],
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestRunIdentity:
    # Digests recorded with an engine that also had lazy scalar consults
    # (for the 30 columns, the minority kind) and block-windowed lane
    # rebuilds (for the 250 rows); both runs engaged both strategies.
    # The eager lanes that replaced them must reproduce each run bit
    # for bit.
    @pytest.mark.parametrize("kwargs, digest", [
        pytest.param(
            dict(residue_target=2.0, mandatory_moves=True),
            "7879e7a7c446da94d9f9d0cba755b2b0fc2991d2a82324ddfdcee05581792be4",
            id="mandatory_moves",
        ),
        pytest.param(
            dict(residue_target=None),
            "88e3fe6663d0a2e0f310051a3662f1f9ab50a1661e1cd46d00aabc0f7f2c6673",
            id="residue_target_none",
        ),
    ])
    def test_exact_run_matches_golden_fingerprint(self, kwargs, digest):
        dataset = generate_embedded(
            250, 30, 4, cluster_shape=(20, 8), noise=1.0, rng=0
        )
        result = floc(
            dataset.matrix, 8, gain_mode="exact", max_iterations=12, rng=7,
            **kwargs,
        )
        assert _golden_digest(result) == digest

    @pytest.mark.parametrize("ordering", ["weighted", "greedy", "random"])
    @pytest.mark.parametrize("missing", [0.0, 0.2])
    def test_admission_filter_bit_identical_to_full_lanes(
        self, missing, ordering, monkeypatch
    ):
        dataset = generate_embedded(
            250, 30, 4, cluster_shape=(20, 8), noise=1.0,
            missing_fraction=missing, rng=0,
        )
        kwargs = dict(
            ordering=ordering, residue_target=2.0, reseed_rounds=2,
            max_iterations=12, rng=7,
        )
        filtered_work, eager_work = WorkCounters(), WorkCounters()
        filtered = floc(dataset.matrix, 8, work=filtered_work, **kwargs)
        monkeypatch.setattr(ge, "GainEngine", _EagerEngine)
        eager = floc(dataset.matrix, 8, work=eager_work, **kwargs)
        assert _fingerprint(filtered) == _fingerprint(eager)
        assert filtered.history == eager.history
        assert filtered_work.lane_builds == 0 < eager_work.lane_builds

    def test_blocked_action_count_matches_full_lanes(self, monkeypatch):
        """``actions_blocked_by_constraint`` keeps its meaning on the
        filtered path: structurally blocked (slot, cluster) pairs per
        consult, pruned or not."""
        dataset = generate_embedded(
            120, 24, 3, cluster_shape=(15, 7), noise=1.0, rng=2
        )
        kwargs = dict(
            residue_target=2.0, max_iterations=8, rng=3,
            constraints=Constraints(min_rows=3, min_cols=3, max_volume=120),
        )

        def blocked_count():
            tracer = Tracer(sinks=[RingBufferSink()], metrics=MetricsRegistry())
            result = floc(dataset.matrix, 6, tracer=tracer, **kwargs)
            return _fingerprint(result), result.metrics["counters"].get(
                "actions_blocked_by_constraint", 0
            )

        filtered = blocked_count()
        monkeypatch.setattr(ge, "GainEngine", _EagerEngine)
        eager = blocked_count()
        assert filtered == eager
        assert filtered[1] > 0

    def test_cached_engine_matches_fresh_engine(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(50, 15))
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(50, 15, 3, 0.3, rng)
        state = _State(values, mask, seeds, work=None)

        def new_engine():
            return GainEngine(
                state, Constraints(min_rows=1, min_cols=1),
                alpha=0.0, residue_target=2.0, gain_mode="exact",
            )

        engine = new_engine()
        first = [engine.best_action("row", i) for i in range(50)]
        cached = [engine.best_action("row", i) for i in range(50)]
        fresh_engine = new_engine()
        fresh = [fresh_engine.best_action("row", i) for i in range(50)]
        assert first == cached == fresh


# -- satellite: empty-action sweeps take no snapshots ------------------


class TestEmptySweepSnapshotSkip:
    def test_zero_action_run_takes_only_the_initial_snapshot(self):
        # Paper-literal mode on a constant matrix: every toggle leaves
        # the residue at 0, every gain is 0, and mandatory_moves=False
        # performs nothing -- the sweep is empty from the start, so the
        # per-iteration bookkeeping must not deep-copy the state at all
        # beyond the initial best-state capture.
        work = WorkCounters()
        values = np.full((30, 10), 5.0)
        result = floc(
            values, 3, gain_mode="exact", residue_target=None,
            max_iterations=10, rng=1, work=work,
        )
        assert result.converged
        assert result.n_actions == 0
        assert work.snapshots == 1
        assert work.restores == 0

    def test_terminal_empty_sweep_adds_no_snapshot(self):
        # A converging r-residue run ends with one empty sweep; only
        # sweeps that performed actions may snapshot/restore.  Initial
        # capture: 1.  Improving sweep: iteration_start + new best = 2
        # snapshots, 1 restore.  Non-improving sweep with actions:
        # 1 snapshot, 1 restore.  The terminal empty sweep: nothing --
        # so snapshots < 1 + 2 * iterations must hold strictly even in
        # the all-improving worst case.
        work = WorkCounters()
        values = np.full((30, 10), 5.0)
        result = floc(
            values, 3, gain_mode="exact", residue_target=2.0,
            max_iterations=10, rng=1, work=work,
        )
        assert result.converged
        assert work.snapshots < 1 + 2 * result.n_iterations
        assert work.restores < result.n_iterations
