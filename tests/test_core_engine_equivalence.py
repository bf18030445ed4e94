"""The solver engine and the propagation core against frozen results.

The analysis once carried two reference implementations beside the
batched solver and the columnar propagation core: a per-arc scalar
engine and a per-object core.  All three were ``float.hex()``-identical
in every mode when the references were deleted, and their results are
frozen in ``tests/golden/sta.json`` (regenerate with
``tests/golden/make_sta.py``).  These tests pin that the one engine and
the one core still produce exactly those numbers -- longest delay, every
endpoint arrival, every pass's accounting, the provenance ledger and the
slack -- for ``s27`` and ``gen:s35932`` at scale 0.05, and in every
composition: incremental reuse on and off, checkpoint resume, warm start,
the screened tier and the worker pool.
"""

import json

import pytest

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, SolverTier, StaConfig
from repro.core.slack import compute_slack
from repro.flow import prepare_design
from repro.testing import newton_failures
from tests.golden.make_sta import (
    DESIGNS,
    FIXTURE_PATH,
    arrival_hexes,
    design_for,
    digest,
    pass_rows,
    slack_entry,
)

with open(FIXTURE_PATH) as _handle:
    GOLDEN = json.load(_handle)["circuits"]


def _periods(name):
    return DESIGNS[name][2]


@pytest.fixture(scope="module")
def designs():
    return {name: design_for(name) for name in DESIGNS}


@pytest.fixture(scope="module")
def s27_design(designs):
    return designs["s27"]


@pytest.fixture(scope="module")
def results(designs):
    """Every design in every mode, run the way the fixture was made: one
    analyzer per design, modes in ``AnalysisMode`` order."""
    out = {}
    for name, design in designs.items():
        sta = CrosstalkSTA(design, StaConfig())
        out[name] = {mode: sta.run(mode) for mode in AnalysisMode}
    return out


def _golden(name, mode):
    return GOLDEN[name]["modes"][mode.value]


def _assert_matches_mode(name, mode, result):
    """Longest delay, critical endpoint and every arrival hex-equal."""
    golden = _golden(name, mode)
    assert float(result.longest_delay).hex() == golden["longest_delay"], name
    assert result.critical_endpoint == golden["critical_endpoint"], name
    assert result.critical_direction == golden["critical_direction"], name
    assert arrival_hexes(result) == golden["arrivals"], name


class TestEngineEquivalence:
    """The batched solver against the frozen scalar-engine results."""

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_bit_identical(self, results, mode):
        for name, by_mode in results.items():
            golden = _golden(name, mode)
            result = by_mode[mode]
            assert float(result.longest_delay).hex() == golden["longest_delay"], name
            assert result.critical_endpoint == golden["critical_endpoint"], name
            assert result.critical_direction == golden["critical_direction"], name

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_endpoint_arrival_matches(self, results, mode):
        for name, by_mode in results.items():
            assert arrival_hexes(by_mode[mode]) == _golden(name, mode)["arrivals"], name

    def test_same_evaluation_accounting(self, results):
        """The same arcs are walked and the same decisions made."""
        for name, by_mode in results.items():
            for mode, result in by_mode.items():
                golden = _golden(name, mode)
                assert result.arcs_processed == golden["arcs_processed"], name
                assert result.waveform_evaluations == golden["waveform_evaluations"]
                assert result.coupled_arcs == golden["coupled_arcs"], name
                assert result.passes == len(golden["passes"]), name

    def test_batch_engine_used_vectorized_solves(self, results):
        stats = results["s27"][AnalysisMode.ITERATIVE].cache_stats
        assert stats["batched_solves"] > 0


class TestIncrementalEquivalence:
    """Delta-driven reuse must be invisible in the numbers: the memoized
    relative results re-anchor to exactly what a fresh solve would
    return, so with the memo on or off every mode reproduces the frozen
    bound, pass by pass and endpoint by endpoint."""

    @pytest.fixture(scope="class")
    def pair(self, s27_design):
        out = {}
        for incremental in (True, False):
            sta = CrosstalkSTA(s27_design, StaConfig(incremental=incremental))
            out[incremental] = {mode: sta.run(mode) for mode in AnalysisMode}
        return out

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_bit_identical(self, pair, mode):
        golden = _golden("s27", mode)
        for incremental in (True, False):
            result = pair[incremental][mode]
            assert float(result.longest_delay).hex() == golden["longest_delay"]
            assert result.critical_endpoint == golden["critical_endpoint"]
            assert result.critical_direction == golden["critical_direction"]

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_pass_bit_identical(self, pair, mode):
        golden = [row["longest_delay"] for row in _golden("s27", mode)["passes"]]
        for incremental in (True, False):
            history = pair[incremental][mode].history
            assert [float(r.longest_delay).hex() for r in history] == golden

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_endpoint_arrival_bit_identical(self, pair, mode):
        golden = _golden("s27", mode)["arrivals"]
        for incremental in (True, False):
            assert arrival_hexes(pair[incremental][mode]) == golden

    def test_iterative_later_passes_reuse(self, pair):
        """Once windows and ramp shapes stabilize, later passes skip the
        waveform work entirely on this small design."""
        history = pair[True][AnalysisMode.ITERATIVE].history
        assert len(history) >= 2
        assert history[1].waveform_evaluations == 0
        assert history[1].reused_arcs > 0
        assert history[1].dirty_arcs == 0
        # The non-incremental run pays the full pass every time.
        full_history = pair[False][AnalysisMode.ITERATIVE].history
        assert full_history[1].waveform_evaluations > 0
        assert full_history[1].reused_arcs == 0


class TestSolverTierEquivalence:
    """The exact tier must be a true no-op: explicitly requesting
    ``SolverTier.EXACT`` is hex-identical to the default config in every
    mode.  The screened tier is a conservative accelerator: its bound
    may sit above exact, never below, and never beyond the tolerance."""

    @pytest.fixture(scope="class")
    def exact_pair(self, s27_design):
        default = CrosstalkSTA(s27_design, StaConfig())
        explicit = CrosstalkSTA(
            s27_design, StaConfig(solver_tier=SolverTier.EXACT)
        )
        return (
            {mode: default.run(mode) for mode in AnalysisMode},
            {mode: explicit.run(mode) for mode in AnalysisMode},
        )

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_exact_tier_bit_identical_to_default(self, exact_pair, mode):
        default, explicit = exact_pair
        assert (
            default[mode].longest_delay.hex()
            == explicit[mode].longest_delay.hex()
        )
        assert default[mode].critical_endpoint == explicit[mode].critical_endpoint
        d_arrivals = default[mode].arrival_map()
        e_arrivals = explicit[mode].arrival_map()
        assert set(d_arrivals) == set(e_arrivals)
        for key in d_arrivals:
            assert d_arrivals[key].hex() == e_arrivals[key].hex(), key

    def test_exact_tier_reports_no_screen_activity(self, exact_pair):
        _, explicit = exact_pair
        stats = explicit[AnalysisMode.ITERATIVE].cache_stats
        assert stats["solver_tier"] == "exact"
        assert stats["tier_counts"]["surface"] == 0
        assert stats["tier_counts"]["analytical"] == 0

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_screened_conservative_within_tolerance(self, s27_design, mode):
        tolerance = 100e-12
        exact = CrosstalkSTA(s27_design, StaConfig(mode=mode)).run()
        screened = CrosstalkSTA(
            s27_design,
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=tolerance,
            ),
        ).run()
        delta = screened.longest_delay - exact.longest_delay
        assert delta >= -1e-15
        assert delta <= tolerance + 1e-15

    def test_screened_composes_with_incremental(self, s27_design):
        """Screened + memoized passes compose: disabling incremental
        reuse leaves the reported bound bit-identical, and the memoized
        run still reuses arcs once windows stabilize."""
        results = {}
        for incremental in (True, False):
            sta = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=AnalysisMode.ITERATIVE,
                    incremental=incremental,
                    solver_tier=SolverTier.SCREENED,
                ),
            )
            results[incremental] = sta.run()
        inc, full = results[True], results[False]
        golden = GOLDEN["s27"]["compositions"]["screened"]["iterative"]
        assert inc.longest_delay.hex() == golden["longest_delay"]
        assert full.longest_delay.hex() == golden["longest_delay"]
        assert inc.critical_endpoint == full.critical_endpoint
        assert any(record.reused_arcs > 0 for record in inc.history[1:])
        assert all(record.reused_arcs == 0 for record in full.history)

    def test_screened_composes_with_checkpoint(self, s27_design, tmp_path):
        """A screened iterative run checkpoints and resumes; the resumed
        result matches a straight-through screened run, and the
        checkpoint is keyed to the tier so an exact run never resumes
        screened state."""
        path = tmp_path / "screened.ckpt"
        config = StaConfig(
            mode=AnalysisMode.ITERATIVE,
            solver_tier=SolverTier.SCREENED,
            checkpoint=str(path),
        )
        straight = CrosstalkSTA(s27_design, config).run()
        resumed = CrosstalkSTA(s27_design, config).run()
        golden = GOLDEN["s27"]["compositions"]["screened"]["iterative"]
        assert straight.longest_delay.hex() == golden["longest_delay"]
        assert resumed.longest_delay.hex() == golden["longest_delay"]
        exact_config = StaConfig(
            mode=AnalysisMode.ITERATIVE, checkpoint=str(path)
        )
        exact = CrosstalkSTA(s27_design, exact_config).run()
        assert (
            exact.longest_delay.hex()
            == _golden("s27", AnalysisMode.ITERATIVE)["longest_delay"]
        )

    def test_screened_composes_with_degradation(self, s27_design):
        """Degraded (fault-substituted) solves stay out of the screen
        bank, so graceful degradation under the screened tier still
        yields a bound no smaller than the clean exact run."""
        clean = CrosstalkSTA(
            s27_design, StaConfig(mode=AnalysisMode.ONE_STEP)
        ).run()
        with newton_failures(rate=0.3, seed=3):
            degraded = CrosstalkSTA(
                s27_design,
                StaConfig(
                    mode=AnalysisMode.ONE_STEP,
                    solver_tier=SolverTier.SCREENED,
                ),
            ).run()
        assert degraded.degraded_arcs, "injection produced no degraded arcs"
        assert degraded.longest_delay >= clean.longest_delay - 1e-15


class TestWorkerPool:
    def test_pooled_batch_matches_scalar(self, s27_design):
        """Opt-in multi-process fan-out reproduces the frozen bound."""
        sta = CrosstalkSTA(s27_design, StaConfig(workers=2))
        pooled = sta.run(AnalysisMode.ONE_STEP)
        sta.calculator.close()
        _assert_matches_mode("s27", AnalysisMode.ONE_STEP, pooled)


class TestColumnarCoreEquivalence:
    """The columnar core against the frozen object-core results: every
    arrival, the accounting, every pass, the provenance ledger and the
    slack, in all five modes and in
    every composition (incremental on/off, checkpoint resume, warm
    start, screened tier)."""

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_arrivals_bit_identical(self, results, mode):
        for name, by_mode in results.items():
            golden = _golden(name, mode)["arrivals"]
            arrivals = arrival_hexes(by_mode[mode])
            assert set(arrivals) == set(golden), name
            for key in golden:
                assert arrivals[key] == golden[key], (name, key)

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_longest_delay_and_accounting_identical(self, results, mode):
        for name, by_mode in results.items():
            result = by_mode[mode]
            golden = _golden(name, mode)
            assert float(result.longest_delay).hex() == golden["longest_delay"], name
            assert result.critical_endpoint == golden["critical_endpoint"], name
            assert result.critical_direction == golden["critical_direction"], name
            assert result.arcs_processed == golden["arcs_processed"], name
            assert result.waveform_evaluations == golden["waveform_evaluations"]
            assert result.coupled_arcs == golden["coupled_arcs"], name
            assert result.passes == len(golden["passes"]), name

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_every_pass_bit_identical(self, results, mode):
        for name, by_mode in results.items():
            assert pass_rows(by_mode[mode]) == _golden(name, mode)["passes"], name

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_provenance_ledger_identical(self, results, mode):
        for name, by_mode in results.items():
            ledger = by_mode[mode].ledger
            golden = _golden(name, mode)
            assert ledger is not None
            assert len(ledger) == golden["ledger_rows"], name
            assert ledger.counts() == golden["ledger_counts"], name

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_slack_identical(self, designs, results, mode):
        for name, by_mode in results.items():
            for period in _periods(name):
                slack = compute_slack(designs[name], by_mode[mode], period)
                assert (
                    slack_entry(slack)
                    == _golden(name, mode)["slack"][float(period).hex()]
                ), (name, period)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_incremental_composition_identical(self, s27_design, incremental):
        result = CrosstalkSTA(
            s27_design,
            StaConfig(mode=AnalysisMode.ITERATIVE, incremental=incremental),
        ).run()
        if incremental:
            golden = _golden("s27", AnalysisMode.ITERATIVE)
        else:
            golden = GOLDEN["s27"]["compositions"]["iterative_incremental_off"]
        assert float(result.longest_delay).hex() == golden["longest_delay"]
        assert pass_rows(result) == golden["passes"]

    @pytest.mark.parametrize("name", list(DESIGNS))
    def test_checkpoint_resume_matches_fixture(self, designs, name, tmp_path):
        """A converged checkpoint resumed with a clock period set returns
        the uninterrupted run's arrivals, passes and slack -- worst slack
        and every per-net and per-arc slack -- hex-identical."""
        design = designs[name]
        period = _periods(name)[0]
        config = StaConfig(
            mode=AnalysisMode.ITERATIVE,
            checkpoint=str(tmp_path / "converged.ckpt"),
            clock_period=period,
        )
        CrosstalkSTA(design, config).run()
        resumed = CrosstalkSTA(design, config).run()
        assert resumed.cache_stats["evaluations"] == 0, "resume re-ran passes"
        golden = _golden(name, AnalysisMode.ITERATIVE)
        _assert_matches_mode(name, AnalysisMode.ITERATIVE, resumed)
        assert pass_rows(resumed) == golden["passes"]
        assert slack_entry(resumed.slack) == golden["slack"][float(period).hex()]

    @pytest.mark.parametrize("mode", list(AnalysisMode))
    def test_screened_composition_identical(self, s27_design, mode):
        result = CrosstalkSTA(
            s27_design, StaConfig(mode=mode, solver_tier=SolverTier.SCREENED)
        ).run()
        golden = GOLDEN["s27"]["compositions"]["screened"][mode.value]
        assert float(result.longest_delay).hex() == golden["longest_delay"]
        assert result.waveform_evaluations == golden["waveform_evaluations"]
        assert digest(result.arrival_map()) == golden["arrivals_sha256"]

    def test_warm_start_matches_fixture(self, s27_design):
        """The session what-if path: an analyzer warm-started from a
        retained propagator's memo reuses every unchanged arc and
        reproduces the frozen bound."""
        config = StaConfig(mode=AnalysisMode.ITERATIVE)
        cold = CrosstalkSTA(s27_design, config, keep_propagators=True)
        cold.run()
        warm_sta = CrosstalkSTA(s27_design, config)
        warm_sta.warm_start_from(cold)
        warm = warm_sta.run()
        _assert_matches_mode("s27", AnalysisMode.ITERATIVE, warm)
        assert warm.history[0].reused_arcs > 0


class TestCompiledDesignInterning:
    """The id spaces of :class:`CompiledDesign` are deterministic: an
    identical circuit compiles to identical ids, so cached compiled
    designs, memo columns and provenance rows can be exchanged."""

    def test_recompile_is_id_stable(self, s27_design):
        from repro.core.columnar import compile_design

        a = compile_design(s27_design)
        b = compile_design(prepare_design(s27()))
        assert a.net_names == b.net_names
        assert a.net_id == b.net_id
        assert a.cell_id == b.cell_id
        assert a.n_arcs == b.n_arcs
        assert a.arc_key_index == b.arc_key_index
        for name in (
            "arc_cell",
            "arc_out_net",
            "arc_in_net",
            "arc_in_dir",
            "arc_elmore",
            "arc_is_ff",
            "level_indptr",
            "coup_indptr",
            "coup_net",
            "coup_cap",
            "net_c_fixed",
            "net_cc_total",
        ):
            assert (getattr(a, name) == getattr(b, name)).all(), name

    def test_arc_key_index_round_trip(self, s27_design):
        """Every arc id maps back to the (cell, pin, direction) key that
        interned it, and lookups of that key return the same id."""
        from repro.core.columnar import DIRECTIONS, compile_design

        cp = compile_design(s27_design)
        assert len(cp.arc_key_index) == cp.n_arcs
        for key, arc in cp.arc_key_index.items():
            cell_name, pin, direction = key
            assert cp.cells[cp.arc_cell[arc]].name == cell_name
            assert cp.arc_pin[arc] == pin
            assert DIRECTIONS[cp.arc_in_dir[arc]] == direction

    def test_level_slabs_cover_all_arcs_contiguously(self, s27_design):
        from repro.core.columnar import compile_design

        cp = compile_design(s27_design)
        assert cp.level_indptr[0] == 0
        assert cp.level_indptr[-1] == cp.n_arcs
        assert (cp.level_indptr[1:] >= cp.level_indptr[:-1]).all()
