"""Tests for the graph-wide slack engine (backward required-time pass).

The invariants pinned here: per-arc slacks telescope bit-exactly onto
the endpoint slack in every analysis mode, and the vectorized columnar
sweep reproduces the deleted object-graph reference sweep's results,
frozen in ``tests/golden/sta.json``, ``float.hex()`` for ``float.hex()``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import s27
from repro.circuit.generators import S35932_SPEC, generate_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.checkpoint import _decode_pass, _encode_pass
from repro.core.constraints import check_hold, check_setup
from repro.core.graph import TimingState
from repro.core.minpath import MinAnalysisMode, MinPropagator
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.propagation import PassResult
from repro.core.slack import (
    SLACK_SCHEMA,
    compute_slack,
    format_slack,
    slack_payload,
    validate_slack,
)
from repro.errors import InputError
from repro.flow import prepare_design
from tests.golden.make_sta import FIXTURE_PATH, slack_entry

with open(FIXTURE_PATH) as _handle:
    GOLDEN = json.load(_handle)["circuits"]["s27"]["modes"]

ALL_MODES = list(AnalysisMode)


@pytest.fixture(scope="module")
def design():
    return prepare_design(s27())


@pytest.fixture(scope="module")
def results(design):
    """One forward run per mode; slack passes reuse them."""
    sta = CrosstalkSTA(design, StaConfig())
    return {mode: sta.run(mode) for mode in ALL_MODES}


def _slack_hexes(slack):
    return (
        float(slack.worst_slack).hex(),
        {k: float(v).hex() for k, v in slack.net_slack.items()},
        {k: float(v).hex() for k, v in slack.arc_slack.items()},
    )


class TestCrossCoreIdentity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("period", [1.2e-9, 0.4e-9], ids=["met", "violated"])
    def test_columnar_matches_object_bitwise(self, design, results, mode, period):
        col = compute_slack(design, results[mode], period)
        golden = GOLDEN[mode.value]["slack"][float(period).hex()]
        assert slack_entry(col) == golden
        assert col.violations == golden["violations"]
        assert (
            float(col.total_negative_slack).hex() == golden["total_negative_slack"]
        )

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_payload_telescopes_bit_exactly(self, design, results, mode):
        result = results[mode]
        slack = compute_slack(design, result, 0.4e-9)
        payload = slack_payload(design.circuit, result, slack, k=2)
        assert payload["schema"] == SLACK_SCHEMA
        validate_slack(payload)  # raises on any bit mismatch
        assert "worst slack" in format_slack(payload)


class TestSlackSemantics:
    def test_worst_endpoint_matches_setup_check(self, design, results):
        result = results[AnalysisMode.ITERATIVE]
        slack = compute_slack(design, result, 0.4e-9)
        report = check_setup(result, 0.4e-9)
        assert slack.worst_slack == report.worst.slack
        assert slack.worst_endpoint == report.worst.endpoint
        assert slack.violations == len(report.failing())
        assert not slack.met and slack.worst_slack < 0.0

    def test_net_slack_bounded_by_fanout_arc_slacks(self, design, results):
        """A net's slack is the min over its fanout arcs' slacks --
        exactly, because both sides share the same float subtractions."""
        result = results[AnalysisMode.ITERATIVE]
        slack = compute_slack(design, result, 0.4e-9)
        by_input: dict[tuple[str, str], list[float]] = {}
        for (cell_name, pin_name, direction), value in slack.arc_slack.items():
            cell = design.circuit.cells[cell_name]
            # Flip-flop arcs are keyed by the compiled synthetic pin name;
            # the gate-arc invariant is what this test pins.
            pin = cell.pins.get(pin_name)
            if cell.is_sequential or pin is None or pin.net is None:
                continue
            by_input.setdefault((pin.net.name, direction), []).append(value)
        checked = 0
        for key, arc_values in by_input.items():
            net_value = slack.net_slack.get(key)
            if net_value is None:
                continue
            assert min(arc_values) >= net_value
            checked += 1
        assert checked > 10

    def test_total_negative_slack_accumulates_failures(self, design, results):
        result = results[AnalysisMode.WORST_CASE]
        slack = compute_slack(design, result, 0.4e-9)
        expected = sum(s.slack for s in slack.endpoints.slacks if s.slack < 0.0)
        assert slack.total_negative_slack == pytest.approx(expected, abs=1e-18)
        assert slack.violations == sum(
            1 for s in slack.endpoints.slacks if s.slack < 0.0
        )

    def test_met_period_has_no_violations(self, design, results):
        slack = compute_slack(
            design, results[AnalysisMode.BEST_CASE], 1.5e-9
        )
        assert slack.met
        assert slack.violations == 0
        assert slack.total_negative_slack == 0.0
        assert all(v >= 0.0 for v in slack.net_slack.values())


class TestPayloadPathOrder:
    def test_paths_ranked_by_endpoint_slack(self):
        """Endpoints have different required times (a flip-flop ``D`` pin
        pays the setup time, a primary output does not), so the latest
        arrival need not carry the worst slack.  On this generated design
        ``PO_N1472`` arrives last while ``FFQ76__g1627/D`` has the worst
        slack; the payload must lead with the worst-slack path."""
        spec = dataclasses.replace(S35932_SPEC.scaled(0.1), seed=375158)
        design = prepare_design(generate_circuit(spec))
        result = CrosstalkSTA(
            design, StaConfig(mode=AnalysisMode.ONE_STEP, clock_period=6e-9)
        ).run()
        assert result.critical_endpoint == "PO_N1472"
        assert result.slack.worst_endpoint == "FFQ76__g1627/D"
        payload = slack_payload(design.circuit, result, result.slack, k=3)
        validate_slack(payload)
        assert payload["paths"][0]["endpoint"] == "FFQ76__g1627/D"
        slacks = [float.fromhex(path["slack_hex"]) for path in payload["paths"]]
        assert len(slacks) == 3
        assert slacks == sorted(slacks)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(period_ps=st.floats(min_value=300.0, max_value=2000.0))
def test_property_telescoping_and_core_invariance(design, results, period_ps):
    """For any clock period: per-arc slacks telescope onto the endpoint
    slack bit-exactly, and the final pass decoded from its checkpoint
    encoding into fresh state columns yields ``float.hex()``-identical
    slacks."""
    period = period_ps * 1e-12
    result = results[AnalysisMode.ITERATIVE]
    col = compute_slack(design, result, period)
    decoded = _decode_pass(
        _encode_pass(result.final_pass), result.final_pass.state.compiled
    )
    assert _slack_hexes(compute_slack(design, decoded, period)) == _slack_hexes(col)
    payload = slack_payload(design.circuit, result, col, k=1)
    validate_slack(payload)
    # The reported worst endpoint tracks the minimum over all nets (to
    # rounding: the seed subtracts the terminal's Elmore delta in a
    # different association than the endpoint check, so the two floats
    # may differ in the last ulp).
    finite = [v for v in col.net_slack.values() if math.isfinite(v)]
    assert min(finite) == pytest.approx(col.worst_slack, abs=1e-15)


class TestConstraintConfig:
    def test_bad_clock_period_rejected(self):
        with pytest.raises(InputError):
            StaConfig(clock_period=0.0)
        with pytest.raises(InputError):
            StaConfig(clock_period=-1e-9)

    def test_negative_requirements_rejected(self):
        with pytest.raises(InputError):
            StaConfig(setup_time=-1e-12)
        with pytest.raises(InputError):
            StaConfig(hold_time=-1e-12)

    def test_check_hold_defaults_from_config(self, design):
        min_result = MinPropagator(design).run(MinAnalysisMode.WORST)
        defaulted = check_hold(min_result)
        explicit = check_hold(min_result, StaConfig().hold_time)
        assert defaulted.hold_time == explicit.hold_time
        assert [s.slack for s in defaulted.slacks] == [
            s.slack for s in explicit.slacks
        ]

    def test_analyzer_attaches_slack_only_with_period(self, design):
        with_period = CrosstalkSTA(
            design, StaConfig(clock_period=1.2e-9)
        ).run(AnalysisMode.BEST_CASE)
        assert with_period.slack is not None
        assert with_period.worst_slack == with_period.slack.worst_slack
        without = CrosstalkSTA(design, StaConfig()).run(AnalysisMode.BEST_CASE)
        assert without.slack is None
        assert without.worst_slack is None

    def test_columnar_core_requires_columnar_state(self, design):
        """The sweep reads the propagator's column state; a plain
        ``TimingState`` (the min-delay propagator's) is rejected."""
        with pytest.raises(InputError):
            compute_slack(design, PassResult(state=TimingState()), 1.0e-9)
