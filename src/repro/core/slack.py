"""Graph-wide slack: the backward required-time pass.

The forward pass (paper, Sections 4-5) produces worst arrival times; a
repair loop additionally needs to know *how much room* every net and arc
has before the clock period is violated.  This module walks the levelized
timing graph in **reverse**, seeding required arrival times (RATs) at the
capture endpoints from a clock period (the exact per-endpoint formula of
:func:`repro.core.constraints.check_setup`) and relaxing them backwards
across every timing arc:

    ``req(in)  =  min over fanout arcs  of  req(out) - d(arc)``

where ``d(arc) = AT(out) - AT(in)`` is the *realized* stage delay between
the driver-output crossing times the forward pass recorded.  Per-arc
slack is ``(req(out) - d) - AT(in)``; per-net slack is ``req - AT``.
Because float subtraction is monotone and ``min`` is exact, the minimum
of a net's fanout-arc slacks equals its net slack **bitwise** (the slack
property suite pins this invariant).

The sweep consumes the compiled design's CSR level slabs
(:class:`repro.core.columnar.CompiledDesign`) and the column state's
``ev_tc``/``valid`` arrays directly -- one vectorized gather/subtract/
scatter-min per level, in reverse level order.  No operation depends on
evaluation order (``min`` is exact; every candidate is an independent
two-operand subtract), so the results are deterministic bit for bit;
``tests/golden/sta.json`` freezes them.

:func:`slack_payload` decomposes the worst paths' slacks into per-stage
contributions that telescope bit-exactly (the ulp-walked increments of
:mod:`repro.core.explain`), and :func:`validate_slack` re-sums the hex
round-trips to audit the reported numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.circuit.netlist import Circuit, Pin
from repro.core.constraints import ConstraintReport, check_setup
from repro.core.columnar import DIR_INDEX, DIRECTIONS, ColumnTimingState
from repro.core.explain import _exact_increment
from repro.core.paths import endpoint_net_name, extract_critical_path
from repro.core.propagation import PassResult
from repro.errors import EngineError, InputError
from repro.flow.design import Design
from repro.waveform.pwl import FALLING, RISING, opposite

SLACK_SCHEMA = "repro.slack/1"

_INF = float("inf")


@dataclass
class SlackResult:
    """Outcome of one backward required-time pass.

    ``net_required``/``net_slack`` are keyed ``(net name, direction)``
    and cover every net with a finite required time; ``arc_slack`` is
    keyed by the arc's memo identity ``(cell, input pin, input
    direction)`` -- the same key the delta-driven memo and the compiled
    design's ``arc_key_index`` use.  All values are plain Python floats.
    """

    clock_period: float
    setup_time: float
    worst_slack: float
    worst_endpoint: str
    worst_direction: str
    total_negative_slack: float
    violations: int
    endpoints: ConstraintReport
    net_required: dict[tuple[str, str], float] = field(default_factory=dict)
    net_slack: dict[tuple[str, str], float] = field(default_factory=dict)
    arc_slack: dict[tuple[str, str, str], float] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    @property
    def met(self) -> bool:
        return self.violations == 0

    @property
    def worst_slack_ps(self) -> float:
        return self.worst_slack * 1e12

    def slack_of(self, net: str, direction: str) -> float | None:
        return self.net_slack.get((net, direction))

    def worst_net_slack(self, net: str) -> float | None:
        """The net's slack, worst transition direction (None when the
        net carries no required time)."""
        values = [
            s
            for d in (RISING, FALLING)
            if (s := self.net_slack.get((net, d))) is not None
        ]
        return min(values) if values else None

    def summary(self) -> str:
        return self.endpoints.summary()


def _endpoint_terminal_nets(circuit: Circuit) -> dict[str, str]:
    """Endpoint terminal name -> the net it taps."""
    terminals: dict[str, str] = {}
    for endpoint in circuit.timing_endpoints():
        net = endpoint.net
        if net is None:
            continue
        name = endpoint.full_name if isinstance(endpoint, Pin) else endpoint.name
        terminals[name] = net.name
    return terminals


def _seed_required(
    design: Design,
    pass_result: PassResult,
    report: ConstraintReport,
) -> dict[tuple[str, str], float]:
    """Required times at the endpoint-driving nets.

    The endpoint RAT applies at the *terminal* (after the Elmore wire
    shift of ``_arrival_at_pin``); the net-level requirement subtracts
    the realized shift ``delta = AT(terminal) - AT(net)`` so net slack
    matches the endpoint slack up to that shift's rounding.  Endpoint
    slacks themselves come straight from ``check_setup`` and are exact.
    """
    terminals = _endpoint_terminal_nets(design.circuit)
    state = pass_result.state
    seeds: dict[tuple[str, str], float] = {}
    for entry in report.slacks:
        net_name = terminals.get(entry.endpoint)
        if net_name is None:
            continue
        event = state.event(net_name, entry.direction)
        if event is None:
            continue
        delta = entry.arrival - event.t_cross
        cand = entry.required - delta
        key = (net_name, entry.direction)
        current = seeds.get(key)
        if current is None or cand < current:
            seeds[key] = cand
    return seeds


def _backward_sweep(
    state: ColumnTimingState,
    seeds: dict[tuple[str, str], float],
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str, str], float]]:
    """Vectorized backward relaxation over the compiled level slabs."""
    compiled = state.compiled
    n = compiled.n_nets
    req = np.full((2, n), _INF, dtype=np.float64)
    for (name, direction), value in seeds.items():
        d = DIR_INDEX[direction]
        i = compiled.net_id[name]
        if value < req[d, i]:
            req[d, i] = value

    arc_col = np.full(compiled.n_arcs, np.nan, dtype=np.float64)
    at = state.ev_tc
    valid = state.valid
    in_net = compiled.arc_in_net
    in_dir = compiled.arc_in_dir
    out_net = compiled.arc_out_net
    # A gate arc's output transitions opposite to its input; flip-flop
    # arcs enumerate by output direction with arc_in_dir already set to
    # its opposite -- so one formula covers both.
    out_dir = 1 - in_dir
    is_ff = compiled.arc_is_ff
    indptr = compiled.level_indptr
    for level in range(len(compiled.levels) - 1, -1, -1):
        lo = int(indptr[level])
        hi = int(indptr[level + 1])
        if lo == hi:
            continue
        sl = slice(lo, hi)
        s_in = in_net[sl]
        s_out = out_net[sl]
        s_outd = out_dir[sl]
        safe_in = np.maximum(s_in, 0)
        # Flip-flops launch off whichever clock edge arrived (rising
        # preferred) -- mirror the forward pass's fallback, not the
        # static arc_in_dir column.
        eff_d = np.where(is_ff[sl], np.where(valid[0, safe_in], 0, 1), in_dir[sl])
        req_out = req[s_outd, s_out]
        mask = (
            (s_in >= 0)
            & valid[eff_d, safe_in]
            & valid[s_outd, s_out]
            & np.isfinite(req_out)
        )
        if not mask.any():
            continue
        idx = np.nonzero(mask)[0]
        eff_idx = eff_d[idx]
        in_idx = s_in[idx]
        a_in = at[eff_idx, in_idx]
        a_out = at[s_outd[idx], s_out[idx]]
        cand = req_out[idx] - (a_out - a_in)
        arc_col[lo + idx] = cand - a_in
        np.minimum.at(req, (eff_idx, in_idx), cand)

    net_required: dict[tuple[str, str], float] = {}
    names = compiled.net_names
    for d, i in zip(*np.nonzero(np.isfinite(req))):
        net_required[(names[i], DIRECTIONS[d])] = float(req[d, i])
    arc_slack: dict[tuple[str, str, str], float] = {}
    cells = compiled.cells
    arc_pin = compiled.arc_pin
    for a in np.nonzero(np.isfinite(arc_col))[0]:
        key = (
            cells[compiled.arc_cell[a]].name,
            arc_pin[a],
            DIRECTIONS[in_dir[a]],
        )
        arc_slack[key] = float(arc_col[a])
    return net_required, arc_slack


def compute_slack(
    design: Design,
    result: Any,
    clock_period: float,
    setup_time: float = 100e-12,
) -> SlackResult:
    """Run the backward required-time pass against a finished analysis.

    ``result`` is a :class:`~repro.core.analyzer.StaResult` or a bare
    :class:`~repro.core.propagation.PassResult` of the max-delay
    propagator (its state is the column state the sweep reads).
    """
    if clock_period <= 0:
        raise InputError("clock period must be positive")
    pass_result = getattr(result, "final_pass", result)
    if pass_result is None:
        raise InputError("result carries no final pass to compute slack from")
    state = pass_result.state
    if not isinstance(state, ColumnTimingState):
        raise InputError(
            "slack needs the column state of a max-delay propagation pass"
        )

    t0 = time.perf_counter()
    report = check_setup(pass_result, clock_period, setup_time)
    seeds = _seed_required(design, pass_result, report)
    net_required, arc_slack = _backward_sweep(state, seeds)

    net_slack: dict[tuple[str, str], float] = {}
    for (name, direction), required in net_required.items():
        event = state.event(name, direction)
        if event is not None:
            net_slack[(name, direction)] = required - event.t_cross

    if report.slacks:
        worst = report.worst
        worst_slack = worst.slack
        worst_endpoint = worst.endpoint
        worst_direction = worst.direction
    else:
        worst_slack = _INF
        worst_endpoint = ""
        worst_direction = ""
    # Deterministic accumulation order (the arrivals list order), so TNS
    # is reproducible bit for bit.
    tns = 0.0
    violations = 0
    for entry in report.slacks:
        if not entry.met:
            violations += 1
            tns = tns + entry.slack
    return SlackResult(
        clock_period=clock_period,
        setup_time=setup_time,
        worst_slack=worst_slack,
        worst_endpoint=worst_endpoint,
        worst_direction=worst_direction,
        total_negative_slack=tns,
        violations=violations,
        endpoints=report,
        net_required=net_required,
        net_slack=net_slack,
        arc_slack=arc_slack,
        runtime_seconds=time.perf_counter() - t0,
    )


# -- telescoping decomposition (the explain-style audit) ---------------------


def _slack_stage_rows(
    result: Any,
    final: PassResult,
    path: Any,
    slack: SlackResult,
    endpoint_slack: float,
) -> list[dict[str, Any]]:
    """Per-stage slack breakdown of one path, contributions telescoping
    bit-exactly from 0.0 onto the endpoint slack."""
    ledger = getattr(result, "ledger", None)
    state = final.state
    stages: list[dict[str, Any]] = []
    running = 0.0
    for step in path.steps:
        key = (step.out_net, step.out_direction)
        stage_slack = slack.net_slack.get(key)
        if stage_slack is None:
            # A net on a worst path always carries a required time; a
            # missing entry means the path and slack results disagree.
            raise EngineError(
                f"no slack recorded for path net {step.out_net!r} "
                f"({step.out_direction})"
            )
        arc_key = (step.cell, step.in_pin, step.in_direction)
        arc_value = slack.arc_slack.get(arc_key)
        if arc_value is None:
            # Flip-flop steps record CLK provenance but key their arc by
            # the internal launch pin.
            arc_value = slack.arc_slack.get(
                (step.cell, "A", opposite(step.out_direction))
            )
        row_id = state.arc_prov.get(key)
        prov = None
        if ledger is not None and row_id is not None:
            prov = ledger.row(row_id)
        contribution = _exact_increment(running, stage_slack)
        running = running + contribution
        stages.append(
            {
                "kind": "gate",
                "cell": step.cell,
                "net": step.out_net,
                "direction": step.out_direction,
                "arrival": step.event.t_cross,
                "arrival_hex": step.event.t_cross.hex(),
                "required": slack.net_required[key],
                "required_hex": slack.net_required[key].hex(),
                "slack": stage_slack,
                "slack_hex": stage_slack.hex(),
                "arc_slack": arc_value,
                "arc_slack_hex": arc_value.hex() if arc_value is not None else None,
                "contribution": contribution,
                "contribution_hex": contribution.hex(),
                "provenance": prov,
            }
        )
    contribution = _exact_increment(running, endpoint_slack)
    stages.append(
        {
            "kind": "endpoint",
            "cell": "",
            "net": path.endpoint,
            "direction": path.direction,
            "arrival": None,
            "arrival_hex": None,
            "required": None,
            "required_hex": None,
            "slack": endpoint_slack,
            "slack_hex": endpoint_slack.hex(),
            "arc_slack": None,
            "arc_slack_hex": None,
            "contribution": contribution,
            "contribution_hex": contribution.hex(),
            "provenance": None,
        }
    )
    return stages


def slack_payload(
    circuit: Circuit,
    result: Any,
    slack: SlackResult,
    k: int = 1,
    top: int = 10,
) -> dict[str, Any]:
    """The ``repro.slack/1`` payload: endpoint slacks plus the paths to
    the ``k`` worst-slack endpoints, worst first, decomposed into
    bit-exactly telescoping stage slacks (``top`` bounds the
    failing-endpoint table).

    Paths are ranked by endpoint slack, not by arrival: endpoints have
    different required times (a flip-flop ``D`` pin pays the setup time,
    a primary output does not), so the latest arrival need not be the
    worst slack.
    """
    final = getattr(result, "final_pass", result)
    if final is None:
        raise InputError("result carries no final pass")
    ranked = sorted(slack.endpoints.slacks, key=lambda s: s.slack)
    paths = []
    for entry in ranked[: max(k, 1)]:
        path = extract_critical_path(circuit, final, entry.endpoint, entry.direction)
        if not path.steps:
            continue
        stages = _slack_stage_rows(result, final, path, slack, entry.slack)
        paths.append(
            {
                "endpoint": path.endpoint,
                "endpoint_net": endpoint_net_name(circuit, path.endpoint),
                "direction": path.direction,
                "arrival": entry.arrival,
                "arrival_hex": entry.arrival.hex(),
                "required": entry.required,
                "required_hex": entry.required.hex(),
                "slack": entry.slack,
                "slack_hex": entry.slack.hex(),
                "stages": stages,
            }
        )
    failing = [
        {
            "endpoint": s.endpoint,
            "direction": s.direction,
            "arrival": s.arrival,
            "required": s.required,
            "slack": s.slack,
            "slack_hex": s.slack.hex(),
        }
        for s in slack.endpoints.failing()[: max(top, 0)]
    ]
    mode = getattr(result, "mode", None)
    return {
        "schema": SLACK_SCHEMA,
        "design": getattr(result, "design_name", ""),
        "mode": mode.value if mode is not None else "",
        "clock_period": slack.clock_period,
        "setup_time": slack.setup_time,
        "worst_slack": slack.worst_slack,
        "worst_slack_hex": slack.worst_slack.hex(),
        "worst_slack_ps": slack.worst_slack_ps,
        "worst_endpoint": slack.worst_endpoint,
        "worst_direction": slack.worst_direction,
        "total_negative_slack": slack.total_negative_slack,
        "total_negative_slack_hex": slack.total_negative_slack.hex(),
        "violations": slack.violations,
        "met": slack.met,
        "endpoints": len(slack.endpoints.slacks),
        "nets_with_slack": len(slack.net_slack),
        "arcs_with_slack": len(slack.arc_slack),
        "runtime_seconds": slack.runtime_seconds,
        "failing": failing,
        "paths": paths,
    }


def validate_slack(payload: dict[str, Any]) -> None:
    """Schema and bit-exactness check of a slack payload.

    Every path's stage contributions, summed left to right through
    ``float.fromhex`` round-trips, must land exactly on each stage's
    ``slack_hex`` and finally on the path's endpoint ``slack_hex``; the
    first (worst) path's slack must equal ``worst_slack_hex``.  Raises
    ``ValueError`` on any violation.
    """
    if payload.get("schema") != SLACK_SCHEMA:
        raise ValueError(f"not a slack payload: {payload.get('schema')!r}")
    for key in ("worst_slack_hex", "paths", "failing", "violations"):
        if key not in payload:
            raise ValueError(f"slack payload missing {key!r}")
    for index, path in enumerate(payload["paths"]):
        running = 0.0
        for stage in path["stages"]:
            running = running + float.fromhex(stage["contribution_hex"])
            if running != float.fromhex(stage["slack_hex"]):
                raise ValueError(
                    f"path {index}: contributions do not telescope onto "
                    f"stage {stage['net']!r} ({running.hex()} != "
                    f"{stage['slack_hex']})"
                )
        if running != float.fromhex(path["slack_hex"]):
            raise ValueError(
                f"path {index}: contributions sum to {running.hex()}, "
                f"endpoint slack is {path['slack_hex']}"
            )
    if payload["paths"]:
        worst = payload["paths"][0]
        if float.fromhex(worst["slack_hex"]) != float.fromhex(
            payload["worst_slack_hex"]
        ):
            raise ValueError(
                "worst path slack does not equal the reported worst slack"
            )


def format_slack(payload: dict[str, Any]) -> str:
    """Human-readable rendering of a slack payload."""
    status = "MET" if payload["met"] else f"VIOLATED ({payload['violations']} endpoints)"
    lines = [
        f"{payload['design']} [{payload['mode']}]: clock "
        f"{payload['clock_period'] * 1e9:.3f} ns, setup "
        f"{payload['setup_time'] * 1e12:.0f} ps: {status}",
        f"worst slack {payload['worst_slack_ps']:+.1f} ps at "
        f"{payload['worst_endpoint']} ({payload['worst_direction']}), "
        f"TNS {payload['total_negative_slack'] * 1e12:.1f} ps over "
        f"{payload['violations']} failing endpoint(s)",
    ]
    if payload["failing"]:
        lines.append("")
        lines.append(
            f"{'endpoint':<22} {'dir':<5} {'arrive [ps]':>12} "
            f"{'required [ps]':>14} {'slack [ps]':>11}"
        )
        lines.append("-" * 68)
        for entry in payload["failing"]:
            lines.append(
                f"{entry['endpoint']:<22} {entry['direction']:<5} "
                f"{entry['arrival'] * 1e12:>12.1f} "
                f"{entry['required'] * 1e12:>14.1f} "
                f"{entry['slack'] * 1e12:>11.1f}"
            )
    for path in payload["paths"]:
        lines.append("")
        lines.append(
            f"Worst path to {path['endpoint']} ({path['direction']}): "
            f"slack {path['slack'] * 1e12:+.1f} ps"
        )
        lines.append(
            f"{'stage':<20} {'net':<14} {'dir':<5} {'arrive [ps]':>12} "
            f"{'required [ps]':>14} {'slack [ps]':>11}"
        )
        lines.append("-" * 82)
        for stage in path["stages"]:
            label = stage["cell"] if stage["kind"] == "gate" else "(endpoint)"
            arrive = (
                f"{stage['arrival'] * 1e12:>12.1f}"
                if stage["arrival"] is not None
                else f"{'-':>12}"
            )
            required = (
                f"{stage['required'] * 1e12:>14.1f}"
                if stage["required"] is not None
                else f"{'-':>14}"
            )
            lines.append(
                f"{label:<20} {stage['net']:<14} {stage['direction']:<5} "
                f"{arrive} {required} {stage['slack'] * 1e12:>11.1f}"
            )
    return "\n".join(lines)
