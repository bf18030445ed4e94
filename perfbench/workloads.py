"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload has a ``setup`` (repeated by the harness, timed as
``setup_s``), an ``op`` (the unit of timed work; a fresh analyzer or
service per op) and a ``check`` that verifies the op's outputs bit for
bit.  ``inputs`` is the number of distinct op inputs: the harness runs
whole passes over them, so every run times the same inputs.  Why each
workload exists is written in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from checks import (
    CheckFailed,
    check_golden,
    check_serialized_arrivals,
    check_slack,
    require,
    result_fingerprint,
)

import repro.flow as flow
from repro.circuit.generators import S35932_SPEC, generate_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.explain import explain_result, validate_explain
from repro.core.export import sta_result_to_dict
from repro.core.modes import AnalysisMode, StaConfig
from repro.core.report import MODE_ORDER, check_mode_ordering
from repro.core.slack import slack_payload
from repro.flow.optimizer import validate_repair
from repro.service import InProcessClient, TimingService

DEFAULT_SEED = 359320


def sta_config(**fields) -> StaConfig:
    """A config on the batch engine while the program still offers an
    engine choice.  The core is never named, so the program's default
    core runs."""
    if "engine" in {f.name for f in dataclasses.fields(StaConfig)}:
        fields["engine"] = "batch"
    return StaConfig(**fields)


def design_seed(seed: int, index: int) -> int:
    """Generator seed of the ``index``-th design of a workload seed; the
    default workload seed keeps the paper circuit's own seed first."""
    return seed + 7919 * index


def seeded_circuit(seed: int, index: int, scale: float):
    spec = dataclasses.replace(S35932_SPEC.scaled(scale), seed=design_seed(seed, index))
    return generate_circuit(spec)


def span(obs, name: str):
    return obs.tracer.span(name) if obs is not None else nullcontext()


@dataclass
class Op:
    """What one call of a workload's ``op`` hands to its check and to the
    harness.  ``samples`` are the timed ops it performed: one for a
    sign-off design or a table sweep, one per what-if in an ECO session."""

    samples: list[float] = field(default_factory=list)  # s per timed op
    steps: dict[str, float] = field(default_factory=dict)  # named step times
    counts: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


class Signoff:
    """Cold netlist -> slack report, one seeded design per op."""

    name = "signoff"
    scale = 0.1
    inputs = 6  # designs per pass
    clock_period = 6e-9

    def setup(self, seed: int, scale: float):
        return [seeded_circuit(seed, i, scale) for i in range(self.inputs)]

    def op(self, circuits, index: int, obs, budget: float) -> Op:
        circuit = circuits[index % len(circuits)]
        start = time.perf_counter()
        design = flow.prepare_design(circuit)
        config = sta_config(mode=AnalysisMode.ONE_STEP, clock_period=self.clock_period)
        result = CrosstalkSTA(design, config, obs=obs).run()
        with span(obs, "core.report"):
            payload = slack_payload(circuit, result, result.slack, k=3)
            text = json.dumps({"report": sta_result_to_dict(result), "slack": payload})
        return Op(
            samples=[time.perf_counter() - start],
            outputs={"design": index % len(circuits), "result": result, "json": text},
        )

    def check(self, op: Op, golden: dict | None) -> None:
        result = op.outputs["result"]
        check_serialized_arrivals(op.outputs["json"], result)
        payload = json.loads(op.outputs["json"])["slack"]
        op.counts["core.slack_payload_order_mismatch"] = check_slack(result, payload)
        if golden is not None:
            key = str(op.outputs["design"])
            check_golden(golden.get(key), result_fingerprint(result), f"signoff design {key}")


class Table:
    """The paper's Table 1 row: five modes, fresh analyzer per mode."""

    name = "table"
    scale = 0.1
    inputs = 1

    def setup(self, seed: int, scale: float):
        return flow.prepare_design(seeded_circuit(seed, 0, scale))

    def op(self, design, index: int, obs, budget: float) -> Op:
        results = {}
        t0 = time.perf_counter()
        for mode in MODE_ORDER:
            results[mode] = CrosstalkSTA(design, sta_config(mode=mode), obs=obs).run()
        return Op(
            samples=[time.perf_counter() - t0],
            outputs={"design": design, "results": results},
        )

    def check(self, op: Op, golden: dict | None) -> None:
        results = op.outputs["results"]
        violations = check_mode_ordering(results)
        require(not violations, f"mode ordering violated: {violations}")
        circuit = op.outputs["design"].circuit
        for mode, result in results.items():
            try:
                validate_explain(explain_result(circuit, result, k=3))
            except ValueError as exc:
                raise CheckFailed(f"{mode.value}: explain invalid: {exc}") from exc
            if golden is not None:
                check_golden(
                    golden.get(mode.value), result_fingerprint(result), f"table {mode.value}"
                )


# The what-if stream is made of rounds, and one round is one timed op:
# each of the four edit kinds once, kind ``j`` on the victim ranked
# ``5r + j`` (mod the victim count) in round ``r``, ending with the one
# committed edit, whose kind cycles with the round.  Every seed therefore
# issues the same edits and commits; the seed orders the three what-ifs
# that precede each commit.
ECO_ACTIONS = ("drop_coupling", "respace", "upsize", "set_coupling")
ECO_VICTIMS = 16
# Run-budget seconds per round: the session's open, repair, restore and
# final cold check take the rest of the budget.
ECO_SECONDS_PER_ROUND = 6.0
ECO_MAX_ROUNDS = 16


@dataclass
class EcoPlan:
    scale: float
    orders: list[list[int]]  # per round, the order of the uncommitted kinds
    victims: list[str]  # the opened design's top-exposure nets, by rank

    def stream(self, rounds: int):
        """Per round, the ``(edit kind, victim rank)`` of its what-ifs;
        the last one is committed."""
        for r in range(rounds):
            kinds = self.orders[r] + [r % len(ECO_ACTIONS)]
            yield [(ECO_ACTIONS[j], (5 * r + j) % ECO_VICTIMS) for j in kinds]


def _hexes(summary: dict) -> tuple:
    return summary["longest_delay_hex"], summary.get("worst_slack_hex")


class Eco:
    """A warm timing-query session: open, what-if stream, repair, and a
    hand-off restore on a second service.  Each round of what-ifs is one
    timed op."""

    name = "eco"
    scale = 0.05
    inputs = 1
    netlist = "gen:s35932"
    clock_period = 3e-9
    mode = AnalysisMode.ITERATIVE

    def setup(self, seed: int, scale: float) -> EcoPlan:
        """Draw the what-if stream: the edit order from the seed, and the
        victims from a net report of the design opened in a service of
        its own.  Each op opens the design again in a fresh service and
        checks that its report ranks the same victims."""
        rng = random.Random(seed)
        orders = []
        for r in range(ECO_MAX_ROUNDS):
            kinds = [j for j in range(len(ECO_ACTIONS)) if j != r % len(ECO_ACTIONS)]
            rng.shuffle(kinds)
            orders.append(kinds)
        service = self._service(None)
        try:
            client = InProcessClient(service)
            sid = client.open_session(self.netlist, scale=scale)["session"]
            victims = [e["net"] for e in client.net_report(sid, top=ECO_VICTIMS)["nets"]]
        finally:
            service.close()
        return EcoPlan(scale, orders, victims)

    def _service(self, obs) -> TimingService:
        config = sta_config(mode=self.mode, clock_period=self.clock_period)
        return TimingService(config=config, workers=1, obs=obs)

    @staticmethod
    def _edit(action: str, design, victims: list[str], start: int) -> dict:
        """The first victim, from rank ``start`` on, that the action
        applies to."""
        for offset in range(len(victims)):
            net = victims[(start + offset) % len(victims)]
            couplings = design.loads[net].couplings
            if action in ("drop_coupling", "set_coupling") and couplings:
                neighbour = min(couplings, key=lambda n: (-couplings[n], n))
                edit = {"action": action, "net": net, "neighbour": neighbour}
                if action == "set_coupling":
                    edit["cap"] = couplings[neighbour] / 2
                return edit
            if action == "respace":
                return {"action": action, "nets": [net], "guard_tracks": 1}
            driver = design.circuit.nets[net].driver_cell()
            if action == "upsize" and driver is not None and driver.ctype.name.endswith(
                ("_X1", "_X2")
            ):
                return {"action": action, "nets": [net], "steps": 1}
        raise CheckFailed(f"no victim accepts a {action} edit")

    def op(self, plan: EcoPlan, index: int, obs, budget: float) -> Op:
        rounds = min(ECO_MAX_ROUNDS, max(1, int(budget / ECO_SECONDS_PER_ROUND)))
        op = Op()
        live = self._service(obs)
        replacement = None
        try:
            client = InProcessClient(live)
            t0 = time.perf_counter()
            sid = client.open_session(self.netlist, scale=plan.scale)["session"]
            first = client.analyze(sid)
            op.steps["open_s"] = time.perf_counter() - t0

            session = live.sessions.get(sid)
            victims = [e["net"] for e in client.net_report(sid, top=ECO_VICTIMS)["nets"]]
            op.outputs = {"victims": victims, "planned_victims": plan.victims}
            responses = []
            whatifs = []
            for round_ in plan.stream(rounds):
                t0 = time.perf_counter()
                for k, (action, rank) in enumerate(round_):
                    edit = self._edit(action, session.design, plan.victims, rank)
                    t = time.perf_counter()
                    responses.append(
                        client.whatif(sid, edit, commit=k == len(round_) - 1)
                    )
                    whatifs.append(time.perf_counter() - t)
                op.samples.append(time.perf_counter() - t0)
            op.steps["whatif_p50_s"] = statistics.median(whatifs)
            op.steps["whatif_total_s"] = sum(whatifs)

            t = time.perf_counter()
            transcript = client.repair(sid, max_edits=2, beam=1)
            op.steps["repair_s"] = time.perf_counter() - t
            op.counts["flow.repair_evaluations"] = transcript["evaluations"]

            t = time.perf_counter()
            handoff = client.export_session(sid)
            replacement = self._service(obs)
            shard = InProcessClient(replacement)
            shard.import_session(handoff)
            restored = shard.analyze(sid)
            op.steps["restore_s"] = time.perf_counter() - t

            op.outputs |= {
                "first": first,
                "whatifs": responses,
                "transcript": transcript,
                "restored": restored,
                "live": client.analyze(sid),
                "session": session,
            }
        finally:
            live.close()
            if replacement is not None:
                replacement.close()
        return op

    def check(self, op: Op, golden: dict | None) -> None:
        out = op.outputs
        require(
            out["victims"] == out["planned_victims"],
            "the session ranks other victims than the set-up's report",
        )
        # Transactional what-ifs: each one starts from the previous one's
        # result when that was committed, and from its baseline otherwise.
        expected = _hexes(out["first"])
        for k, response in enumerate(out["whatifs"]):
            require(
                _hexes(response["before"]) == expected,
                f"what-if {k} started from {_hexes(response['before'])}, expected {expected}",
            )
            if response["committed"]:
                expected = _hexes(response["after"])
        baseline = out["transcript"]["baseline"]["worst_slack_hex"]
        require(baseline == expected[1], f"repair started from {baseline}, expected {expected[1]}")
        try:
            validate_repair(out["transcript"])
        except ValueError as exc:
            raise CheckFailed(f"repair transcript invalid: {exc}") from exc
        for key in ("longest_delay_hex", "worst_slack_hex", "critical_endpoint"):
            require(
                out["restored"][key] == out["live"][key],
                f"restored session {key} {out['restored'][key]} != live {out['live'][key]}",
            )
        session = out["session"]
        warm = session.results[self.mode]
        cold_config = dataclasses.replace(session.config, checkpoint=None)
        cold = CrosstalkSTA(session.design, cold_config).run(self.mode)
        require(
            cold.longest_delay.hex() == warm.longest_delay.hex(),
            f"cold {cold.longest_delay.hex()} != warm {warm.longest_delay.hex()}",
        )
        require(cold.arrival_map() == warm.arrival_map(), "cold arrivals != warm arrivals")
        require(
            warm.longest_delay.hex() == out["live"]["longest_delay_hex"],
            "live summary differs from the session's result",
        )
        if golden is not None:
            check_golden(
                golden.get("open"),
                {"longest_delay_hex": out["first"]["longest_delay_hex"]},
                "eco open",
            )
            # The final design depends on the stream length, so it has a
            # golden entry only for the lengths recorded in golden.json.
            rounds = str(len(out["whatifs"]) // len(ECO_ACTIONS))
            final = golden.get("final", {}).get(rounds)
            if final is not None:
                check_golden(final, result_fingerprint(warm), f"eco final ({rounds} rounds)")


WORKLOADS = {w.name: w for w in (Signoff(), Table(), Eco())}
