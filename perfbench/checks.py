"""Per-op correctness checks of the benchmark workloads.

Every check compares bound-carrying outputs bit for bit (``float.hex()``
or exact float equality); none uses a tolerance.  A failing check raises
:class:`CheckFailed`, which the harness counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.core.slack import validate_slack

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# validate_slack's message for the known path-order defect of slack_payload.
WORST_PATH_ORDER_ERROR = "worst path slack does not equal the reported worst slack"


class CheckFailed(Exception):
    """An op produced an output that contradicts its own invariants."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def arrival_hexes(arrivals: dict) -> dict[str, str]:
    """``{(endpoint, direction): t}`` -> ``{"endpoint|direction": hex}``."""
    return {f"{ep}|{d}": float(t).hex() for (ep, d), t in arrivals.items()}


def digest(hexes: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(hexes):
        h.update(f"{key}={hexes[key]}\n".encode())
    return h.hexdigest()


def result_fingerprint(result) -> dict[str, str]:
    """The golden-comparable identity of one analysis result."""
    fingerprint = {
        "longest_delay_hex": float(result.longest_delay).hex(),
        "arrivals_sha256": digest(arrival_hexes(result.arrival_map())),
    }
    if result.slack is not None:
        fingerprint["worst_slack_hex"] = float(result.slack.worst_slack).hex()
    return fingerprint


def check_serialized_arrivals(report_json: str, result) -> None:
    """The serialized report carries exactly the analysed arrivals."""
    report = json.loads(report_json)["report"]
    written = {
        (a["endpoint"], a["direction"]): a["t_cross"] for a in report["arrivals"]
    }
    require(
        digest(arrival_hexes(written)) == digest(arrival_hexes(result.arrival_map())),
        "serialized arrivals differ from the analysed arrivals",
    )
    require(
        float(report["longest_delay"]).hex() == float(result.longest_delay).hex(),
        "serialized longest delay differs from the analysed one",
    )


def check_slack(result, payload: dict) -> int:
    """Slack invariants of one run; returns 1 when the payload's first
    path is not the worst-slack path (a known ordering defect of
    ``slack_payload``, counted but not failed), else 0."""
    slack = result.slack
    require(slack is not None, "run carries no slack result")
    endpoint_min = min(s.slack for s in slack.endpoints.slacks)
    require(
        endpoint_min.hex() == float(slack.worst_slack).hex(),
        f"worst slack {float(slack.worst_slack).hex()} != endpoint minimum "
        f"{endpoint_min.hex()}",
    )
    require(
        payload["worst_slack_hex"] == float(slack.worst_slack).hex(),
        "slack payload's worst slack differs from the analysed one",
    )
    endpoint_slack = {
        (s.endpoint, s.direction): float(s.slack).hex() for s in slack.endpoints.slacks
    }
    require(payload["paths"], "slack payload has no paths")
    for index, path in enumerate(payload["paths"]):
        require(
            endpoint_slack.get((path["endpoint"], path["direction"]))
            == path["slack_hex"],
            f"path {index}: slack differs from its endpoint's slack",
        )
    # validate_slack checks the worst-path order last, so its order
    # error means every telescoping check before it passed.
    try:
        validate_slack(payload)
    except ValueError as exc:
        if str(exc) == WORST_PATH_ORDER_ERROR:
            return 1
        raise CheckFailed(f"slack payload invalid: {exc}") from exc
    return 0


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def check_golden(expected: dict | None, actual: dict, where: str) -> None:
    require(expected is not None, f"no golden entry for {where}")
    for key, value in expected.items():
        require(
            actual.get(key) == value,
            f"{where}: {key} {actual.get(key)} != golden {value}",
        )
