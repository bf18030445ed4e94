"""Self-tests of the benchmark harness (tiny circuits, a few seconds each).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import harness  # noqa: E402

TINY_SCALE = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _execute(workload: str, trace: bool, mutate=None) -> dict:
    return harness.execute(
        workload,
        seed=7,
        seconds=0.1,
        trace=trace,
        import_seconds=0.0,
        scale=TINY_SCALE,
        mutate=mutate,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace):
    result = _execute(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
        if not trace or metric["name"].startswith(f"{workload}."):
            assert emitted["value"] > 0


def _flip_one_arrival(op) -> None:
    """Move one serialized arrival by one ulp, as a corrupted writer would."""
    payload = json.loads(op.outputs["json"])
    arrival = payload["report"]["arrivals"][0]
    arrival["t_cross"] = math.nextafter(arrival["t_cross"], math.inf)
    op.outputs["json"] = json.dumps(payload)


def test_corrupted_output_counts_as_failed_op():
    result = _execute("signoff", trace=False, mutate=_flip_one_arrival)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    traced = _execute("signoff", trace=True, mutate=_flip_one_arrival)
    assert traced["metrics"]["ops_failed_frac"]["value"] == 1.0


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_slack_payload_order_defect_is_counted_not_failed():
    """gen:s35932 at scale 0.05, seed 12, 3 ns: the latest-arriving
    endpoint is not the worst-slack one, so ``validate_slack`` rejects the
    payload; the check counts the case and passes every invariant."""
    from checks import check_slack
    from workloads import seeded_circuit, sta_config

    from repro.core.analyzer import CrosstalkSTA
    from repro.core.modes import AnalysisMode
    from repro.core.slack import slack_payload, validate_slack
    from repro.flow import prepare_design

    circuit = seeded_circuit(12, 0, 0.05)
    config = sta_config(mode=AnalysisMode.ONE_STEP, clock_period=3e-9)
    result = CrosstalkSTA(prepare_design(circuit), config).run()
    payload = slack_payload(circuit, result, result.slack, k=3)
    with pytest.raises(ValueError, match="worst path slack"):
        validate_slack(payload)
    assert check_slack(result, payload) == 1
