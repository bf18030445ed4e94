"""Regenerate the golden STA fixtures in ``sta.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/make_sta.py            # rewrite sta.json
    PYTHONPATH=src python tests/golden/make_sta.py -o out.json

The fixtures freeze, as ``float.hex()`` strings, what an exact-tier
analysis guarantees for two designs (``s27`` and ``gen:s35932`` at scale
0.05) in all five modes: the longest delay, every endpoint arrival, the
per-pass longest delay / waveform evaluations / dirty and reused arcs,
the provenance-ledger ``counts()``, and worst slack / TNS / per-net and
per-arc slack digests at fixed clock periods.  ``s27`` additionally
freezes two compositions: the iterative mode with the pass-to-pass memo
disabled, and the screened solver tier in every mode.

Every value is computed the way ``tests/test_core_engine_equivalence.py`` reads
it back: one analyzer per design, modes run in ``AnalysisMode`` order
(the arc cache is shared across modes, which the ledger's fresh/dedup
origin counts depend on), slack from ``compute_slack`` on each mode's
result.  The script uses only the default ``StaConfig``, so rerunning it
on any revision shows whether that revision's results still match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.circuit.benchmarks import resolve_circuit
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, SolverTier, StaConfig
from repro.core.slack import compute_slack
from repro.flow import prepare_design

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sta.json")
SCHEMA = "repro.golden-sta/1"

# name -> (netlist, scale, clock periods, freeze compositions?)
DESIGNS = {
    "s27": ("s27", None, (1.2e-9, 0.4e-9), True),
    "gen:s35932@0.05": ("gen:s35932", 0.05, (3.0e-9,), False),
}


def digest(mapping: dict) -> str:
    """sha256 over ``key=hex`` lines of a float-valued map, keys sorted."""
    h = hashlib.sha256()
    for key in sorted(mapping):
        name = "|".join(key) if isinstance(key, tuple) else str(key)
        h.update(f"{name}={float(mapping[key]).hex()}\n".encode())
    return h.hexdigest()


def arrival_hexes(result) -> dict[str, str]:
    return {
        f"{endpoint}|{direction}": float(t).hex()
        for (endpoint, direction), t in result.arrival_map().items()
    }


def pass_rows(result) -> list[dict]:
    return [
        {
            "longest_delay": float(record.longest_delay).hex(),
            "waveform_evaluations": record.waveform_evaluations,
            "dirty_arcs": record.dirty_arcs,
            "reused_arcs": record.reused_arcs,
        }
        for record in result.history
    ]


def slack_entry(slack) -> dict:
    return {
        "worst_slack": float(slack.worst_slack).hex(),
        "worst_endpoint": slack.worst_endpoint,
        "total_negative_slack": float(slack.total_negative_slack).hex(),
        "violations": slack.violations,
        "net_slack_sha256": digest(slack.net_slack),
        "arc_slack_sha256": digest(slack.arc_slack),
    }


def mode_entry(design, result, periods) -> dict:
    return {
        "longest_delay": float(result.longest_delay).hex(),
        "critical_endpoint": result.critical_endpoint,
        "critical_direction": result.critical_direction,
        "arcs_processed": result.arcs_processed,
        "coupled_arcs": result.coupled_arcs,
        "waveform_evaluations": result.waveform_evaluations,
        "passes": pass_rows(result),
        "arrivals": arrival_hexes(result),
        "ledger_rows": len(result.ledger),
        "ledger_counts": result.ledger.counts(),
        "slack": {
            float(period).hex(): slack_entry(compute_slack(design, result, period))
            for period in periods
        },
    }


def compositions(design) -> dict:
    off = CrosstalkSTA(
        design, StaConfig(mode=AnalysisMode.ITERATIVE, incremental=False)
    ).run()
    screened = {}
    for mode in AnalysisMode:
        result = CrosstalkSTA(
            design, StaConfig(mode=mode, solver_tier=SolverTier.SCREENED)
        ).run()
        screened[mode.value] = {
            "longest_delay": float(result.longest_delay).hex(),
            "waveform_evaluations": result.waveform_evaluations,
            "arrivals_sha256": digest(result.arrival_map()),
        }
    return {
        "iterative_incremental_off": {
            "longest_delay": float(off.longest_delay).hex(),
            "passes": pass_rows(off),
        },
        "screened": screened,
    }


def design_for(name: str):
    netlist, scale, _, _ = DESIGNS[name]
    return prepare_design(resolve_circuit(netlist, scale=scale))


def build(names=None) -> dict:
    circuits = {}
    for name in names or DESIGNS:
        _, _, periods, with_compositions = DESIGNS[name]
        design = design_for(name)
        sta = CrosstalkSTA(design, StaConfig())
        entry = {
            "clock_periods": [float(p).hex() for p in periods],
            "modes": {
                mode.value: mode_entry(design, sta.run(mode), periods)
                for mode in AnalysisMode
            },
        }
        if with_compositions:
            entry["compositions"] = compositions(design)
        circuits[name] = entry
        print(f"{name}: {len(entry['modes'])} modes frozen", file=sys.stderr)
    return {"schema": SCHEMA, "circuits": circuits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=FIXTURE_PATH)
    args = parser.parse_args(argv)
    payload = build()
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
