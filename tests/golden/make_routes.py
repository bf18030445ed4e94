"""Regenerate the golden route fixtures in ``routes.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/make_routes.py            # rewrite routes.json
    PYTHONPATH=src python tests/golden/make_routes.py -o out.json
    PYTHONPATH=src python tests/golden/make_routes.py --skip-full  # keep the 1.0 entry

Each case is placed, routed and extracted with the default technology,
and frozen as one SHA-256 over the route (every segment's ``(net, layer,
track, lo.hex(), hi.hex())``, every tap and the overflow count) plus one
over the extraction's coupling pairs as ``float.hex()`` strings.  The
segment/tap/pair counts sit beside the digests so a mismatch says where
to look.

Cases: ``s27``; the ``routed_medium`` generator spec of
``tests/test_layout.py``; ``gen:s35932`` at scales 0.05 and 0.2; at scale
0.05 a ``route(..., guard_nets=...)`` run and a ``reroute_nets(...,
guard_tracks=1)`` run, each over the three nets with the largest
extracted coupling.  ``gen:s35932@1.0`` is recorded too, but only the
perf bench (``benchmarks/bench_perf_baseline.py``) checks it -- routing
paper size is too slow for the tier-1 suite.  ``--skip-full`` keeps the
committed 1.0 entry instead of recomputing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.circuit import s27
from repro.circuit.benchmarks import resolve_circuit
from repro.circuit.generators import GeneratorSpec, generate_circuit
from repro.layout.extraction import extract
from repro.layout.placement import place
from repro.layout.routing import reroute_nets, route
from repro.layout.technology import default_technology

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "routes.json")
SCHEMA = "repro.golden-routes/1"

FULL_CASE = "gen:s35932@1.0"
MEDIUM_SPEC = GeneratorSpec(
    name="med", seed=11, n_inputs=5, n_outputs=5, n_ff=10, n_gates=120, depth=8
)
# Shield spacings given to the three victims of the ``guard_nets`` case.
GUARD_SPACINGS = (1, 2, 1)
# Cases the tier-1 suite checks; FULL_CASE is the bench's.
TIER1_CASES = (
    "s27",
    "routed_medium",
    "gen:s35932@0.05",
    "gen:s35932@0.2",
    "gen:s35932@0.05/guard_nets",
    "gen:s35932@0.05/reroute_guard1",
)


def _segment_line(seg) -> str:
    if seg is None:
        return "-"
    return f"{seg.net}|{seg.layer}|{seg.track}|{seg.lo.hex()}|{seg.hi.hex()}"


def route_digest(routing) -> dict:
    """SHA-256 over every segment, every tap and the overflow count."""
    h = hashlib.sha256()
    segments = taps = 0
    for name in sorted(routing.routes):
        net_route = routing.routes[name]
        h.update(f"net {name} trunk_y={float(net_route.trunk_y).hex()}\n".encode())
        for seg in net_route.segments():
            h.update(f"seg {_segment_line(seg)}\n".encode())
            segments += 1
        for terminal, x, branch in [net_route.driver_tap] + net_route.sink_taps:
            h.update(f"tap {terminal}|{float(x).hex()}|{_segment_line(branch)}\n".encode())
            taps += 1
    h.update(f"overflow {routing.overflow_count}\n".encode())
    return {
        "route_sha256": h.hexdigest(),
        "segments": segments,
        "taps": taps,
        "overflow_count": routing.overflow_count,
    }


def coupling_digest(extraction) -> dict:
    """SHA-256 over the extraction's coupling pairs as hex strings."""
    h = hashlib.sha256()
    pairs = sorted(extraction.coupling_pairs())
    for net_a, net_b, cap in pairs:
        h.update(f"{net_a}|{net_b}|{float(cap).hex()}\n".encode())
    return {"coupling_sha256": h.hexdigest(), "coupling_pairs": len(pairs)}


def fixture_entry(routing, technology) -> dict:
    entry = route_digest(routing)
    entry.update(coupling_digest(extract(routing, technology)))
    return entry


def top_coupled(extraction) -> list[str]:
    """The three nets with the largest total coupling, ties by name."""
    ranked = sorted(
        extraction.nets.values(), key=lambda p: (-p.c_coupling_total, p.name)
    )
    return [p.name for p in ranked[:3]]


def _placed(circuit):
    tech = default_technology()
    return circuit, place(circuit, tech), tech


def _gen(scale: float):
    return _placed(resolve_circuit("gen:s35932", scale=scale))


def build_case(name: str) -> dict:
    if name == "s27":
        circuit, placement, tech = _placed(s27())
    elif name == "routed_medium":
        circuit, placement, tech = _placed(generate_circuit(MEDIUM_SPEC))
    elif name.endswith(("/guard_nets", "/reroute_guard1")):
        circuit, placement, tech = _gen(0.05)
        base = route(circuit, placement, tech)
        victims = top_coupled(extract(base, tech))
        if name.endswith("/guard_nets"):
            guard = dict(zip(victims, GUARD_SPACINGS))
            routing = route(circuit, placement, tech, guard_nets=guard)
        else:
            routing = reroute_nets(
                circuit, placement, base, victims, guard_tracks=1, technology=tech
            )
        entry = fixture_entry(routing, tech)
        entry["victims"] = victims
        return entry
    elif name.startswith("gen:s35932@"):
        circuit, placement, tech = _gen(float(name.split("@")[1]))
    else:
        raise KeyError(name)
    return fixture_entry(route(circuit, placement, tech), tech)


def build(names=None) -> dict:
    cases = {}
    for name in names or TIER1_CASES + (FULL_CASE,):
        cases[name] = build_case(name)
        print(f"{name}: {cases[name]['route_sha256'][:16]}", file=sys.stderr)
    return {"schema": SCHEMA, "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=FIXTURE_PATH)
    parser.add_argument(
        "--skip-full",
        action="store_true",
        help=f"keep the committed {FULL_CASE} entry instead of recomputing it",
    )
    args = parser.parse_args(argv)
    if args.skip_full:
        with open(FIXTURE_PATH) as handle:
            committed = json.load(handle)["cases"][FULL_CASE]
        payload = build(TIER1_CASES)
        payload["cases"][FULL_CASE] = committed
    else:
        payload = build()
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
