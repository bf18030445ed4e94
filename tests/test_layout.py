"""Tests for placement, routing, technology and geometry."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import s27
from repro.circuit.generators import GeneratorSpec, generate_circuit
from repro.layout.geometry import Point, TrackOccupancy, TrackSegment, interval_overlaps
from repro.layout import routing as routing_module
from repro.layout.placement import place
from repro.layout.routing import _TrackGrid, reroute_nets, route
from repro.layout.technology import Technology, default_technology
from tests.golden import make_routes


@pytest.fixture(scope="module")
def placed_s27():
    circuit = s27()
    return circuit, place(circuit)


@pytest.fixture(scope="module")
def routed_medium():
    spec = GeneratorSpec(
        name="med", seed=11, n_inputs=5, n_outputs=5, n_ff=10, n_gates=120, depth=8
    )
    circuit = generate_circuit(spec)
    placement = place(circuit)
    return circuit, placement, route(circuit, placement)


class TestGeometry:
    def test_point_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7

    def test_segment_validation(self):
        with pytest.raises(ValueError, match="layer"):
            TrackSegment("n", 3, 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="hi < lo"):
            TrackSegment("n", 1, 0, 2.0, 1.0)

    def test_segment_overlap(self):
        a = TrackSegment("a", 1, 0, 0.0, 10.0)
        b = TrackSegment("b", 1, 1, 5.0, 15.0)
        assert a.overlap(b) == 5.0
        assert b.overlap(a) == 5.0

    def test_occupancy_first_fit(self):
        occ = TrackOccupancy()
        occ.add(0.0, 10.0)
        assert not occ.fits(5.0, 15.0)
        assert occ.fits(11.0, 20.0)
        assert not occ.fits(9.0, 20.0, clearance=2.0)

    @given(
        lo_a=st.floats(0, 100), len_a=st.floats(0.1, 50),
        lo_b=st.floats(0, 100), len_b=st.floats(0.1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_overlap_symmetric(self, lo_a, len_a, lo_b, len_b):
        assert interval_overlaps(lo_a, lo_a + len_a, lo_b, lo_b + len_b) == \
            interval_overlaps(lo_b, lo_b + len_b, lo_a, lo_a + len_a)


class TestTechnology:
    def test_coupling_decays_with_distance(self):
        tech = default_technology()
        assert tech.coupling_cap_per_um(1) > tech.coupling_cap_per_um(2)

    def test_coupling_zero_beyond_radius(self):
        tech = default_technology()
        assert tech.coupling_cap_per_um(tech.max_coupling_tracks + 1) == 0.0

    def test_coupling_distance_validated(self):
        with pytest.raises(ValueError):
            default_technology().coupling_cap_per_um(0)

    def test_cell_width_grows_with_transistors(self):
        tech = default_technology()
        assert tech.cell_width(8) > tech.cell_width(2)


class TestPlacement:
    def test_all_cells_placed(self, placed_s27):
        circuit, placement = placed_s27
        assert set(placement.cell_pos) == set(circuit.cells)

    def test_cells_inside_die(self, placed_s27):
        _, placement = placed_s27
        for point in placement.cell_pos.values():
            assert 0 <= point.x <= placement.die_width + 1e-9
            assert 0 <= point.y <= placement.die_height + 1e-9

    def test_cells_on_row_centres(self, placed_s27):
        _, placement = placed_s27
        pitch = placement.row_pitch or placement.technology.row_height
        for point in placement.cell_pos.values():
            frac = (point.y / pitch) % 1.0
            assert frac == pytest.approx(0.5, abs=1e-6)

    def test_no_overlaps_within_rows(self, routed_medium):
        circuit, placement, _ = routed_medium
        tech = placement.technology
        by_row = {}
        for name, point in placement.cell_pos.items():
            width = tech.cell_width(circuit.cells[name].ctype.transistor_count())
            by_row.setdefault(round(point.y, 3), []).append((point.x - width / 2, point.x + width / 2))
        for intervals in by_row.values():
            intervals.sort()
            for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
                assert hi1 <= lo2 + 1e-6

    def test_ports_on_edges(self, placed_s27):
        circuit, placement = placed_s27
        for name in circuit.inputs:
            assert placement.port_pos[name].x == 0.0
        for name in circuit.outputs:
            assert placement.port_pos[name].x == pytest.approx(placement.die_width)

    def test_refinement_reduces_wirelength(self):
        circuit = s27()
        rough = place(circuit, refine_iterations=0)
        refined = place(circuit, refine_iterations=8)
        assert refined.total_wirelength_estimate() <= rough.total_wirelength_estimate() * 1.05

    def test_unknown_terminal_raises(self, placed_s27):
        _, placement = placed_s27
        with pytest.raises(KeyError):
            placement.location("nonsense")

    def test_row_pitch_at_least_technology_height(self, routed_medium):
        _, placement, _ = routed_medium
        assert placement.row_pitch >= placement.technology.row_height - 1e-9

    def test_channel_stretch_scales_with_demand(self):
        """Bigger designs need taller channels: the realised row pitch
        grows with circuit size."""
        small = place(generate_circuit(GeneratorSpec(
            name="s", seed=5, n_inputs=4, n_outputs=4, n_ff=6, n_gates=60, depth=5
        )))
        large = place(generate_circuit(GeneratorSpec(
            name="l", seed=5, n_inputs=8, n_outputs=8, n_ff=60, n_gates=900, depth=10
        )))
        assert large.row_pitch >= small.row_pitch

    def test_stretch_keeps_cells_on_pitch_grid(self, routed_medium):
        _, placement, _ = routed_medium
        for point in placement.cell_pos.values():
            frac = (point.y / placement.row_pitch) % 1.0
            assert frac == pytest.approx(0.5, abs=1e-6)


class TestRouting:
    def test_every_driven_net_routed(self, routed_medium):
        circuit, _, routing = routed_medium
        expected = {
            n.name for n in circuit.nets.values() if n.driver is not None and n.sinks
        }
        assert set(routing.routes) == expected

    def test_no_same_track_overlaps(self, routed_medium):
        """The router's core guarantee: one net per (layer, track)
        interval."""
        _, _, routing = routed_medium
        by_track = {}
        for seg in routing.all_segments():
            by_track.setdefault((seg.layer, seg.track), []).append(seg)
        for segs in by_track.values():
            segs.sort(key=lambda s: s.lo)
            for a, b in zip(segs, segs[1:]):
                assert a.hi <= b.lo + 1e-9, (a, b)

    def test_route_connects_all_terminals(self, routed_medium):
        circuit, placement, routing = routed_medium
        for net_name, route_obj in routing.routes.items():
            net = circuit.nets[net_name]
            assert len(route_obj.sink_taps) == len(net.sinks)

    def test_branches_touch_trunk(self, routed_medium):
        _, _, routing = routed_medium
        for route_obj in routing.routes.values():
            for _, _, branch in [route_obj.driver_tap] + route_obj.sink_taps:
                if branch is None:
                    continue
                assert branch.lo <= route_obj.trunk_y + 1e-6
                assert branch.hi >= route_obj.trunk_y - 1e-6

    def test_deterministic(self):
        circuit = s27()
        placement = place(circuit)
        first = route(circuit, placement)
        second = route(circuit, placement)
        assert first.total_wirelength() == second.total_wirelength()

    def test_wirelength_positive(self, routed_medium):
        _, _, routing = routed_medium
        assert routing.total_wirelength() > 0


class TestRouteFixtures:
    """Routes and coupling frozen in ``tests/golden/routes.json``
    (regenerate with ``tests/golden/make_routes.py``): the track filter
    must leave every segment, tap, overflow count and coupling hex as the
    plain outward ``fits`` scan produced them."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(make_routes.FIXTURE_PATH) as handle:
            return json.load(handle)

    def test_schema_and_cases(self, golden):
        assert golden["schema"] == make_routes.SCHEMA
        assert set(golden["cases"]) == set(make_routes.TIER1_CASES) | {make_routes.FULL_CASE}

    @pytest.mark.parametrize("name", make_routes.TIER1_CASES)
    def test_case_matches_golden(self, golden, name):
        assert make_routes.build_case(name) == golden["cases"][name]

    def test_claim_counters(self, routed_medium):
        _, _, routed = routed_medium
        assert routed.claims == len(routed.all_segments())
        assert routed.exact_probes <= 2 * routed.claims


class _OutwardScan:
    """The router's first-fit search as a plain outward scan: every
    candidate track probed with ``TrackOccupancy.fits``, nearest first,
    + before -.  The oracle the filtered ``_TrackGrid`` must agree with."""

    def __init__(self, clearance):
        self.clearance = clearance
        self.tracks = {}
        self.overflows = 0

    def occupancy(self, layer, track):
        return self.tracks.setdefault((layer, track), TrackOccupancy())

    def claim(self, layer, preferred, lo, hi, soft_radius=6, guard_tracks=0):
        guards = range(-guard_tracks, guard_tracks + 1)
        offset = 0
        while True:
            for sign in (1, -1) if offset else (1,):
                track = preferred + sign * offset
                if all(
                    self.occupancy(layer, track + g).fits(lo, hi, self.clearance)
                    for g in guards
                ):
                    for g in guards:
                        self.occupancy(layer, track + g).add(lo, hi)
                    if offset > soft_radius:
                        self.overflows += 1
                    return track
            offset += 1


# An endpoint is a bucket boundary, shifted by -1, 0 or +1 clearances (so
# that a query's clearance-widened end can land on a boundary) and then
# by an offset: none, within 1e-9 either side, or a fraction of a bucket.
_NEAR = st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9])
_ENDPOINT = st.tuples(
    st.integers(-1, 4),
    st.sampled_from([-1, 0, 1]),
    st.one_of(_NEAR.map(lambda d: (d, 0.0)), st.floats(0.0, 1.0).map(lambda f: (0.0, f))),
)
_PIECE = st.tuples(
    st.sampled_from([1, 2]), st.integers(-4, 4), _ENDPOINT, _ENDPOINT
)
_CLAIM = st.tuples(
    st.sampled_from([1, 2]),
    st.integers(-3, 3),
    _ENDPOINT,
    _ENDPOINT,
    st.integers(0, 2),
)


def _interval(width, clearance, a, b):
    """Two endpoints ``(bucket, shift, (offset, fraction))`` as a sorted
    interval."""
    xs = sorted(
        (k + frac) * width + shift * clearance + offset
        for k, shift, (offset, frac) in (a, b)
    )
    return xs[0], xs[1]


def _filter_bits(layer_filter, grid_name):
    """Set bits of a filter grid as (track, bucket) pairs."""
    bits = np.unpackbits(getattr(layer_filter, grid_name), axis=0, bitorder="little")
    tracks, buckets = np.nonzero(bits)
    return set(
        zip(
            (tracks + layer_filter.track0).tolist(),
            (buckets + layer_filter.bucket0).tolist(),
        )
    )


class TestTrackFilter:
    """The occupancy filter decides exactly what the outward scan does.

    ``bulk`` lowers the bulk-write threshold to zero, so every write
    (replay and claims alike) builds the filter from difference arrays."""

    @given(
        pitch=st.floats(0.3, 3.0),
        clearance_frac=st.sampled_from([0.0, 0.25, 0.6, 1.5]),
        bulk=st.booleans(),
        replay=st.lists(_PIECE, max_size=30),
        claims=st.lists(_CLAIM, min_size=1, max_size=40),
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_outward_scan(self, pitch, clearance_frac, bulk, replay, claims):
        clearance = clearance_frac * pitch
        grid = _TrackGrid(pitch=pitch, clearance=clearance)
        oracle = _OutwardScan(clearance)
        width = grid.filters[1].width
        pieces = []
        for layer, track, a, b in replay:
            lo, hi = _interval(width, clearance, a, b)
            pieces.append((layer, track, lo, hi))
            oracle.occupancy(layer, track).add(lo, hi)
        with mock.patch.object(
            routing_module, "_BULK_PIECES", 0 if bulk else routing_module._BULK_PIECES
        ):
            grid.occupy(pieces)
            for layer, preferred, a, b, guard in claims:
                lo, hi = _interval(width, clearance, a, b)
                seg = grid.claim(layer, preferred, lo, hi, "n", guard_tracks=guard)
                expected = oracle.claim(layer, preferred, lo, hi, guard_tracks=guard)
                assert seg.track == expected
        assert grid.overflows == oracle.overflows
        assert grid.claims == len(claims)
        for (layer, track), occ in oracle.tracks.items():
            if occ.intervals:
                assert grid._occupancy(layer, track).intervals == occ.intervals

    @pytest.mark.parametrize(
        "occupied, query",
        [
            # The occupant starts 5e-10 short of the boundary the
            # clearance-widened query ends on: they meet by less than
            # the overlap epsilon, so the track still fits.
            ((3.0 - 5e-10, 9.0), (-3.0, 3.0 - 0.375)),
            # Mirror image: the occupant ends on the boundary the query
            # starts 5e-10 short of.
            ((-3.0, 3.0), (3.0 + 0.375 - 5e-10, 9.0)),
            # Within 1e-9 the other way: they overlap, the track is full.
            ((3.0 - 2e-9, 9.0), (-3.0, 3.0 - 0.375)),
        ],
    )
    def test_boundary_contacts(self, occupied, query):
        grid = _TrackGrid(pitch=1.5, clearance=0.375)
        oracle = _OutwardScan(0.375)
        grid.occupy([(1, 0, *occupied)])
        oracle.occupancy(1, 0).add(*occupied)
        seg = grid.claim(1, 0, *query, "n")
        assert seg.track == oracle.claim(1, 0, *query)

    @given(pieces=st.lists(_PIECE, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bulk_write_matches_piecewise(self, pieces):
        """A replay's difference-array build sets the same filter bits as
        writing its intervals one at a time."""
        bulk, piecewise = _TrackGrid(1.5, 0.375), _TrackGrid(1.5, 0.375)
        intervals = [
            (layer, track, *_interval(1.5, 0.375, a, b)) for layer, track, a, b in pieces
        ]
        with mock.patch.object(routing_module, "_BULK_PIECES", 0):
            bulk.occupy(intervals)
        for piece in intervals:
            piecewise.occupy([piece])
        for layer in (1, 2):
            for name in ("touched", "covered"):
                assert _filter_bits(bulk.filters[layer], name) == _filter_bits(
                    piecewise.filters[layer], name
                ), (layer, name)

    def test_reroute_keeps_survivors_and_counts_own_claims(self, routed_medium):
        circuit, placement, routed = routed_medium
        victims = sorted(routed.routes)[:3]
        rerouted = reroute_nets(circuit, placement, routed, victims, guard_tracks=1)
        for name, net_route in routed.routes.items():
            if name not in victims:
                assert rerouted.routes[name] is net_route
        own = sum(len(rerouted.routes[name].segments()) for name in victims)
        assert rerouted.claims == own
