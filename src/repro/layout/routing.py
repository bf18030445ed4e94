"""Two-layer track router.

Routes every net in trunk-and-branch style on the 0.5 um two-metal grid:

* one horizontal **metal-1 trunk** spanning the x extent of the net's
  terminals, placed on the free horizontal track nearest the driver, and
* vertical **metal-2 branches** dropping from each terminal to the trunk.

Track assignment is first-fit with outward search from the preferred
track, so congested regions push nets onto neighbouring tracks -- which is
precisely what creates the parallel adjacent runs whose coupling the paper
studies.  The router guarantees no two nets share a (layer, track)
interval; the extractor then derives coupling from adjacent-track overlap.

A bit-packed occupancy filter per layer settles most candidate tracks
without probing them, so the search costs about one exact probe per
claim while choosing exactly the tracks the plain outward scan would
(docs/ALGORITHMS.md section 11).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.circuit.netlist import Circuit, Net, Pin
from repro.layout.geometry import OVERLAP_EPS, Point, TrackOccupancy, TrackSegment
from repro.layout.placement import Placement
from repro.layout.technology import Technology


@dataclass
class NetRoute:
    """Routed topology of one net.

    ``trunk`` may be ``None`` for nets whose terminals share one vertical
    track.  ``taps`` maps terminal names (pin/port full names) to their
    (x, branch segment) on the trunk; the driver's entry is under
    ``driver_tap``.
    """

    net: str
    trunk: TrackSegment | None
    trunk_y: float
    driver_tap: tuple[str, float, TrackSegment | None]
    sink_taps: list[tuple[str, float, TrackSegment | None]] = field(default_factory=list)

    def segments(self) -> list[TrackSegment]:
        segs = []
        if self.trunk is not None and self.trunk.length > 0:
            segs.append(self.trunk)
        for _, _, branch in [self.driver_tap] + self.sink_taps:
            if branch is not None and branch.length > 0:
                segs.append(branch)
        return segs

    def wirelength(self) -> float:
        return sum(seg.length for seg in self.segments())


@dataclass
class RoutingResult:
    """All net routes plus congestion statistics.

    ``claims`` counts the track intervals this run claimed (one per
    routed segment) and ``exact_probes`` the ``TrackOccupancy.fits``
    checks the occupancy filter could not settle on its own; both cover
    only this run's own routing, not segments replayed from an earlier
    result.
    """

    routes: dict[str, NetRoute] = field(default_factory=dict)
    overflow_count: int = 0
    claims: int = 0
    exact_probes: int = 0

    def total_wirelength(self) -> float:
        return sum(route.wirelength() for route in self.routes.values())

    def all_segments(self) -> list[TrackSegment]:
        segs: list[TrackSegment] = []
        for route in self.routes.values():
            segs.extend(route.segments())
        return segs


# Half-width, in tracks, of the first first-fit search window; a window
# without a fitting track is widened eightfold (at most to the written
# extent's edge, past which every track is free) and searched again.
_FIRST_RADIUS = 64
# A write of more intervals than this (a reroute's replay) builds the
# filter from difference arrays instead of interval by interval.
_BULK_PIECES = 64


@lru_cache(maxsize=64)
def _search_order(radius: int) -> np.ndarray:
    """Window indices of the candidates ``preferred + d`` for ``d = 0, +1,
    -1, +2, -2, ..., +radius, -radius`` (first-fit order, + before -) in a
    window starting at ``preferred - radius``."""
    offsets = np.arange(1, radius + 1)
    order = np.empty(2 * radius + 1, dtype=np.int64)
    order[0] = radius
    order[1::2] = radius + offsets
    order[2::2] = radius - offsets
    return order


def _chained(intervals: list[tuple[float, float]], lo: float, hi: float) -> bool:
    """True if ``(lo, hi)``, just inserted into the sorted ``intervals``,
    is longer than the overlap epsilon and disjoint from its neighbours."""
    index = bisect_left(intervals, (lo, hi))
    return (
        hi - lo > OVERLAP_EPS
        and (index == 0 or intervals[index - 1][1] <= lo)
        and (index + 1 == len(intervals) or hi <= intervals[index + 1][0])
    )


def _interval_bits(
    cols: np.ndarray, starts: np.ndarray, stops: np.ndarray, rows: int, nbytes: int
) -> np.ndarray:
    """Bit-packed (track byte, row) grid of the row ranges ``[starts,
    stops)`` on tracks ``cols``: a difference array summed along rows."""
    counts = np.zeros((nbytes * 8, rows + 1), dtype=np.int32)
    np.add.at(counts, (cols, starts), 1)
    np.add.at(counts, (cols, stops), -1)
    np.cumsum(counts, axis=1, out=counts)
    return np.packbits(counts[:, :-1] > 0, axis=0, bitorder="little")


class _LayerFilter:
    """Exact bit-packed summary of one layer's claimed intervals.

    The layer's coordinate axis is cut into buckets ``width`` um wide.
    Entry ``[j, r]`` of each grid packs eight tracks of bucket
    ``bucket0 + r``: bit ``i`` (little bit order) is track ``track0 + 8 *
    j + i``.  Buckets run along the contiguous axis, so the OR over a
    query's buckets is a contiguous reduction per byte of tracks.

    * ``touched``: some interval on the track meets the bucket.  A query
      meeting no touched bucket overlaps no interval: ``fits`` is true.
    * ``covered``: some interval spans the whole bucket.  A query with a
      covered interior bucket overlaps that interval by a bucket width:
      ``fits`` is false.  That holds while the track's intervals chain
      (sorted, disjoint, each longer than the overlap epsilon); tracks
      where a write broke the chain are ``loose`` and get no covered bits.

    docs/ALGORITHMS.md section 11 gives the argument that both tests
    agree with ``TrackOccupancy.fits``.
    """

    __slots__ = ("width", "bucket0", "track0", "touched", "covered", "loose", "extent")

    def __init__(self, width: float):
        self.width = width
        self.bucket0 = 0
        self.track0 = 0
        self.touched = np.zeros((0, 0), dtype=np.uint8)
        self.covered = np.zeros((0, 0), dtype=np.uint8)
        self.loose: set[int] = set()
        # Lowest and highest track written; every track outside is free.
        self.extent: tuple[int, int] | None = None

    def reach(self, track: int, guard: int) -> int:
        """A search radius around ``track`` that certainly holds a track
        whose ``guard`` neighbours on both sides are free too: the nearer
        of the first such tracks beyond the written extent."""
        if self.extent is None:
            return 1
        lo, hi = self.extent
        return max(1, min(hi + 1 + guard - track, track - lo + 1 + guard))

    def _written(self, t_lo: int, t_hi: int) -> None:
        if self.extent is not None:
            t_lo, t_hi = min(t_lo, self.extent[0]), max(t_hi, self.extent[1])
        self.extent = (t_lo, t_hi)

    def _reserve(self, b_lo: int, b_hi: int, t_lo: int, t_hi: int) -> None:
        """Grow both grids to hold buckets b_lo..b_hi x tracks t_lo..t_hi."""
        nbytes, rows = self.touched.shape
        if rows:
            b_top = self.bucket0 + rows - 1
            t_top = self.track0 + 8 * nbytes - 1
            if (
                self.bucket0 <= b_lo and b_hi <= b_top
                and self.track0 <= t_lo and t_hi <= t_top
            ):
                return
            b_lo, b_hi = min(b_lo, self.bucket0), max(b_hi, b_top)
            t_lo, t_hi = min(t_lo, self.track0), max(t_hi, t_top)
        # Pad by half the extent so repeated growth stays amortized O(1).
        b_pad = 8 + (b_hi - b_lo) // 2
        t_pad = 64 + (t_hi - t_lo) // 2
        bucket0 = b_lo - b_pad
        track0 = (t_lo - t_pad) & ~7
        shape = ((t_hi + t_pad - track0) // 8 + 1, b_hi + b_pad - bucket0 + 1)
        c, r = (self.track0 - track0) // 8, self.bucket0 - bucket0
        for name in ("touched", "covered"):
            grown = np.zeros(shape, dtype=np.uint8)
            grown[c : c + nbytes, r : r + rows] = getattr(self, name)
            setattr(self, name, grown)
        self.bucket0, self.track0 = bucket0, track0

    def loosen(self, track: int) -> None:
        """Stop deciding ``blocked`` on ``track``: its chain is broken."""
        self.loose.add(track)
        col = track - self.track0
        if 0 <= col < 8 * self.covered.shape[0]:
            self.covered[col >> 3] &= ~(1 << (col & 7)) & 0xFF

    def mark(self, track: int, lo: float, hi: float) -> None:
        """Record one interval on ``track``."""
        w = self.width
        b0, b1 = math.floor(lo / w), math.floor(hi / w)
        self._reserve(b0, b1, track, track)
        self._written(track, track)
        col = track - self.track0
        byte, bit = col >> 3, 1 << (col & 7)
        self.touched[byte, b0 - self.bucket0 : b1 - self.bucket0 + 1] |= bit
        k0 = math.ceil(lo / w)
        if k0 < b1 and track not in self.loose:
            self.covered[byte, k0 - self.bucket0 : b1 - self.bucket0] |= bit

    def mark_many(self, tracks: np.ndarray, los: np.ndarray, his: np.ndarray) -> None:
        """Record many intervals at once (``mark`` for each, vectorized)."""
        w = self.width
        b0 = np.floor(los / w).astype(np.int64)
        b1 = np.floor(his / w).astype(np.int64)
        t_lo, t_hi = int(tracks.min()), int(tracks.max())
        self._reserve(int(b0.min()), int(b1.max()), t_lo, t_hi)
        self._written(t_lo, t_hi)
        nbytes, rows = self.touched.shape
        cols = tracks - self.track0
        self.touched |= _interval_bits(
            cols, b0 - self.bucket0, b1 - self.bucket0 + 1, rows, nbytes
        )
        k0 = np.ceil(los / w).astype(np.int64)
        keep = k0 < b1
        if self.loose:
            keep &= ~np.isin(tracks, list(self.loose))
        if keep.any():
            self.covered |= _interval_bits(
                cols[keep], k0[keep] - self.bucket0, b1[keep] - self.bucket0, rows, nbytes
            )

    def window(self, t_lo: int, t_hi: int, q0: float, q1: float) -> tuple:
        """Index the grids for the query ``[q0, q1]`` on tracks t_lo..t_hi.

        Nothing is stored outside the grids, so the window is clipped to
        them: the stored tracks' byte columns, bit slice and place in the
        window (None if none is stored), and the query's unclipped bucket
        rows."""
        nbytes, rows = self.touched.shape
        w = self.width
        r0, r1 = math.floor(q0 / w) - self.bucket0, math.floor(q1 / w) - self.bucket0
        lo, hi = max(t_lo, self.track0), min(t_hi, self.track0 + 8 * nbytes - 1)
        if hi < lo:
            return t_hi - t_lo + 1, None, r0, r1
        col = lo - self.track0
        stored = (
            slice(col >> 3, ((hi - self.track0) >> 3) + 1),
            slice(col & 7, (col & 7) + hi - lo + 1),
            slice(lo - t_lo, hi - t_lo + 1),
        )
        return t_hi - t_lo + 1, stored, r0, r1

    def _reduce(self, grid: np.ndarray, window: tuple, r0: int, r1: int) -> np.ndarray:
        """Per track of the window: OR of ``grid`` over rows r0..r1."""
        size, stored, _, _ = window
        r0, r1 = max(r0, 0), min(r1, grid.shape[1] - 1)
        if stored is None or r1 < r0:
            return np.zeros(size, dtype=bool)
        cols, bits, place = stored
        packed = np.bitwise_or.reduce(grid[cols, r0 : r1 + 1], axis=1)
        stored_bits = np.unpackbits(packed, bitorder="little")[bits].view(bool)
        if place.stop - place.start == size:
            return stored_bits
        out = np.zeros(size, dtype=bool)
        out[place] = stored_bits
        return out

    def free(self, window: tuple) -> np.ndarray:
        """Per track of the window: the query meets no interval."""
        _, _, r0, r1 = window
        return ~self._reduce(self.touched, window, r0, r1)

    def blocked(self, window: tuple) -> np.ndarray | None:
        """Per track of the window: an interval spans a bucket interior to
        the query (None: the query has no interior bucket)."""
        _, _, r0, r1 = window
        if r1 - r0 < 2:
            return None
        return self._reduce(self.covered, window, r0 + 1, r1 - 1)


class _TrackGrid:
    """Occupancy maps for both layers with outward first-fit search.

    Each track's exact intervals live in a ``TrackOccupancy``; a
    ``_LayerFilter`` per layer settles most first-fit candidates as
    certainly free or certainly blocked, so only the rest are probed with
    ``TrackOccupancy.fits``.  ``occupy`` is the one write path and keeps
    the two in step.
    """

    def __init__(self, pitch: float, clearance: float):
        self.pitch = pitch
        self.clearance = clearance
        self.h_tracks: dict[int, TrackOccupancy] = {}
        self.v_tracks: dict[int, TrackOccupancy] = {}
        self.filters = {1: _LayerFilter(pitch), 2: _LayerFilter(pitch)}
        self.overflows = 0
        self.claims = 0
        self.exact_probes = 0

    def _occupancy(self, layer: int, track: int) -> TrackOccupancy:
        table = self.h_tracks if layer == 1 else self.v_tracks
        occ = table.get(track)
        if occ is None:
            occ = TrackOccupancy()
            table[track] = occ
        return occ

    def occupy(self, pieces: list[tuple[int, int, float, float]]) -> None:
        """Add ``(layer, track, lo, hi)`` intervals to the grid: to each
        track's ``TrackOccupancy`` and to the layer's filter."""
        for layer, track, lo, hi in pieces:
            occ = self._occupancy(layer, track)
            occ.add(lo, hi)
            if not _chained(occ.intervals, lo, hi):
                self.filters[layer].loosen(track)
        if len(pieces) <= _BULK_PIECES:
            for layer, track, lo, hi in pieces:
                self.filters[layer].mark(track, lo, hi)
            return
        for layer, layer_filter in self.filters.items():
            rows = [piece[1:] for piece in pieces if piece[0] == layer]
            if rows:
                tracks, los, his = zip(*rows)
                layer_filter.mark_many(
                    np.array(tracks, dtype=np.int64), np.array(los), np.array(his)
                )

    def claim(
        self,
        layer: int,
        preferred_track: int,
        lo: float,
        hi: float,
        net: str,
        soft_radius: int = 6,
        guard_tracks: int = 0,
    ) -> TrackSegment:
        """Find the nearest free track to ``preferred_track`` and claim the
        interval.  Searches outward (+ before -); beyond ``soft_radius``
        the claim is counted as overflow but still succeeds (tracks are
        unbounded).

        ``guard_tracks`` > 0 additionally reserves the same interval on
        the neighbouring tracks (shield spacing): later nets cannot run
        adjacent to this one, eliminating its nearest-neighbour coupling.
        """
        radius = _FIRST_RADIUS
        settled: dict[int, bool] = {}
        while (
            track := self._first_fit(
                layer, preferred_track, lo, hi, radius, guard_tracks, settled
            )
        ) is None:
            reach = self.filters[layer].reach(preferred_track, guard_tracks)
            # Whole multiples of the first radius keep the orders cached.
            reach = -(-reach // _FIRST_RADIUS) * _FIRST_RADIUS
            radius = min(radius * 8, max(reach, radius + _FIRST_RADIUS))
        self.claims += 1
        self.occupy(
            [(layer, track + g, lo, hi) for g in range(-guard_tracks, guard_tracks + 1)]
        )
        if abs(track - preferred_track) > soft_radius:
            self.overflows += 1
        return TrackSegment(net=net, layer=layer, track=track, lo=lo, hi=hi)

    def _first_fit(
        self,
        layer: int,
        preferred: int,
        lo: float,
        hi: float,
        radius: int,
        guard: int,
        settled: dict[int, bool],
    ) -> int | None:
        """The first track within ``radius`` of ``preferred``, in search
        order, whose ``2 * guard + 1`` tracks all fit ``[lo, hi]``.

        The filter marks tracks free or blocked; the candidates before the
        first all-free one that are not blocked are settled exactly, in
        order, with ``TrackOccupancy.fits`` (results kept in ``settled``
        across the windows of one claim)."""
        layer_filter = self.filters[layer]
        start = preferred - radius
        window = layer_filter.window(
            start - guard, preferred + radius + guard, lo - self.clearance, hi + self.clearance
        )
        free = layer_filter.free(window)
        span = 2 * guard + 1
        open_free = sliding_window_view(free, span).all(axis=1) if guard else free
        order = _search_order(radius)
        ordered = open_free[order]
        first = int(ordered.argmax())
        if not ordered[first]:
            first = len(order)
        elif first == 0:
            return preferred
        blocked = layer_filter.blocked(window)
        before = order[:first]
        if blocked is None:
            candidates = before.tolist()
        else:
            if guard:
                blocked = sliding_window_view(blocked, span).any(axis=1)
            candidates = before[~blocked[before]].tolist()
        table = self.h_tracks if layer == 1 else self.v_tracks
        for index in candidates:
            for g in range(span):
                if free[index + g]:
                    continue
                track = start + index + g - guard
                fits = settled.get(track)
                if fits is None:
                    self.exact_probes += 1
                    fits = settled[track] = table[track].fits(lo, hi, self.clearance)
                if not fits:
                    break
            else:
                return start + index
        return start + int(order[first]) if first < len(order) else None


def route(
    circuit: Circuit,
    placement: Placement,
    technology: Technology | None = None,
    guard_nets: dict[str, int] | None = None,
) -> RoutingResult:
    """Route every multi-terminal net of the circuit.

    ``guard_nets`` maps net names to a shield spacing in tracks: those
    nets are routed first and keep that many neighbouring tracks free on
    both sides (the crosstalk-repair move -- trading routing resources for
    eliminated coupling).
    """
    tech = technology if technology is not None else placement.technology
    guard_nets = guard_nets if guard_nets is not None else {}
    pitch = tech.track_pitch
    grid = _TrackGrid(pitch=pitch, clearance=0.25 * pitch)
    result = RoutingResult()

    # Guarded nets first (they need contiguous free tracks), then short
    # nets before long so long nets detour around them.
    nets = [n for n in circuit.nets.values() if n.driver is not None and n.sinks]
    nets.sort(
        key=lambda n: (
            0 if n.name in guard_nets else 1,
            _span_estimate(n, placement),
            n.name,
        )
    )

    for net in nets:
        result.routes[net.name] = _route_net(
            net, placement, grid, pitch, guard_nets.get(net.name, 0)
        )
    result.overflow_count = grid.overflows
    result.claims = grid.claims
    result.exact_probes = grid.exact_probes
    return result


def reroute_nets(
    circuit: Circuit,
    placement: Placement,
    routing: RoutingResult,
    nets: list[str],
    guard_tracks: int = 1,
    technology: Technology | None = None,
) -> RoutingResult:
    """Rip up and re-route only the given nets, with guard spacing.

    Every other net keeps its exact geometry: the track grid is replayed
    from the surviving segments before the victims are re-routed, so the
    repair is local -- the classic rip-up-and-reroute move.
    """
    tech = technology if technology is not None else placement.technology
    pitch = tech.track_pitch
    victims = set(nets)
    grid = _TrackGrid(pitch=pitch, clearance=0.25 * pitch)

    result = RoutingResult()
    replay = []
    for name, net_route in routing.routes.items():
        if name in victims:
            continue
        result.routes[name] = net_route
        replay.extend(
            (seg.layer, seg.track, seg.lo, seg.hi) for seg in net_route.segments()
        )
    grid.occupy(replay)

    for name in sorted(victims):
        net = circuit.nets.get(name)
        if net is None or net.driver is None or not net.sinks:
            continue
        result.routes[name] = _route_net(
            net, placement, grid, pitch, guard_tracks=guard_tracks
        )
    result.overflow_count = routing.overflow_count + grid.overflows
    result.claims = grid.claims
    result.exact_probes = grid.exact_probes
    return result


def _terminal_name_and_point(terminal, placement: Placement) -> tuple[str, Point]:
    if isinstance(terminal, Pin):
        return terminal.full_name, placement.cell_pos[terminal.cell.name]
    return terminal.name, placement.port_pos[terminal.name]


def _span_estimate(net: Net, placement: Placement) -> float:
    points = [_terminal_name_and_point(t, placement)[1] for t in [net.driver] + net.sinks]
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _route_net(
    net: Net,
    placement: Placement,
    grid: _TrackGrid,
    pitch: float,
    guard_tracks: int = 0,
) -> NetRoute:
    driver_name, driver_pt = _terminal_name_and_point(net.driver, placement)
    sinks = [_terminal_name_and_point(s, placement) for s in net.sinks]

    xs = [driver_pt.x] + [p.x for _, p in sinks]
    x_lo, x_hi = min(xs), max(xs)

    # Trunk at the median terminal y: minimises total vertical branch
    # length (the binding routing resource on a two-layer grid).
    ys = sorted([driver_pt.y] + [p.y for _, p in sinks])
    median_y = ys[len(ys) // 2]
    trunk_track_pref = round(median_y / pitch)
    if x_hi - x_lo > 1e-9:
        trunk = grid.claim(
            1, trunk_track_pref, x_lo, x_hi, net.name, guard_tracks=guard_tracks
        )
        trunk_y = trunk.track * pitch
    else:
        trunk = None
        trunk_y = trunk_track_pref * pitch

    def branch_for(name: str, pt: Point) -> tuple[str, float, TrackSegment | None]:
        y_lo, y_hi = sorted((pt.y, trunk_y))
        if y_hi - y_lo <= 1e-9:
            return name, pt.x, None
        seg = grid.claim(
            2, round(pt.x / pitch), y_lo, y_hi, net.name, guard_tracks=guard_tracks
        )
        return name, seg.track * pitch, seg

    driver_tap = branch_for(driver_name, driver_pt)
    route_obj = NetRoute(
        net=net.name,
        trunk=trunk,
        trunk_y=trunk_y,
        driver_tap=driver_tap,
    )
    for name, pt in sinks:
        route_obj.sink_taps.append(branch_for(name, pt))
    return route_obj
