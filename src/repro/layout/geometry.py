"""Geometric primitives for placement and routing.

Everything lives on a track grid: horizontal metal-1 segments occupy
(channel, track) rows, vertical metal-2 segments occupy column tracks.
Coordinates are in micrometres.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A location in the placement plane (um)."""

    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class TrackSegment:
    """A straight wire piece on one routing track.

    ``layer`` is 1 (horizontal M1) or 2 (vertical M2).  For M1, ``track``
    identifies a global horizontal track index and ``lo``/``hi`` are x
    coordinates; for M2, ``track`` is a vertical track index and
    ``lo``/``hi`` are y coordinates.
    """

    net: str
    layer: int
    track: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.layer not in (1, 2):
            raise ValueError(f"layer must be 1 or 2, got {self.layer}")
        if self.hi < self.lo:
            raise ValueError(f"segment with hi < lo: {self}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def overlap(self, other: "TrackSegment") -> float:
        """Length of the parallel overlap with another segment (same
        layer assumed; tracks may differ)."""
        return max(0.0, min(self.hi, other.hi) - max(self.lo, other.lo))


# Intervals meeting by no more than this do not overlap.
OVERLAP_EPS = 1e-9


def interval_overlaps(lo_a: float, hi_a: float, lo_b: float, hi_b: float) -> bool:
    """True if open intervals (lo_a, hi_a) and (lo_b, hi_b) intersect."""
    return min(hi_a, hi_b) - max(lo_a, lo_b) > OVERLAP_EPS


class TrackOccupancy:
    """First-fit interval bookkeeping for one routing track.

    Claimed intervals never overlap (the router only adds after ``fits``),
    so they are kept sorted and queried with bisection: O(log n) per
    check instead of a linear scan -- the difference between minutes and
    hours when routing paper-size circuits.
    """

    __slots__ = ("intervals",)

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []

    def fits(self, lo: float, hi: float, clearance: float = 0.0) -> bool:
        intervals = self.intervals
        index = bisect_left(intervals, (lo, lo))
        # The predecessor may reach into [lo, hi]; successors start after
        # lo and only the first can matter (they are disjoint and sorted).
        if index > 0 and interval_overlaps(
            lo - clearance, hi + clearance, *intervals[index - 1]
        ):
            return False
        if index < len(intervals) and interval_overlaps(
            lo - clearance, hi + clearance, *intervals[index]
        ):
            return False
        return True

    def add(self, lo: float, hi: float) -> None:
        insort(self.intervals, (lo, hi))
