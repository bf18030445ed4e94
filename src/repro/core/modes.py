"""Analysis modes and configuration of the crosstalk-aware STA.

The five modes are exactly the rows of the paper's result tables
(Section 6):

1. **BEST_CASE** -- coupling capacitances grounded at their original
   value: coupling ignored entirely.  A comparison value only.
2. **STATIC_DOUBLED** -- grounded with doubled value: the classical
   passive approach.  Assumes permanent coupling but misses the active
   nature of the effect ("This assumption is wrong!", Section 6).
3. **WORST_CASE** -- every coupling capacitance couples according to the
   active model at all times.
4. **ONE_STEP** -- Section 5.1: couple only where the aggressor's
   opposite-direction activity window can overlap the victim's earliest
   activity; one extra best-case waveform calculation per arc; BFS stays
   linear.
5. **ITERATIVE** -- Section 5.2: one-step repeated with stored quiescent
   times until the longest-path delay stops improving.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import InputError


class AnalysisMode(Enum):
    """The paper's five coupling treatments."""

    BEST_CASE = "best_case"
    STATIC_DOUBLED = "static_doubled"
    WORST_CASE = "worst_case"
    ONE_STEP = "one_step"
    ITERATIVE = "iterative"

    @property
    def is_window_based(self) -> bool:
        """Modes that consult aggressor timing windows."""
        return self in (AnalysisMode.ONE_STEP, AnalysisMode.ITERATIVE)


class WindowCheck(Enum):
    """Aggressor-activity test of the window-based modes.

    ``QUIET``: the paper's test -- couple unless the aggressor's
    opposite-direction quiescent time precedes the victim's earliest
    activity.  ``OVERLAP``: additionally ground aggressors whose activity
    cannot *start* before the victim's worst-case completion (two-sided
    window intersection; tighter, one extra calculation per arc).
    """

    QUIET = "quiet"
    OVERLAP = "overlap"


class SolverTier(Enum):
    """Arc-solving policy.

    ``EXACT``: every arc is integrated by the full transistor-table
    Newton solver (the paper-faithful reference; bit-identical to the
    behaviour before the tiered pipeline existed).  ``SCREENED``: arcs
    are first answered from a per-signature screening bank -- an
    analytical macromodel calibrated from a handful of anchor solves
    plus a response surface fitted from every full solve performed --
    and only escalated to the full Newton solve when the screen cannot
    produce a bound within ``screen_tolerance``, the query falls outside
    the fitted region, or the arc sits within ``screen_slack_margin`` of
    the longest path.  Screened results are conservative (never earlier
    / faster than the exact solve), so every reported delay remains an
    upper bound.
    """

    EXACT = "exact"
    SCREENED = "screened"


class ClockAggressorModel(Enum):
    """How clock-tree nets behave as aggressors.

    ``SETTLED``: the clock nets switch once at the launch edge and are
    quiet afterwards (single-edge analysis window; the return edge lies
    outside it).  ``ALWAYS``: clock nets may switch at any time --
    maximally conservative.
    """

    SETTLED = "settled"
    ALWAYS = "always"


@dataclass(frozen=True)
class StaConfig:
    """Tunable parameters of an analysis run.

    Attributes
    ----------
    mode:
        Coupling treatment (see :class:`AnalysisMode`).
    input_transition:
        Ramp time assumed at primary inputs (seconds).
    guard:
        Guard band for the window comparison ``t_a > t_bcs`` of the
        one-step algorithm, absorbing cache-quantization error on the
        conservative side.
    max_iterations:
        Pass budget of the iterative mode (including the first two).
    convergence_tolerance:
        Longest-path improvement below which iteration stops (seconds).
    esperance:
        Iterative mode only: recompute only nets on long paths
        (the Esperance speed-up of Benkoski et al. [11]).
    esperance_slack:
        Slack threshold (as a fraction of the longest-path delay) below
        which a net counts as "on a long path".
    clock_model:
        Aggressor behaviour of clock nets.
    slew_degradation_factor:
        Factor on the Elmore delay added linearly to the transition time
        at a sink (wire slew degradation; linear addition upper-bounds
        the RC-filtered sink slew, unlike the quadrature PERI form).
    window_check:
        How the one-step/iterative modes decide whether an aggressor can
        couple.  ``QUIET`` is the paper's one-sided test (aggressor quiet
        before the victim's earliest activity -> grounded).  ``OVERLAP``
        is a tighter two-sided extension: an aggressor whose activity can
        only *begin* after the victim has certainly completed is also
        grounded.  Costs one extra (all-active) waveform calculation per
        arc; still a guaranteed upper bound.
    workers:
        Opt-in multi-core fan-out of the batched solver: ``>= 2`` spreads
        each level's distinct solves over that many worker processes.
        ``0``/``1`` keeps everything in-process.
    arc_cache:
        Optional path of a persistent arc-cache file (JSON).  Loaded
        before the first pass when it exists and matches the design's
        process/cell-library fingerprint; rewritten after each run so
        repeated invocations skip the Newton integrations entirely.
    strict:
        Fail fast on internal faults instead of degrading gracefully: a
        failed arc solve raises instead of substituting a conservative
        bound, and a corrupt arc cache raises instead of being
        quarantined and rebuilt.
    max_degraded:
        Budget of degraded (conservatively bounded) arcs a non-strict
        run may accumulate before it is rejected; ``None`` means
        unlimited.
    checkpoint:
        Optional path of an iterative-mode checkpoint file.  State is
        persisted after every pass; when the file already holds passes
        for this exact analysis, the run resumes from them
        (bit-identical to an uninterrupted run).
    incremental:
        Delta-driven re-propagation between iterative passes: each arc's
        inputs (arrival event and decided coupling load) are
        fingerprinted with *exact* float equality, and an arc whose
        fingerprint is unchanged reuses the previous pass's waveform
        instead of re-solving.  Reuse is bit-identical by construction
        (equal inputs into a deterministic, cached calculator produce
        equal outputs), so this is purely a performance feature; disable
        to force every pass to pay full price (diagnosis, benchmarking
        baselines).
    worker_retries:
        How many times a worker chunk that died or timed out is resubmitted
        (with exponential backoff) before it is quarantined and evaluated
        in-process.
    worker_timeout:
        Per-chunk wall-clock limit in seconds for the worker pool
        (``None``: unlimited).  A chunk exceeding it counts as a worker
        failure and follows the retry/quarantine policy.
    solver_tier:
        Arc-solving policy (see :class:`SolverTier`).  ``EXACT`` keeps
        the full Newton solve on every arc; ``SCREENED`` answers arcs
        from the per-signature macromodel/response-surface bank and
        escalates to Newton only when the screen cannot meet
        ``screen_tolerance`` or the arc is slack-critical.
    screen_tolerance:
        Screened tier only: the largest acceptable error estimate
        (seconds, on the half-V_DD crossing time) of a screened bound.
        Queries whose bracket or macromodel error estimate exceeds it
        escalate to the full solve.  Per-arc inflation accumulates
        along a path, so the first-pass longest delay can exceed the
        exact delay by several multiples of this value; the slack
        refinement (see ``screen_slack_margin``) is what brings the
        reported delay back within tolerance.
    screen_slack_margin:
        Screened tier only: slack threshold, as a fraction of the
        longest-path delay, below which an arc's driver cell is forced
        to the exact tier.  The analyzer iterates this refinement until
        the near-critical cone is fully exact, so the reported critical
        path is produced by the exact solver; ``0`` disables the
        refinement.
    provenance:
        Record a per-arc provenance ledger (solver tier, escalation
        reason, reuse origin, decided coupling, pass index, signature
        token) alongside the timing results.  Annotation only: delays
        are bit-identical with the ledger on or off; disabling merely
        drops the bookkeeping (and with it ``repro explain``'s
        per-stage provenance).
    clock_period:
        Optional clock period (seconds).  When set, every run
        additionally performs the backward required-time pass
        (:mod:`repro.core.slack`): endpoint setup checks, per-net and
        per-arc slack, and the ``slack`` block on the result.  ``None``
        (the default) skips constraint checking entirely -- arrival
        times are unchanged either way.
    setup_time:
        Setup requirement of flip-flop data inputs (seconds); only
        consulted when ``clock_period`` is set.
    hold_time:
        Hold requirement of flip-flop data inputs (seconds), checked by
        ``check_hold`` against a min-delay analysis.
    """

    mode: AnalysisMode = AnalysisMode.ITERATIVE
    input_transition: float = 100e-12
    guard: float = 5e-12
    max_iterations: int = 10
    convergence_tolerance: float = 1e-12
    esperance: bool = False
    esperance_slack: float = 0.15
    clock_model: ClockAggressorModel = ClockAggressorModel.SETTLED

    slew_degradation_factor: float = 2.2
    window_check: "WindowCheck" = None  # type: ignore[assignment]
    workers: int = 0
    arc_cache: str | None = None
    incremental: bool = True
    strict: bool = False
    max_degraded: int | None = None
    checkpoint: str | None = None
    worker_retries: int = 2
    worker_timeout: float | None = None
    solver_tier: SolverTier = SolverTier.EXACT
    screen_tolerance: float = 100e-12
    screen_slack_margin: float = 0.15
    provenance: bool = True
    # Timing constraints.  Deliberately NOT part of the checkpoint
    # fingerprint: they only drive the backward slack pass and the
    # setup/hold verdicts, never the forward pass sequence, so a
    # checkpoint stays resumable across constraint changes.
    clock_period: float | None = None
    setup_time: float = 100e-12
    hold_time: float = 50e-12

    def __post_init__(self) -> None:
        if self.window_check is None:
            object.__setattr__(self, "window_check", WindowCheck.QUIET)
        if isinstance(self.solver_tier, str):
            object.__setattr__(self, "solver_tier", SolverTier(self.solver_tier))
        if self.screen_tolerance <= 0:
            raise InputError("screen_tolerance must be positive")
        if self.screen_slack_margin < 0:
            raise InputError("screen_slack_margin must be non-negative")
        if self.workers < 0:
            raise InputError("workers must be non-negative")
        if self.max_degraded is not None and self.max_degraded < 0:
            raise InputError("max_degraded must be non-negative")
        if self.worker_retries < 0:
            raise InputError("worker_retries must be non-negative")
        if self.clock_period is not None and self.clock_period <= 0:
            raise InputError("clock_period must be positive")
        if self.setup_time < 0:
            raise InputError("setup_time must be non-negative")
        if self.hold_time < 0:
            raise InputError("hold_time must be non-negative")

    def with_mode(self, mode: AnalysisMode) -> "StaConfig":
        from dataclasses import replace

        return replace(self, mode=mode)
