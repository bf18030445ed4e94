"""Deterministic fault injection for the analysis runtime.

Each injector forces one failure mode the runtime claims to survive --
Newton divergence, worker death/hangs, cache corruption, mid-run
interrupts -- in a way that is reproducible from a seed, so robustness
tests assert exact outcomes instead of racing real faults.

All injectors are context managers (or small factories) with no global
state left behind: monkey-patched solver methods are restored on exit
and worker-fault specs are cleared from the calculator.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterable

from repro.core.propagation import PassResult
from repro.errors import AnalysisInterrupted
from repro.waveform.batchstage import BatchStageSolver
from repro.waveform.gatedelay import GateDelayCalculator
from repro.waveform.stage import StageSolver, StageSolverError


@contextmanager
def newton_failures(rate: float = 1.0, seed: int = 0):
    """Make a deterministic fraction of stage solves fail.

    The serial solver and both batch solver entry points are patched:
    each call draws from one seeded stream and raises
    :class:`StageSolverError` (the taxonomy's ``SolverError``) with
    probability ``rate``.  A failed batch falls back to per-arc serial
    solves, which draw again.  Because the analysis evaluates arcs in a
    deterministic order, a given ``(rate, seed)`` always fails the same
    arcs.
    """
    rng = random.Random(seed)
    originals = {
        (StageSolver, "solve"): StageSolver.solve,
        (BatchStageSolver, "solve_many"): BatchStageSolver.solve_many,
        (BatchStageSolver, "solve_many_compact"): BatchStageSolver.solve_many_compact,
    }

    def failing(original, message):
        def solve(self, *args, **kwargs):
            if rng.random() < rate:
                raise StageSolverError(message)
            return original(self, *args, **kwargs)

        return solve

    for (cls, name), original in originals.items():
        message = (
            "injected Newton failure"
            if cls is StageSolver
            else "injected Newton failure (batch)"
        )
        setattr(cls, name, failing(original, message))
    try:
        yield
    finally:
        for (cls, name), original in originals.items():
            setattr(cls, name, original)


@contextmanager
def worker_faults(
    calculator: GateDelayCalculator,
    action: str = "kill",
    times: int = 1,
    seconds: float = 30.0,
    chunks: Iterable[int] | None = None,
):
    """Arm worker-pool faults on ``calculator``.

    ``action="kill"`` makes the worker die via ``os._exit`` (what an OOM
    kill looks like); ``action="hang"`` makes it sleep for ``seconds``.
    The spec is consumed parent-side on chunk submission, so ``times=N``
    fires on exactly the first N matching submissions regardless of
    worker scheduling.  ``chunks`` restricts injection to those chunk
    indices.
    """
    calculator.pool_fault = {
        "action": action,
        "times": times,
        "seconds": seconds,
        "chunks": set(chunks) if chunks is not None else None,
    }
    try:
        yield
    finally:
        calculator.pool_fault = None


def corrupt_file(path: str, mode: str = "truncate", seed: int = 0) -> None:
    """Corrupt an on-disk artifact the way real corruption looks.

    ``truncate`` keeps a prefix (a torn write); ``bitflip`` flips one
    deterministically chosen bit in place (bit rot).  Both leave the
    file present so loaders must *detect* the damage rather than miss
    the file.
    """
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if not blob:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    rng = random.Random(seed)
    if mode == "truncate":
        keep = max(1, len(blob) // 2)
        blob = blob[:keep]
    elif mode == "bitflip":
        index = rng.randrange(len(blob))
        blob[index] ^= 1 << rng.randrange(8)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


# -- fleet fault specs (see repro.service.fleet / .router) ------------------


def kill_shard(fleet, index: int) -> None:
    """SIGKILL one shard process: what an OOM kill or segfault looks
    like.  The supervisor detects the death, the router fails the
    shard's sessions over on first touch."""
    fleet.kill(index)


@contextmanager
def hang_shard(fleet, index: int):
    """SIGSTOP one shard for the duration of the block: the process
    stays alive to the OS but answers nothing, which must trip the
    probe-deadline path (not the process-death path).  Resumed on exit
    so a later supervisor kill, if one happened, finds a stoppable
    process either way."""
    fleet.pause(index)
    try:
        yield
    finally:
        fleet.resume(index)


@contextmanager
def drop_links(router, indices: Iterable[int]):
    """Simulate a router<->shard network partition: calls on the named
    shards' links raise ``ShardLinkDown`` without touching the socket,
    so the shard itself stays healthy (and its warm state survives for
    the post-partition 404-replay path to find missing)."""
    indices = list(indices)
    dropped = []
    for index in indices:
        link = router.links.get(index)
        if link is not None:
            link.dropped = True
            dropped.append(link)
    try:
        yield
    finally:
        for link in dropped:
            link.dropped = False


@contextmanager
def corrupt_handoff(router, mode: str = "bitflip", times: int = 1):
    """Arm mid-handoff corruption on the router: the next ``times``
    encoded failover payloads are damaged in flight (``bitflip`` breaks
    the checksum, ``truncate`` drops the edit log), forcing the
    receiving shard's CheckpointError rejection and the router's
    re-encode retry."""
    if mode not in ("bitflip", "truncate"):
        raise ValueError(f"unknown handoff corruption mode {mode!r}")
    router.handoff_fault = {"mode": mode, "times": times}
    try:
        yield
    finally:
        router.handoff_fault = None


def interrupt_after_pass(passes: int) -> Callable[[int, PassResult], None]:
    """An ``after_pass`` hook that raises :class:`AnalysisInterrupted`
    once ``passes`` passes have completed (and been checkpointed)."""

    def hook(index: int, result: PassResult) -> None:
        if index >= passes:
            raise AnalysisInterrupted(
                f"injected interrupt after pass {index}", passes_completed=index
            )

    return hook
