"""Checkpoint/resume for the iterative analysis.

The iterative mode's unit of recoverable work is one pass: everything a
later pass consumes is the previous pass's :class:`PassResult` (events,
processed set, provenance) plus the best-so-far bound and the pass
history.  :class:`CheckpointManager` persists exactly that after every
pass, so a killed run resumed with ``--checkpoint`` continues from the
last completed pass and produces results bit-identical to an
uninterrupted run.

Bit-identity is guaranteed by serialising every float through
``float.hex()`` (lossless for all finite values and infinities) and by
the solver's determinism: later passes depend only on the restored
windows and state.  Writes are atomic (temp file + rename) and carry a
content checksum; a corrupt or mismatched checkpoint is quarantined to
``<path>.bad`` and the analysis restarts cleanly from pass 1.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import Iterable

from repro.core.columnar import DIR_INDEX, ColumnTimingState, CompiledDesign
from repro.core.graph import Provenance
from repro.core.iterative import IterationRecord
from repro.core.propagation import EndpointArrival, PassResult, Propagator
from repro.core.provenance import ProvenanceLedger
from repro.waveform.ramp import RampEvent

logger = logging.getLogger("repro.core.checkpoint")

# Format 2 added the per-arc provenance ledger (columnar payload at the
# top level) and the per-pass arc_prov row index / provenance_rows
# counts.  Format-1 files are quarantined and the run restarts -- the
# ledger cannot be reconstructed for passes that never recorded it.
CHECKPOINT_FORMAT = 2


def _hex(value: float) -> str:
    return float(value).hex()


def _unhex(raw: str) -> float:
    return float.fromhex(raw)


def _encode_event(event: RampEvent | None) -> list | None:
    if event is None:
        return None
    return [
        event.direction,
        _hex(event.t_cross),
        _hex(event.transition),
        _hex(event.t_early),
        _hex(event.t_late),
    ]


def _decode_event(raw: list | None) -> RampEvent | None:
    if raw is None:
        return None
    direction, t_cross, transition, t_early, t_late = raw
    return RampEvent(
        direction=direction,
        t_cross=_unhex(t_cross),
        transition=_unhex(transition),
        t_early=_unhex(t_early),
        t_late=_unhex(t_late),
    )


def _encode_pass(result: PassResult) -> dict:
    state = result.state
    return {
        "events": {
            net: {d: _encode_event(e) for d, e in slot.items()}
            for net, slot in state.events.items()
        },
        "processed": sorted(state.processed),
        "provenance": [
            [net, direction, p.cell, p.in_pin, p.in_net, p.in_direction,
             bool(p.coupled), _hex(p.c_active)]
            for (net, direction), p in state.provenance.items()
        ],
        "arc_prov": [
            [net, direction, row]
            for (net, direction), row in state.arc_prov.items()
        ],
        "provenance_rows": result.provenance_rows,
        "arrivals": [
            [a.endpoint, a.direction, _encode_event(a.event)]
            for a in result.arrivals
        ],
        "longest_delay": _hex(result.longest_delay),
        "critical_endpoint": result.critical_endpoint,
        "critical_direction": result.critical_direction,
        "waveform_evaluations": result.waveform_evaluations,
        "arcs_processed": result.arcs_processed,
        "coupled_arcs": result.coupled_arcs,
        "dirty_arcs": result.dirty_arcs,
        "reused_arcs": result.reused_arcs,
        "cache_evaluations": result.cache_evaluations,
        "cache_hits": result.cache_hits,
        "cache_dedup_hits": result.cache_dedup_hits,
        "cache_persisted_hits": result.cache_persisted_hits,
        "phase_seconds": {k: _hex(v) for k, v in result.phase_seconds.items()},
    }


def _decode_state(raw: dict, compiled: CompiledDesign) -> ColumnTimingState:
    """Rebuild a pass's state columns over ``compiled``; a name the
    compiled design does not know raises ``KeyError``."""
    state = ColumnTimingState(compiled)
    net_id = compiled.net_id
    for net, slot in raw["events"].items():
        i = net_id[net]
        state.present[i] = True
        for direction, encoded in slot.items():
            event = _decode_event(encoded)
            if event is not None:
                state.set_event(
                    DIR_INDEX[direction],
                    i,
                    event.t_cross,
                    event.transition,
                    event.t_early,
                    event.t_late,
                )
    for net in raw["processed"]:
        state.processed_mask[net_id[net]] = True
    for net, direction, cell, in_pin, in_net, in_direction, coupled, c_active in raw[
        "provenance"
    ]:
        state.set_winner(
            DIR_INDEX[direction],
            net_id[net],
            Provenance(
                cell=cell,
                in_pin=in_pin,
                in_net=in_net,
                in_direction=in_direction,
                coupled=bool(coupled),
                c_active=_unhex(c_active),
            ),
        )
    for net, direction, row in raw.get("arc_prov", []):
        state.aprov_row[DIR_INDEX[direction], net_id[net]] = row
    return state


def _decode_pass(raw: dict, compiled: CompiledDesign) -> PassResult:
    state = _decode_state(raw, compiled)
    return PassResult(
        state=state,
        arrivals=[
            EndpointArrival(endpoint=e, direction=d, event=_decode_event(ev))
            for e, d, ev in raw["arrivals"]
        ],
        longest_delay=_unhex(raw["longest_delay"]),
        critical_endpoint=raw["critical_endpoint"],
        critical_direction=raw["critical_direction"],
        waveform_evaluations=raw["waveform_evaluations"],
        arcs_processed=raw["arcs_processed"],
        coupled_arcs=raw["coupled_arcs"],
        dirty_arcs=raw.get("dirty_arcs", 0),
        reused_arcs=raw.get("reused_arcs", 0),
        cache_evaluations=raw["cache_evaluations"],
        cache_hits=raw["cache_hits"],
        cache_dedup_hits=raw.get("cache_dedup_hits", 0),
        cache_persisted_hits=raw.get("cache_persisted_hits", 0),
        provenance_rows=raw.get("provenance_rows", 0),
        phase_seconds={k: _unhex(v) for k, v in raw["phase_seconds"].items()},
    )


def _encode_record(record: IterationRecord) -> dict:
    return {
        "index": record.index,
        "longest_delay": _hex(record.longest_delay),
        "waveform_evaluations": record.waveform_evaluations,
        "seconds": _hex(record.seconds),
        "recalculated_cells": record.recalculated_cells,
        "total_cells": record.total_cells,
        "cache_evaluations": record.cache_evaluations,
        "cache_hits": record.cache_hits,
        "cache_dedup_hits": record.cache_dedup_hits,
        "cache_persisted_hits": record.cache_persisted_hits,
        "dirty_arcs": record.dirty_arcs,
        "reused_arcs": record.reused_arcs,
        "provenance_rows": record.provenance_rows,
        "phase_seconds": {k: _hex(v) for k, v in record.phase_seconds.items()},
    }


def _decode_record(raw: dict) -> IterationRecord:
    return IterationRecord(
        index=raw["index"],
        longest_delay=_unhex(raw["longest_delay"]),
        waveform_evaluations=raw["waveform_evaluations"],
        seconds=_unhex(raw["seconds"]),
        recalculated_cells=raw["recalculated_cells"],
        total_cells=raw["total_cells"],
        cache_evaluations=raw["cache_evaluations"],
        cache_hits=raw["cache_hits"],
        cache_dedup_hits=raw.get("cache_dedup_hits", 0),
        cache_persisted_hits=raw.get("cache_persisted_hits", 0),
        dirty_arcs=raw.get("dirty_arcs", 0),
        reused_arcs=raw.get("reused_arcs", 0),
        provenance_rows=raw.get("provenance_rows", 0),
        phase_seconds={k: _unhex(v) for k, v in raw["phase_seconds"].items()},
    )


class CheckpointManager:
    """Persist and restore the iterative algorithm's per-pass state.

    ``fingerprint`` ties a checkpoint to an analysis configuration
    (design, config, library); a mismatch means the checkpoint describes
    a different problem and is ignored with a warning.

    ``propagator`` is the propagator of the resumed run: restored pass
    states decode into columns over its compiled design, and the
    checkpoint carries its per-arc provenance ledger and pass counter
    (the per-pass ``arc_prov`` row indices are only meaningful against
    the ledger that assigned them, so the two persist and restore
    together).
    """

    def __init__(
        self,
        path: str,
        fingerprint: str = "",
        *,
        propagator: Propagator,
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.propagator = propagator

    def save(
        self,
        current: PassResult,
        best: PassResult,
        history: Iterable[IterationRecord],
        converged: bool,
    ) -> None:
        body = {
            "history": [_encode_record(r) for r in history],
            "current": _encode_pass(current),
            "best": None if best is current else _encode_pass(best),
            "converged": bool(converged),
        }
        propagator = self.propagator
        if len(propagator.ledger):
            body["ledger"] = propagator.ledger.to_payload()
            body["pass_count"] = propagator._pass_count
        blob = json.dumps(body, sort_keys=True)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self.fingerprint,
            "checksum": hashlib.sha256(blob.encode()).hexdigest(),
            "body": body,
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.path)

    def load(
        self,
    ) -> tuple[PassResult, PassResult, list[IterationRecord], bool] | None:
        """Restore ``(current, best, history, converged)``.

        Returns ``None`` when there is nothing usable to resume from: no
        file, a checkpoint for a different configuration, or a corrupt
        file (which is quarantined to ``<path>.bad`` so the fresh run
        cannot trip over it again).
        """
        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return self._quarantine("not valid JSON")
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            return self._quarantine("unknown format")
        if payload.get("fingerprint") != self.fingerprint:
            logger.warning(
                "checkpoint %s belongs to a different analysis configuration; "
                "starting from scratch",
                self.path,
            )
            return None
        body = payload.get("body")
        blob = json.dumps(body, sort_keys=True)
        if hashlib.sha256(blob.encode()).hexdigest() != payload.get("checksum"):
            return self._quarantine("content checksum mismatch")
        propagator = self.propagator
        compiled = propagator.compiled
        try:
            history = [_decode_record(r) for r in body["history"]]
            current = _decode_pass(body["current"], compiled)
            best = (
                current
                if body["best"] is None
                else _decode_pass(body["best"], compiled)
            )
            converged = bool(body["converged"])
        except (KeyError, TypeError, ValueError):
            return self._quarantine("malformed body")
        if "ledger" in body:
            try:
                propagator.ledger = ProvenanceLedger.from_payload(body["ledger"])
            except (KeyError, TypeError, ValueError):
                return self._quarantine("malformed provenance ledger")
            propagator._pass_count = body.get("pass_count", len(history))
        logger.info(
            "resuming from checkpoint %s: %d pass(es) completed, best bound %.6e s",
            self.path,
            len(history),
            best.longest_delay,
        )
        return current, best, history, converged

    def _quarantine(self, reason: str) -> None:
        quarantined = f"{self.path}.bad"
        try:
            os.replace(self.path, quarantined)
            where = f"quarantined to {quarantined}"
        except OSError:
            where = "could not be quarantined"
        logger.warning(
            "checkpoint %s is corrupt (%s); %s, starting from scratch",
            self.path,
            reason,
            where,
        )
        return None
