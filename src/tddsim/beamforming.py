"""Directional training inside TDD service periods.

Three modes share one sweep, laid out before the run by a SweepPlan. The
initiator transmits a block of sector-sweep frames per transmit sector while
each responder rotates its receive sector once per frame slot. In individual
and group mode each responder sends feedback in the slot reserved for the
transmit sector of its best measurement, the initiator acknowledges, and a
two-leg capability announcement on the trained sectors locks in the pair.
In measurement mode the sweep frames carry a countdown of the remaining
frame slots, responders stay silent, and each produces a measurement report
destined for the central controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .channel import LinkBudgetConfig, LinkTable, link_snr_db
from .domain import DEFAULT_MCS_TABLE, NodeModel
from .schedule import AbsoluteSlot
from .trace import TraceRecorder, null_recorder


class BfMode(Enum):
    INDIVIDUAL = "individual"
    GROUP = "group"
    MEASUREMENT = "measurement"


@dataclass(frozen=True)
class BeamformingConfig:
    """Slot pitches (microseconds) and decode threshold for a training run."""

    ssw_slot_us: int = 4
    feedback_slot_us: int = 4
    ack_slot_us: int = 4
    announce_slot_us: int = 8
    decode_min_snr_db: float = DEFAULT_MCS_TABLE[0].min_snr_db

    def __post_init__(self):
        for name in ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class TrainedLink:
    initiator_id: str
    responder_id: str
    initiator_sector: int
    responder_sector: int
    snr_db: float


@dataclass(frozen=True)
class BeamMeasurementReport:
    """Per-responder sweep measurements addressed to the controller."""

    responder_id: str
    initiator_id: str
    samples: tuple[tuple[int, int, float], ...]  # (tx_sector, rx_sector, snr_db)


# ---------------------------------------------------------------------------
# Deterministic slot plan of one training run.


@dataclass(frozen=True)
class SweepPlan:
    start_us: int
    n_tx_sectors: int
    repetitions: int
    responder_ids: tuple[str, ...]
    cfg: BeamformingConfig
    with_feedback: bool

    @property
    def n_frames(self) -> int:
        return self.n_tx_sectors * self.repetitions

    @property
    def sweep_end_us(self) -> int:
        return self.start_us + self.n_frames * self.cfg.ssw_slot_us

    def ssw_time(self, frame_index: int) -> int:
        return self.start_us + frame_index * self.cfg.ssw_slot_us

    def tx_sector_of_frame(self, frame_index: int) -> int:
        return frame_index // self.repetitions

    def _fb_pitch(self) -> int:
        return self.cfg.feedback_slot_us + self.cfg.ack_slot_us

    def feedback_time(self, tx_sector: int, responder_index: int) -> int:
        rank = tx_sector * len(self.responder_ids) + responder_index
        return self.sweep_end_us + rank * self._fb_pitch()

    def ack_time(self, tx_sector: int, responder_index: int) -> int:
        return self.feedback_time(tx_sector, responder_index) + self.cfg.feedback_slot_us

    @property
    def feedback_end_us(self) -> int:
        if not self.with_feedback:
            return self.sweep_end_us
        return self.sweep_end_us + self.n_tx_sectors * len(self.responder_ids) * self._fb_pitch()

    def announce_time(self, responder_index: int, leg: int) -> int:
        # Two announce slots per responder: initiator first, responder second.
        base = self.feedback_end_us + responder_index * 2 * self.cfg.announce_slot_us
        return base + leg * self.cfg.announce_slot_us

    @property
    def end_us(self) -> int:
        if not self.with_feedback:
            return self.sweep_end_us
        return self.feedback_end_us + len(self.responder_ids) * 2 * self.cfg.announce_slot_us


def make_sweep_plan(
    mode: BfMode,
    initiator: NodeModel,
    responders: Sequence[NodeModel],
    cfg: BeamformingConfig,
    start_us: int,
) -> SweepPlan:
    return SweepPlan(
        start_us=start_us,
        n_tx_sectors=len(initiator.codebook),
        # One repetition per receive sector of the widest responder.
        repetitions=max(len(r.codebook) for r in responders),
        responder_ids=tuple(r.node_id for r in responders),
        cfg=cfg,
        with_feedback=mode is not BfMode.MEASUREMENT,
    )


# ---------------------------------------------------------------------------
# Driver: runs one full training exchange inside a service period window.


@dataclass(frozen=True)
class BeamformingResult:
    mode: BfMode
    trained_links: tuple[TrainedLink, ...]
    reports: tuple[BeamMeasurementReport, ...]
    end_us: int
    sweep_frames: int  # sector-sweep frames the initiator transmitted


def _sp_window(sp_slots: Sequence[AbsoluteSlot]) -> tuple[int, int]:
    if not sp_slots:
        raise ValueError("beamforming needs at least one slot of service period time")
    starts = [s.start_us for s in sp_slots]
    ends = [s.end_us for s in sp_slots]
    return min(starts), max(ends)


def run_beamforming(
    mode: BfMode,
    initiator: NodeModel,
    responders: Sequence[NodeModel],
    channel_cfg: LinkBudgetConfig,
    sp_slots: Sequence[AbsoluteSlot],
    cfg: Optional[BeamformingConfig] = None,
    trace: Optional[TraceRecorder] = None,
) -> BeamformingResult:
    """Execute one deterministic training run and return its outcome.

    Individual mode takes exactly one responder; group mode any positive
    number. Measurement mode performs the sweep only: responders never
    transmit and their measurement reports are returned for the controller.
    """
    cfg = cfg or BeamformingConfig()
    trace = trace or null_recorder()
    if mode is BfMode.INDIVIDUAL and len(responders) != 1:
        raise ValueError("individual mode trains exactly one responder")
    if not responders:
        raise ValueError("at least one responder is required")
    ids = [r.node_id for r in responders]
    if len(set(ids)) != len(ids):
        raise ValueError("responder ids must be distinct")
    for node in [initiator, *responders]:
        if not node.tdd_capable:
            raise ValueError(f"node {node.node_id} cannot participate in TDD training")

    sp_start, sp_end = _sp_window(sp_slots)
    plan = make_sweep_plan(mode, initiator, responders, cfg, sp_start)
    if plan.end_us > sp_end:
        raise ValueError(
            f"service period window of {sp_end - sp_start}us cannot fit "
            f"a {plan.end_us - sp_start}us training plan"
        )
    ini_id = initiator.node_id
    threshold = cfg.decode_min_snr_db
    links = LinkTable(channel_cfg)

    trace.record(
        sp_start, "bf_start", mode=mode.value, initiator=ini_id,
        responders=list(plan.responder_ids), tx_sectors=plan.n_tx_sectors,
        repetitions=plan.repetitions,
    )

    # Sweep: one frame per slot; each responder listens on the next receive
    # sector of its codebook, round robin.
    samples: dict[str, list[tuple[int, int, float]]] = {rid: [] for rid in ids}
    best: dict[str, tuple[float, int, int]] = {}  # (snr, tx, rx); ties to lower (tx, rx)
    last = plan.n_frames - 1
    for i in range(plan.n_frames):
        t = plan.ssw_time(i)
        tx = plan.tx_sector_of_frame(i)
        trace.record(
            t, "frame_tx", node=ini_id, frame="tdd_ssw", sector=tx, frame_index=i,
            end_of_training=i == last,
            slot_countdown=None if plan.with_feedback else last - i,
        )
        for r in responders:
            rx = i % len(r.codebook)
            snr = links.snr_db(initiator, tx, r, rx)
            decoded = snr >= threshold
            trace.record(
                t, "frame_rx", node=r.node_id, frame="tdd_ssw", sector=rx, tx_sector=tx,
                snr_db=round(snr, 3), outcome="decoded" if decoded else "below_threshold",
            )
            if decoded:
                samples[r.node_id].append((tx, rx, snr))
                b = best.get(r.node_id)
                if b is None or snr > b[0] or (snr == b[0] and (tx, rx) < b[1:]):
                    best[r.node_id] = (snr, tx, rx)

    if not plan.with_feedback:
        reports = []
        for rid in ids:
            if samples[rid]:
                reports.append(BeamMeasurementReport(rid, ini_id, tuple(samples[rid])))
                trace.record(plan.sweep_end_us, "bf_report", node=rid, samples=len(samples[rid]))
        return BeamformingResult(mode, (), tuple(reports), plan.sweep_end_us, plan.n_frames)

    # Feedback, ack and announce, in the slots the plan reserves for each
    # responder's best transmit sector.
    trained: list[TrainedLink] = []
    for k, r in enumerate(responders):
        rid = r.node_id
        if rid not in best:
            continue
        snr, tx, rx = best[rid]
        t_fb = plan.feedback_time(tx, k)
        trace.record(t_fb, "frame_tx", node=rid, frame="tdd_ssw_feedback", sector=rx, best_tx_sector=tx)
        fb_snr = link_snr_db(r, rx, initiator, tx, channel_cfg).snr_db
        if fb_snr < threshold:
            continue
        trace.record(
            t_fb, "frame_rx", node=ini_id, frame="tdd_ssw_feedback", sector=tx,
            snr_db=round(fb_snr, 3), outcome="decoded",
        )
        t_ack = plan.ack_time(tx, k)
        trace.record(
            t_ack, "frame_tx", node=ini_id, frame="tdd_ssw_ack", sector=tx,
            responder=rid, end_of_training=True,
        )
        # The ack crosses the best sweep sample's sector pair in the sweep's
        # direction, so it decodes at that sample's SNR.
        trace.record(
            t_ack, "frame_rx", node=rid, frame="tdd_ssw_ack", sector=rx,
            snr_db=round(snr, 3), outcome="decoded",
        )
        t_dl, t_ul = plan.announce_time(k, 0), plan.announce_time(k, 1)
        trace.record(t_dl, "frame_tx", node=ini_id, frame="announce", sector=tx)
        trace.record(t_dl, "frame_rx", node=rid, frame="announce", sector=rx, outcome="decoded")
        trace.record(t_ul, "frame_tx", node=rid, frame="announce", sector=rx)
        trace.record(t_ul, "frame_rx", node=ini_id, frame="announce", sector=tx, outcome="decoded")
        trained.append(TrainedLink(ini_id, rid, tx, rx, snr))
        trace.record(
            t_ul, "bf_trained", initiator=ini_id, responder=rid,
            initiator_sector=tx, responder_sector=rx, snr_db=round(snr, 3),
        )

    return BeamformingResult(mode, tuple(trained), (), plan.end_us, plan.n_frames)
