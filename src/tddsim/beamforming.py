"""Directional training inside TDD service periods.

Three modes share one sweep mechanism. The initiator transmits a block of
sector-sweep frames per transmit sector while each responder rotates its
receive sector once per frame slot. In individual and group mode every sweep
frame advertises, per responder, the time offsets of that responder's
feedback and acknowledgement slots; the responder answers in the slot
attached to its best measurement, the initiator acknowledges, and the pair
is locked in by a two-frame capability announcement on the trained sectors.
In measurement mode the sweep frames carry only a countdown of remaining
frame slots, responders stay silent, and each produces a measurement report
destined for the central controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

from .channel import LinkBudgetConfig, link_snr_db
from .domain import DEFAULT_MCS_TABLE, NodeModel
from .errors import ProtocolError
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
    # None: one repetition per receive sector of the widest responder.
    repetitions: Optional[int] = None
    decode_min_snr_db: float = DEFAULT_MCS_TABLE[0].min_snr_db

    def __post_init__(self):
        for name in ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class TddSswFrame:
    """One sector-sweep frame.

    Individual/group mode frames carry per-responder feedback and ack
    offsets; measurement mode frames carry the count of frame slots that
    remain after this one.
    """

    initiator_id: str
    tx_sector_index: int
    frame_index: int
    end_of_training: bool
    feedback_offset_us: Optional[dict[str, int]] = None
    ack_offset_us: Optional[dict[str, int]] = None
    slot_countdown: Optional[int] = None

    def __post_init__(self):
        has_offsets = self.feedback_offset_us is not None or self.ack_offset_us is not None
        if self.slot_countdown is not None:
            if has_offsets:
                raise ValueError("countdown frames must not carry feedback offsets")
            if self.slot_countdown < 0:
                raise ValueError("slot_countdown must be >= 0")
        else:
            if self.feedback_offset_us is None or self.ack_offset_us is None:
                raise ValueError("sweep frames need both feedback and ack offsets")
            offsets = list(self.feedback_offset_us.values())
            if len(set(offsets)) != len(offsets):
                raise ValueError("per-responder feedback offsets must be distinct")


@dataclass(frozen=True)
class TddSswFeedbackFrame:
    responder_id: str
    responder_sector_index: int
    best_tx_sector_index: int
    best_snr_db: float


@dataclass(frozen=True)
class TddSswAckFrame:
    initiator_id: str
    responder_id: str
    initiator_tx_sector: int
    responder_sector_index: int
    end_of_training: bool
    announce_offsets_us: tuple[int, int]


@dataclass(frozen=True)
class CapabilityAnnounce:
    """Opaque post-training capability exchange frame."""

    sender_id: str
    receiver_id: str


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
# Events consumed by the state machines and actions they emit.


@dataclass(frozen=True)
class SlotTick:
    t_us: int
    purpose: str  # "ssw" | "dwell" | "feedback" | "ack" | "announce" | "report"
    sector: Optional[int] = None
    responder_id: Optional[str] = None
    frame_index: Optional[int] = None


@dataclass(frozen=True)
class FrameReceived:
    t_us: int
    frame: Union[TddSswFrame, TddSswFeedbackFrame, TddSswAckFrame, CapabilityAnnounce]
    snr_db: float


@dataclass(frozen=True)
class Timeout:
    t_us: int
    purpose: str
    sector: Optional[int] = None
    responder_id: Optional[str] = None


BfEvent = Union[SlotTick, FrameReceived, Timeout]


@dataclass(frozen=True)
class TxAction:
    frame: object
    sector: int
    t_us: int


@dataclass(frozen=True)
class ListenAction:
    sector: int
    t_us: int


@dataclass(frozen=True)
class ReportAction:
    report: BeamMeasurementReport


BfAction = Union[TxAction, ListenAction, ReportAction]


# ---------------------------------------------------------------------------
# Deterministic slot plan shared by the initiator and the driver.


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
    reps = cfg.repetitions
    if reps is None:
        reps = max(len(r.codebook) for r in responders)
    return SweepPlan(
        start_us=start_us,
        n_tx_sectors=len(initiator.codebook),
        repetitions=reps,
        responder_ids=tuple(r.node_id for r in responders),
        cfg=cfg,
        with_feedback=mode is not BfMode.MEASUREMENT,
    )


# ---------------------------------------------------------------------------
# Initiator state machine.


@dataclass
class InitiatorState:
    node: NodeModel
    mode: BfMode
    plan: SweepPlan
    sp_start_us: int
    sp_end_us: int
    phase: str = "sweep"  # sweep -> feedback -> announce -> done
    frames_sent: int = 0
    # responder id -> feedback accepted during the slot grid
    feedback_rx: dict[str, TddSswFeedbackFrame] = field(default_factory=dict)
    acked: dict[str, TrainedLink] = field(default_factory=dict)

    def responder_index(self, responder_id: str) -> int:
        return self.plan.responder_ids.index(responder_id)


def _check_window(state, event: BfEvent) -> None:
    t = event.t_us
    if t < state.sp_start_us or t > state.sp_end_us:
        raise ProtocolError(
            f"training event at t={t}us outside service period "
            f"[{state.sp_start_us}, {state.sp_end_us}]us"
        )


def _build_ssw_frame(state: InitiatorState, frame_index: int) -> TddSswFrame:
    plan = state.plan
    sector = plan.tx_sector_of_frame(frame_index)
    t = plan.ssw_time(frame_index)
    last = frame_index == plan.n_frames - 1
    if state.mode is BfMode.MEASUREMENT:
        return TddSswFrame(
            initiator_id=state.node.node_id,
            tx_sector_index=sector,
            frame_index=frame_index,
            end_of_training=last,
            slot_countdown=plan.n_frames - 1 - frame_index,
        )
    fb = {}
    ack = {}
    for k, rid in enumerate(plan.responder_ids):
        fb[rid] = plan.feedback_time(sector, k) - t
        ack[rid] = plan.ack_time(sector, k) - t
    return TddSswFrame(
        initiator_id=state.node.node_id,
        tx_sector_index=sector,
        frame_index=frame_index,
        end_of_training=last,
        feedback_offset_us=fb,
        ack_offset_us=ack,
    )


def initiator_step(state: InitiatorState, event: BfEvent) -> tuple[InitiatorState, list[BfAction]]:
    """Advance the initiator machine by one event, returning emitted actions."""
    _check_window(state, event)
    actions: list[BfAction] = []

    if isinstance(event, SlotTick):
        if event.purpose == "ssw":
            if state.phase != "sweep":
                raise ProtocolError("sweep tick after sweep phase ended")
            frame = _build_ssw_frame(state, event.frame_index)
            state.frames_sent += 1
            if state.frames_sent == state.plan.n_frames:
                state.phase = "feedback" if state.plan.with_feedback else "done"
            actions.append(TxAction(frame=frame, sector=frame.tx_sector_index, t_us=event.t_us))
        elif event.purpose == "feedback":
            # Listen on the sector this feedback slot belongs to.
            actions.append(ListenAction(sector=event.sector, t_us=event.t_us))
        elif event.purpose == "ack":
            fb = state.feedback_rx.get(event.responder_id)
            if fb is not None and fb.best_tx_sector_index == event.sector:
                k = state.responder_index(event.responder_id)
                ack = TddSswAckFrame(
                    initiator_id=state.node.node_id,
                    responder_id=event.responder_id,
                    initiator_tx_sector=event.sector,
                    responder_sector_index=fb.responder_sector_index,
                    end_of_training=True,
                    announce_offsets_us=(
                        state.plan.announce_time(k, 0) - event.t_us,
                        state.plan.announce_time(k, 1) - event.t_us,
                    ),
                )
                state.acked[event.responder_id] = TrainedLink(
                    initiator_id=state.node.node_id,
                    responder_id=event.responder_id,
                    initiator_sector=event.sector,
                    responder_sector=fb.responder_sector_index,
                    snr_db=fb.best_snr_db,
                )
                actions.append(TxAction(frame=ack, sector=event.sector, t_us=event.t_us))
        elif event.purpose == "announce":
            rid = event.responder_id
            if rid in state.acked:
                link = state.acked[rid]
                if event.frame_index == 0:  # first leg: initiator transmits
                    frame = CapabilityAnnounce(sender_id=state.node.node_id, receiver_id=rid)
                    actions.append(TxAction(frame=frame, sector=link.initiator_sector, t_us=event.t_us))
                else:
                    actions.append(ListenAction(sector=link.initiator_sector, t_us=event.t_us))
    elif isinstance(event, FrameReceived):
        frame = event.frame
        if isinstance(frame, TddSswFeedbackFrame):
            state.feedback_rx[frame.responder_id] = frame
        # CapabilityAnnounce from the responder needs no state change.
    elif isinstance(event, Timeout):
        # Missing feedback or announce: keep going, the pair stays untrained.
        pass
    return state, actions


# ---------------------------------------------------------------------------
# Responder state machine.


@dataclass
class _BestMeasurement:
    snr_db: float
    tx_sector: int
    rx_sector: int
    feedback_at_us: int
    ack_at_us: int


@dataclass
class ResponderState:
    node: NodeModel
    initiator_id: str
    mode: BfMode
    sp_start_us: int
    sp_end_us: int
    dwell_count: int = 0
    current_rx_sector: int = 0
    best: Optional[_BestMeasurement] = None
    samples: list[tuple[int, int, float]] = field(default_factory=list)
    feedback_sent: bool = False
    pending_ack_at_us: Optional[int] = None
    locked: Optional[TrainedLink] = None
    announce_at_us: Optional[tuple[int, int]] = None


def _better(candidate: tuple[float, int, int], incumbent: Optional[_BestMeasurement]) -> bool:
    if incumbent is None:
        return True
    snr, tx, rx = candidate
    if snr != incumbent.snr_db:
        return snr > incumbent.snr_db
    return (tx, rx) < (incumbent.tx_sector, incumbent.rx_sector)


def responder_step(state: ResponderState, event: BfEvent) -> tuple[ResponderState, list[BfAction]]:
    """Advance a responder machine by one event, returning emitted actions."""
    _check_window(state, event)
    actions: list[BfAction] = []
    n_rx = len(state.node.codebook)

    if isinstance(event, SlotTick):
        if event.purpose == "dwell":
            state.current_rx_sector = state.dwell_count % n_rx
            state.dwell_count += 1
            actions.append(ListenAction(sector=state.current_rx_sector, t_us=event.t_us))
        elif event.purpose == "feedback":
            if (
                not state.feedback_sent
                and state.best is not None
                and state.best.feedback_at_us == event.t_us
            ):
                state.feedback_sent = True
                state.pending_ack_at_us = state.best.ack_at_us
                frame = TddSswFeedbackFrame(
                    responder_id=state.node.node_id,
                    responder_sector_index=state.best.rx_sector,
                    best_tx_sector_index=state.best.tx_sector,
                    best_snr_db=state.best.snr_db,
                )
                actions.append(TxAction(frame=frame, sector=state.best.rx_sector, t_us=event.t_us))
        elif event.purpose == "ack":
            if state.pending_ack_at_us == event.t_us:
                actions.append(ListenAction(sector=state.best.rx_sector, t_us=event.t_us))
        elif event.purpose == "announce":
            if state.locked is not None and state.announce_at_us is not None:
                listen_at, reply_at = state.announce_at_us
                if event.t_us == listen_at:
                    actions.append(ListenAction(sector=state.locked.responder_sector, t_us=event.t_us))
                elif event.t_us == reply_at:
                    frame = CapabilityAnnounce(
                        sender_id=state.node.node_id, receiver_id=state.initiator_id
                    )
                    actions.append(TxAction(frame=frame, sector=state.locked.responder_sector, t_us=event.t_us))
        elif event.purpose == "report":
            if state.mode is BfMode.MEASUREMENT and state.samples:
                report = BeamMeasurementReport(
                    responder_id=state.node.node_id,
                    initiator_id=state.initiator_id,
                    samples=tuple(state.samples),
                )
                actions.append(ReportAction(report=report))
    elif isinstance(event, FrameReceived):
        frame = event.frame
        if isinstance(frame, TddSswFrame):
            sample = (frame.tx_sector_index, state.current_rx_sector, event.snr_db)
            state.samples.append(sample)
            if state.mode is not BfMode.MEASUREMENT:
                cand = (event.snr_db, frame.tx_sector_index, state.current_rx_sector)
                if _better(cand, state.best):
                    state.best = _BestMeasurement(
                        snr_db=event.snr_db,
                        tx_sector=frame.tx_sector_index,
                        rx_sector=state.current_rx_sector,
                        feedback_at_us=event.t_us + frame.feedback_offset_us[state.node.node_id],
                        ack_at_us=event.t_us + frame.ack_offset_us[state.node.node_id],
                    )
        elif isinstance(frame, TddSswAckFrame):
            if frame.responder_id == state.node.node_id and frame.end_of_training:
                state.locked = TrainedLink(
                    initiator_id=state.initiator_id,
                    responder_id=state.node.node_id,
                    initiator_sector=frame.initiator_tx_sector,
                    responder_sector=frame.responder_sector_index,
                    snr_db=state.best.snr_db,
                )
                state.announce_at_us = (
                    event.t_us + frame.announce_offsets_us[0],
                    event.t_us + frame.announce_offsets_us[1],
                )
    elif isinstance(event, Timeout):
        # Expected ack never arrived: the pair stays untrained this run.
        if event.purpose == "ack":
            state.pending_ack_at_us = None
    return state, actions


# ---------------------------------------------------------------------------
# Driver: runs one full training exchange inside a service period window.


@dataclass(frozen=True)
class BeamformingResult:
    mode: BfMode
    trained_links: tuple[TrainedLink, ...]
    reports: tuple[BeamMeasurementReport, ...]
    end_us: int


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

    ini = InitiatorState(
        node=initiator, mode=mode, plan=plan, sp_start_us=sp_start, sp_end_us=sp_end
    )
    resp: dict[str, ResponderState] = {
        r.node_id: ResponderState(
            node=r, initiator_id=initiator.node_id, mode=mode,
            sp_start_us=sp_start, sp_end_us=sp_end,
        )
        for r in responders
    }
    by_id = {r.node_id: r for r in responders}

    trace.record(
        sp_start, "bf_start", mode=mode.value, initiator=initiator.node_id,
        responders=list(plan.responder_ids), tx_sectors=plan.n_tx_sectors,
        repetitions=plan.repetitions,
    )

    # Sweep phase: one frame per slot, responders rotate their receive sector.
    for i in range(plan.n_frames):
        t = plan.ssw_time(i)
        for rid in plan.responder_ids:
            responder_step(resp[rid], SlotTick(t_us=t, purpose="dwell"))
        _, actions = initiator_step(ini, SlotTick(t_us=t, purpose="ssw", frame_index=i))
        for act in actions:
            frame: TddSswFrame = act.frame
            trace.record(
                t, "frame_tx", node=initiator.node_id, frame="tdd_ssw",
                sector=act.sector, frame_index=frame.frame_index,
                end_of_training=frame.end_of_training,
                slot_countdown=frame.slot_countdown,
            )
            for rid in plan.responder_ids:
                rstate = resp[rid]
                sample = link_snr_db(
                    initiator, act.sector, by_id[rid], rstate.current_rx_sector, channel_cfg
                )
                decoded = sample.snr_db >= cfg.decode_min_snr_db
                trace.record(
                    t, "frame_rx", node=rid, frame="tdd_ssw",
                    sector=rstate.current_rx_sector, tx_sector=act.sector,
                    snr_db=round(sample.snr_db, 3),
                    outcome="decoded" if decoded else "below_threshold",
                )
                if decoded:
                    responder_step(rstate, FrameReceived(t_us=t, frame=frame, snr_db=sample.snr_db))

    trained: list[TrainedLink] = []
    reports: list[BeamMeasurementReport] = []

    if mode is BfMode.MEASUREMENT:
        t_report = plan.sweep_end_us
        for rid in plan.responder_ids:
            _, actions = responder_step(resp[rid], SlotTick(t_us=t_report, purpose="report"))
            for act in actions:
                if isinstance(act, ReportAction):
                    reports.append(act.report)
                    trace.record(
                        t_report, "bf_report", node=rid,
                        samples=len(act.report.samples),
                    )
        return BeamformingResult(
            mode=mode, trained_links=tuple(trained), reports=tuple(reports),
            end_us=plan.sweep_end_us,
        )

    # Feedback grid: one (feedback, ack) slot pair per (tx sector, responder).
    for sector in range(plan.n_tx_sectors):
        for k, rid in enumerate(plan.responder_ids):
            rstate = resp[rid]
            t_fb = plan.feedback_time(sector, k)
            _, listen = initiator_step(
                ini, SlotTick(t_us=t_fb, purpose="feedback", sector=sector, responder_id=rid)
            )
            _, r_actions = responder_step(rstate, SlotTick(t_us=t_fb, purpose="feedback"))
            got_feedback = False
            for act in r_actions:
                if isinstance(act, TxAction) and listen:
                    fb_frame: TddSswFeedbackFrame = act.frame
                    trace.record(
                        t_fb, "frame_tx", node=rid, frame="tdd_ssw_feedback",
                        sector=act.sector, best_tx_sector=fb_frame.best_tx_sector_index,
                    )
                    sample = link_snr_db(
                        by_id[rid], act.sector, initiator, listen[0].sector, channel_cfg
                    )
                    if sample.snr_db >= cfg.decode_min_snr_db:
                        got_feedback = True
                        trace.record(
                            t_fb, "frame_rx", node=initiator.node_id,
                            frame="tdd_ssw_feedback", sector=listen[0].sector,
                            snr_db=round(sample.snr_db, 3), outcome="decoded",
                        )
                        initiator_step(ini, FrameReceived(t_us=t_fb, frame=fb_frame, snr_db=sample.snr_db))
            if not got_feedback:
                initiator_step(ini, Timeout(t_us=t_fb, purpose="feedback", sector=sector, responder_id=rid))

            t_ack = plan.ack_time(sector, k)
            _, i_actions = initiator_step(
                ini, SlotTick(t_us=t_ack, purpose="ack", sector=sector, responder_id=rid)
            )
            _, r_listen = responder_step(rstate, SlotTick(t_us=t_ack, purpose="ack"))
            ack_tx = [a for a in i_actions if isinstance(a, TxAction)]
            if ack_tx and r_listen:
                ack_frame: TddSswAckFrame = ack_tx[0].frame
                trace.record(
                    t_ack, "frame_tx", node=initiator.node_id, frame="tdd_ssw_ack",
                    sector=ack_tx[0].sector, responder=rid,
                    end_of_training=ack_frame.end_of_training,
                )
                sample = link_snr_db(
                    initiator, ack_tx[0].sector, by_id[rid], r_listen[0].sector, channel_cfg
                )
                if sample.snr_db >= cfg.decode_min_snr_db:
                    trace.record(
                        t_ack, "frame_rx", node=rid, frame="tdd_ssw_ack",
                        sector=r_listen[0].sector, snr_db=round(sample.snr_db, 3),
                        outcome="decoded",
                    )
                    responder_step(rstate, FrameReceived(t_us=t_ack, frame=ack_frame, snr_db=sample.snr_db))
                else:
                    responder_step(rstate, Timeout(t_us=t_ack, purpose="ack"))
            elif r_listen:
                responder_step(rstate, Timeout(t_us=t_ack, purpose="ack"))

    # Announce phase: capability exchange on the trained sector pair.
    for k, rid in enumerate(plan.responder_ids):
        rstate = resp[rid]
        if rstate.locked is None:
            continue
        t_dl = plan.announce_time(k, 0)
        _, i_tx = initiator_step(ini, SlotTick(t_us=t_dl, purpose="announce", frame_index=0, responder_id=rid))
        _, r_listen = responder_step(rstate, SlotTick(t_us=t_dl, purpose="announce"))
        if i_tx and r_listen:
            trace.record(t_dl, "frame_tx", node=initiator.node_id, frame="announce", sector=i_tx[0].sector)
            trace.record(t_dl, "frame_rx", node=rid, frame="announce", sector=r_listen[0].sector, outcome="decoded")
            responder_step(rstate, FrameReceived(t_us=t_dl, frame=i_tx[0].frame, snr_db=rstate.locked.snr_db))
        t_ul = plan.announce_time(k, 1)
        _, r_tx = responder_step(rstate, SlotTick(t_us=t_ul, purpose="announce"))
        _, i_listen = initiator_step(ini, SlotTick(t_us=t_ul, purpose="announce", frame_index=1, responder_id=rid))
        if r_tx and i_listen:
            trace.record(t_ul, "frame_tx", node=rid, frame="announce", sector=r_tx[0].sector)
            trace.record(t_ul, "frame_rx", node=initiator.node_id, frame="announce", sector=i_listen[0].sector, outcome="decoded")
            initiator_step(ini, FrameReceived(t_us=t_ul, frame=r_tx[0].frame, snr_db=rstate.locked.snr_db))
        trained.append(rstate.locked)
        trace.record(
            t_ul, "bf_trained", initiator=initiator.node_id, responder=rid,
            initiator_sector=rstate.locked.initiator_sector,
            responder_sector=rstate.locked.responder_sector,
            snr_db=round(rstate.locked.snr_db, 3),
        )

    return BeamformingResult(
        mode=mode, trained_links=tuple(trained), reports=tuple(reports), end_us=plan.end_us
    )
