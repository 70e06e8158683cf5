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

from enum import Enum
from itertools import chain, repeat
from math import copysign
from typing import NamedTuple, Optional, Sequence

from .channel import LinkBudgetConfig, LinkTable
from .channel import link_snr_db  # noqa: F401  perfbench/layers.py hooks this name
from .domain import DEFAULT_MCS_TABLE, NodeModel
from .trace import TraceRecorder


class BfMode(Enum):
    INDIVIDUAL = "individual"
    GROUP = "group"
    MEASUREMENT = "measurement"


class BeamformingConfig:
    """Slot pitches (microseconds) and decode threshold for a training run."""

    __slots__ = ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us", "decode_min_snr_db")

    def __init__(
        self, ssw_slot_us: int = 4, feedback_slot_us: int = 4, ack_slot_us: int = 4,
        announce_slot_us: int = 8, decode_min_snr_db: float = DEFAULT_MCS_TABLE[0].min_snr_db,
    ):
        self.ssw_slot_us = ssw_slot_us
        self.feedback_slot_us = feedback_slot_us
        self.ack_slot_us = ack_slot_us
        self.announce_slot_us = announce_slot_us
        self.decode_min_snr_db = decode_min_snr_db
        for name in ("ssw_slot_us", "feedback_slot_us", "ack_slot_us", "announce_slot_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class TrainedLink(NamedTuple):
    initiator_id: str
    responder_id: str
    initiator_sector: int
    responder_sector: int
    snr_db: float


class BeamMeasurementReport(NamedTuple):
    """Per-responder sweep measurements addressed to the controller."""

    responder_id: str
    initiator_id: str
    samples: tuple[tuple[int, int, float], ...]  # (tx_sector, rx_sector, snr_db)


# ---------------------------------------------------------------------------
# Deterministic slot plan of one training run.


class SweepPlan(NamedTuple):
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


def fit_sweep_plan(
    mode: BfMode,
    initiator: NodeModel,
    responders: Sequence[NodeModel],
    cfg: BeamformingConfig,
    window: tuple[int, int],
) -> SweepPlan:
    """The run's plan from the first slot of a service period window
    `(first slot start, last slot end)`; ValueError if it does not fit."""
    sp_start, sp_end = window
    plan = make_sweep_plan(mode, initiator, responders, cfg, sp_start)
    if plan.end_us > sp_end:
        raise ValueError(
            f"service period window of {sp_end - sp_start}us cannot fit "
            f"a {plan.end_us - sp_start}us training plan"
        )
    return plan


# ---------------------------------------------------------------------------
# Driver: runs one full training exchange inside a service period window.


class BeamformingResult(NamedTuple):
    mode: BfMode
    trained_links: tuple[TrainedLink, ...]
    reports: tuple[BeamMeasurementReport, ...]
    end_us: int
    sweep_frames: int  # sector-sweep frames the initiator transmitted


def run_beamforming(
    mode: BfMode,
    initiator: NodeModel,
    responders: Sequence[NodeModel],
    channel_cfg: LinkBudgetConfig,
    window: tuple[int, int],
    cfg: Optional[BeamformingConfig] = None,
    trace: Optional[TraceRecorder] = None,
) -> BeamformingResult:
    """Execute one deterministic training run and return its outcome.

    `window` is the service period's `(first slot start, last slot end)`,
    as `schedule.sp_window` gives it; the plan starts at the first slot.
    Individual mode takes exactly one responder; group mode any positive
    number. Measurement mode performs the sweep only: responders never
    transmit and their measurement reports are returned for the controller.
    """
    cfg = cfg or BeamformingConfig()
    trace = trace or TraceRecorder(enabled=False)
    if mode is BfMode.INDIVIDUAL and len(responders) != 1:
        raise ValueError("individual mode trains exactly one responder")
    if not responders:
        raise ValueError("at least one responder is required")
    ids = [r.node_id for r in responders]
    if len(set(ids)) != len(ids):
        raise ValueError("responder ids must be distinct")

    plan = fit_sweep_plan(mode, initiator, responders, cfg, window)
    ini_id = initiator.node_id
    threshold = cfg.decode_min_snr_db
    links = LinkTable(channel_cfg)

    trace.record(
        plan.start_us, "bf_start", mode=mode.value, initiator=ini_id,
        responders=list(plan.responder_ids), tx_sectors=plan.n_tx_sectors,
        repetitions=plan.repetitions,
    )
    samples = _sweep(plan, initiator, responders, links, threshold, trace)

    if not plan.with_feedback:
        reports = []
        for rid, found in zip(ids, samples):
            if found:
                reports.append(BeamMeasurementReport(rid, ini_id, tuple(found)))
                trace.record(plan.sweep_end_us, "bf_report", node=rid, samples=len(found))
        return BeamformingResult(mode, (), tuple(reports), plan.sweep_end_us, plan.n_frames)

    # Feedback, ack and announce, in the slots the plan reserves for each
    # responder's best transmit sector.
    trained: list[TrainedLink] = []
    for k, (r, found) in enumerate(zip(responders, samples)):
        if not found:
            continue
        rid = r.node_id
        # The strongest sample; of equal ones, the lowest (tx, rx).
        tx, rx, snr = max(found, key=lambda s: (s[2], -s[0], -s[1]))
        t_fb = plan.feedback_time(tx, k)
        trace.record(t_fb, "frame_tx", node=rid, frame="tdd_ssw_feedback", sector=rx, best_tx_sector=tx)
        fb_snr = links.snr_db(r, rx, initiator, tx)
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


def _sweep(
    plan: SweepPlan,
    initiator: NodeModel,
    responders: Sequence[NodeModel],
    links: LinkTable,
    threshold: float,
    trace: TraceRecorder,
) -> list[list[tuple[int, int, float]]]:
    """Run the sweep and return each responder's decoded samples, in frame order.

    One frame per slot; each responder listens on the next receive sector of
    its codebook, round robin. A sample's SNR is `LinkTable.snr_db`'s sum,
    term by term in its order, from the link entry read once per responder.

    A block is one transmit sector's `repetitions` frames. A responder's
    samples in a block depend only on that sector's gain and on the receive
    sector the block starts on, so each leg computes each distinct block
    once: its receive sectors, its decoded samples and, when the trace is
    enabled, its rounded SNRs and outcomes, which every block equal to it
    shares. A flat-top sector gives a leg few distinct SNRs, so each nonzero
    SNR is rounded once per sweep. The frames' trace rows are assembled
    column by column, the initiator's row and then each responder's per
    frame, and written as one batch; with the trace disabled they are not
    built at all.
    """
    ini_id = initiator.node_id
    power, noise = initiator.tx_power_dbm, links.noise_floor_dbm
    n_tx, reps, last = plan.n_tx_sectors, plan.repetitions, plan.n_frames - 1
    traced = trace.enabled
    if traced:
        countdown = not plan.with_feedback
        tx_shape = trace.shape(
            "frame_tx", node=ini_id, frame="tdd_ssw", sector=0, frame_index=0,
            end_of_training=False, **({"slot_countdown": last} if countdown else {}),
        )
        rx_shape = trace.shape(
            "frame_rx", node=ini_id, frame="tdd_ssw", sector=0, tx_sector=0,
            snr_db=0.0, outcome="decoded",
        )
        # Whole microseconds, so already the trace times.
        times = list(map(float, range(plan.start_us, plan.sweep_end_us, plan.cfg.ssw_slot_us)))
        txs = [tx for tx in range(n_tx) for _ in range(reps)]
        ssw = repeat("tdd_ssw")
        legs_rows = []
    rounded: dict[float, float] = {}
    samples = []
    for r in responders:
        loss, tx_gain, rx_gain = links.entry(initiator, r)
        n_rx = len(r.codebook)
        blocks: dict[tuple[float, float, int], tuple] = {}
        leg_blocks = []
        found: list[tuple[int, int, float]] = []
        for tx in range(n_tx):
            g, phase = tx_gain[tx], tx * reps % n_rx
            # 0.0 == -0.0 as keys, but their sums may differ in sign.
            key = (g, copysign(1.0, g), phase)
            block = blocks.get(key)
            if block is None:
                rxs = [(phase + j) % n_rx for j in range(reps)]
                base = power + g
                snrs = [base + rx_gain[k] - loss - noise for k in rxs]
                hits = [(k, snr) for k, snr in zip(rxs, snrs) if snr >= threshold]
                shown = outcomes = None
                if traced:
                    shown = []
                    for snr in snrs:
                        # 0.0 == -0.0 as keys, but each rounds to itself: never cache zero.
                        value = rounded.get(snr) if snr else round(snr, 3)
                        if value is None:
                            value = rounded[snr] = round(snr, 3)
                        shown.append(value)
                    outcomes = ["decoded" if snr >= threshold else "below_threshold" for snr in snrs]
                block = blocks[key] = (hits, rxs, shown, outcomes)
            found += [(tx, k, snr) for k, snr in block[0]]
            leg_blocks.append(block)
        samples.append(found)
        if traced:
            legs_rows.append(zip(
                times, repeat(rx_shape), repeat(r.node_id), ssw,
                chain.from_iterable(b[1] for b in leg_blocks), txs,
                chain.from_iterable(b[2] for b in leg_blocks),
                chain.from_iterable(b[3] for b in leg_blocks),
            ))
    if traced:
        tx_rows = zip(
            times, repeat(tx_shape), repeat(ini_id), ssw, txs, range(plan.n_frames),
            chain(repeat(False, last), (True,)), *((range(last, -1, -1),) if countdown else ()),
        )
        trace.extend(list(chain.from_iterable(zip(tx_rows, *legs_rows))))
    return samples
