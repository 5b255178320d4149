"""Per-sample activity plans for both arrays over a frame.

A frame groups F slots. In the synchronized flows the first slot is "broken":
array 2 moves the last tau_g + TAU_S samples of its uplink to the end of the
slot and shifts its downlink earlier accordingly, creating exactly one
uplink/downlink overlap sample in each direction where a synchronization
signal is exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .config import ConfigError, SlotLayout, SystemParams

# Samples used per sync transmission inside the overlap. The relocation of
# tau_g + 1 uplink samples fixes this at one.
TAU_S = 1


class Activity(IntEnum):
    UL_PILOT = 0
    UL_DATA = 1
    GUARD = 2
    DL_DATA = 3
    DL_DEMOD_PILOT = 4
    SYNC_TX = 5
    SYNC_RX = 6
    IDLE = 7


# labels during which an AP radiates downlink energy
_TRANSMITTING = (Activity.DL_DATA, Activity.DL_DEMOD_PILOT, Activity.SYNC_TX)
_UPLINK_SIDE = (Activity.UL_PILOT, Activity.UL_DATA, Activity.SYNC_RX)


def _fill(labels: np.ndarray, span: tuple, activity: Activity):
    start, stop = span
    if stop >= start:
        labels[start - 1:stop] = activity


def build_conventional_slot(layout: SlotLayout) -> np.ndarray:
    """Labels of one conventional slot (identical for both APs), shape (tau_c,)."""
    labels = np.empty(layout.tau_c, dtype=np.int8)
    _fill(labels, layout.ul_pilot, Activity.UL_PILOT)
    _fill(labels, layout.ul_data, Activity.UL_DATA)
    _fill(labels, layout.guard1, Activity.GUARD)
    _fill(labels, layout.downlink, Activity.DL_DATA)
    _fill(labels, layout.guard2, Activity.GUARD)
    labels[layout.demod_pilot_index - 1] = Activity.DL_DEMOD_PILOT
    return labels


def build_broken_slot(layout: SlotLayout):
    """Labels of the broken slot, shape (2, tau_c), plus the two sync events
    [(sample, tx_ap, rx_ap), ...] with slot-local 1-based sample indices.

    AP 1 keeps the conventional slot except that it receives at i1 (still in
    uplink) and transmits the sync signal at i2 (last downlink sample). AP 2
    relocates the last tau_g + TAU_S uplink samples to the slot end, shifting
    its downlink earlier; its demodulation pilot moves to the first sample
    where both APs are in downlink, and no data is sent at i1 or i2.
    """
    tau_g = layout.guard1[1] - layout.guard1[0] + 1
    shift = tau_g + TAU_S
    i1, i2, c = layout.i1, layout.i2, layout.tau_c
    tau_p = layout.ul_pilot[1]
    tau_d = layout.downlink[1] - layout.downlink[0] + 1

    if i1 - shift < tau_p:
        raise ConfigError(
            f"cannot relocate {shift} uplink samples: only {i1 - tau_p} uplink data samples"
        )
    if layout.demod_pilot_index > i1 + tau_d - 1:
        raise ConfigError("shifted downlink ends before the joint demodulation pilot sample")

    ap1 = build_conventional_slot(layout)
    ap1[i1 - 1] = Activity.SYNC_RX
    ap1[i2 - 1] = Activity.SYNC_TX

    ap2 = np.empty(c, dtype=np.int8)
    _fill(ap2, (1, tau_p), Activity.UL_PILOT)
    _fill(ap2, (tau_p + 1, i1 - shift), Activity.UL_DATA)
    _fill(ap2, (i1 - shift + 1, i1 - 1), Activity.GUARD)
    _fill(ap2, (i1, i1 + tau_d - 1), Activity.DL_DATA)
    _fill(ap2, (i1 + tau_d, i2 - 1), Activity.GUARD)
    _fill(ap2, (i2, c), Activity.UL_DATA)
    ap2[i1 - 1] = Activity.SYNC_TX
    ap2[i2 - 1] = Activity.SYNC_RX
    ap2[layout.demod_pilot_index - 1] = Activity.DL_DEMOD_PILOT

    events = ((i1, 2, 1), (i2, 1, 2))
    return np.stack([ap1, ap2]), events


@dataclass(frozen=True)
class SamplePlan:
    """Resolved per-sample activity of both APs over one frame.

    labels: (2, F*tau_c) Activity codes; a: (2, F*tau_c) downlink-transmission
    indicators; sync_events: ((global_sample, tx_ap, rx_ap), ...);
    pilot_samples: (F, K) global index of UE k's pilot in each slot;
    demod_pilot_samples: (2, F) global demod-pilot index per AP (-1 if none).
    """

    tau_c: int
    frame_len: int
    labels: np.ndarray
    a: np.ndarray
    sync_events: tuple
    pilot_samples: np.ndarray
    demod_pilot_samples: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.frame_len * self.tau_c

    def data_mask(self) -> np.ndarray:
        """(2, n_samples) bool: AP transmits payload data at that sample."""
        return self.labels == Activity.DL_DATA

    def dump_csv(self) -> str:
        lines = ["n,ap1_label,ap2_label,a1,a2"]
        for n in range(self.n_samples):
            lines.append("%d,%s,%s,%d,%d" % (
                n + 1, Activity(self.labels[0, n]).name, Activity(self.labels[1, n]).name,
                self.a[0, n], self.a[1, n]))
        return "\n".join(lines) + "\n"


def _assemble(params: SystemParams, layout: SlotLayout, slot_labels, sync_events) -> SamplePlan:
    F, c, K = params.frame_len, layout.tau_c, params.n_ues
    labels = np.concatenate(slot_labels, axis=1)
    a = np.isin(labels, _TRANSMITTING)
    pilots = np.arange(F)[:, None] * c + np.arange(1, K + 1)[None, :]
    hit = labels.reshape(2, F, c) == Activity.DL_DEMOD_PILOT
    demod = np.where(hit.any(axis=2), np.arange(F) * c + hit.argmax(axis=2) + 1, -1)
    return SamplePlan(tau_c=c, frame_len=F, labels=labels, a=a,
                      sync_events=tuple(sync_events), pilot_samples=pilots,
                      demod_pilot_samples=demod)


def build_frame_schedule(params: SystemParams, layout: SlotLayout) -> SamplePlan:
    """Synchronized flow: slot 1 broken, slots 2..F conventional."""
    broken, events = build_broken_slot(layout)
    conv = build_conventional_slot(layout)
    slot_labels = [broken] + [np.stack([conv, conv])] * (params.frame_len - 1)
    return _assemble(params, layout, slot_labels, events)


def build_ap1_only_schedule(params: SystemParams, layout: SlotLayout) -> SamplePlan:
    """Baseline with AP 2 switched off: conventional slots for AP 1, AP 2 idle,
    no synchronization exchange."""
    conv = build_conventional_slot(layout)
    idle = np.full(layout.tau_c, Activity.IDLE, dtype=np.int8)
    slot_labels = [np.stack([conv, idle])] * params.frame_len
    return _assemble(params, layout, slot_labels, ())
