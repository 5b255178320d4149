"""Slot geometry and the per-sample activity plans of both arrays over a frame.

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

from .config import ConfigError, SystemParams

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


def sync_instants(params: SystemParams):
    """Slot-local 1-based samples (i1, i2) of the two sync signals: AP 1's last
    uplink sample i1 = tau_p + tau_u and its last downlink sample
    i2 = i1 + tau_g + tau_d."""
    i1 = params.tau_p + params.tau_u
    return i1, i1 + params.tau_g + params.tau_d


def _runs(activities, lengths) -> np.ndarray:
    return np.repeat(np.array(activities, dtype=np.int8), lengths)


def build_conventional_slot(params: SystemParams) -> np.ndarray:
    """Labels of one conventional slot (identical for both APs), shape (tau_c,):
    uplink pilots and data, guard, downlink, guard; the demodulation pilot is
    the first downlink sample."""
    p, u, g, d = params.tau_p, params.tau_u, params.tau_g, params.tau_d
    labels = _runs((Activity.UL_PILOT, Activity.UL_DATA, Activity.GUARD,
                    Activity.DL_DATA, Activity.GUARD), (p, u, g, d, g))
    labels[p + u + g] = Activity.DL_DEMOD_PILOT
    return labels


def build_broken_slot(params: SystemParams):
    """Labels of the broken slot, shape (2, tau_c), plus the two sync events
    [(sample, tx_ap, rx_ap), ...] with slot-local 1-based sample indices.

    AP 1 keeps the conventional slot except that it receives at i1 (still in
    uplink) and transmits the sync signal at i2 (last downlink sample). AP 2
    relocates the last tau_g + TAU_S uplink samples to the slot end, shifting
    its downlink earlier; its demodulation pilot moves to the first sample
    where both APs are in downlink, and no data is sent at i1 or i2.
    """
    p, u, g, d = params.tau_p, params.tau_u, params.tau_g, params.tau_d
    shift = g + TAU_S
    if u < shift:
        raise ConfigError(
            f"cannot relocate {shift} uplink samples: only {u} uplink data samples")
    if d < g + 2:
        raise ConfigError("shifted downlink ends before the joint demodulation pilot sample")
    i1, i2 = sync_instants(params)

    ap1 = build_conventional_slot(params)
    ap1[i1 - 1] = Activity.SYNC_RX
    ap1[i2 - 1] = Activity.SYNC_TX

    ap2 = _runs((Activity.UL_PILOT, Activity.UL_DATA, Activity.GUARD, Activity.DL_DATA,
                 Activity.GUARD, Activity.UL_DATA), (p, u - shift, g, d, g, shift))
    ap2[i1 - 1] = Activity.SYNC_TX
    ap2[i2 - 1] = Activity.SYNC_RX
    ap2[i1 + g] = Activity.DL_DEMOD_PILOT

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


def _assemble(params: SystemParams, slot_labels, sync_events) -> SamplePlan:
    F, c, K = params.frame_len, params.tau_c, params.n_ues
    labels = np.concatenate(slot_labels, axis=1)
    a = np.isin(labels, _TRANSMITTING)
    pilots = np.arange(F)[:, None] * c + np.arange(1, K + 1)[None, :]
    hit = labels.reshape(2, F, c) == Activity.DL_DEMOD_PILOT
    demod = np.where(hit.any(axis=2), np.arange(F) * c + hit.argmax(axis=2) + 1, -1)
    return SamplePlan(tau_c=c, frame_len=F, labels=labels, a=a,
                      sync_events=tuple(sync_events), pilot_samples=pilots,
                      demod_pilot_samples=demod)


def build_frame_schedule(params: SystemParams) -> SamplePlan:
    """Synchronized flow: slot 1 broken, slots 2..F conventional."""
    broken, events = build_broken_slot(params)
    conv = build_conventional_slot(params)
    slot_labels = [broken] + [np.stack([conv, conv])] * (params.frame_len - 1)
    return _assemble(params, slot_labels, events)


def build_ap1_only_schedule(params: SystemParams) -> SamplePlan:
    """Baseline with AP 2 switched off: conventional slots for AP 1, AP 2 idle,
    no synchronization exchange."""
    conv = build_conventional_slot(params)
    idle = np.full(params.tau_c, Activity.IDLE, dtype=np.int8)
    slot_labels = [np.stack([conv, idle])] * params.frame_len
    return _assemble(params, slot_labels, ())
