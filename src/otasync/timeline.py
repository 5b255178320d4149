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


# by label code: whether an AP radiates downlink energy during that label
_TRANSMITS = np.isin(np.arange(len(Activity)),
                     (Activity.DL_DATA, Activity.DL_DEMOD_PILOT, Activity.SYNC_TX))


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


def build_broken_slot(params: SystemParams) -> np.ndarray:
    """Labels of the broken slot, shape (2, tau_c).

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
    return np.stack([ap1, ap2])


@dataclass(frozen=True)
class SamplePlan:
    """Resolved per-sample activity of both APs over one frame; the labels
    are the schedule, and from_slots reads every other field from them.

    labels: (2, F*tau_c) Activity codes; a: (2, F*tau_c) downlink-transmission
    indicators; sync_samples: the global 1-based samples where AP 1 receives,
    then sends, a sync signal, (i1, i2), or () without a sync exchange;
    pilot_samples: (F, K) global index of UE k's pilot in each slot;
    demod_pilot_samples: (2, F) global demod-pilot index per AP (-1 if none).
    """

    tau_c: int
    frame_len: int
    labels: np.ndarray
    a: np.ndarray
    sync_samples: tuple
    pilot_samples: np.ndarray
    demod_pilot_samples: np.ndarray

    @classmethod
    def from_slots(cls, slot_labels) -> SamplePlan:
        """The plan of the frame whose F slots have these (2, tau_c) labels, in
        order. UE k's pilot is AP 1's k-th UL_PILOT sample of each slot."""
        slots = np.stack(slot_labels, axis=1)    # (2, F, tau_c)
        _, F, c = slots.shape
        labels = slots.reshape(2, F * c)

        def at(activity):
            """AP 1's 1-based samples of one activity (numpy compares a plain
            int several times faster than an IntEnum member)."""
            return np.flatnonzero(labels[0] == activity.value) + 1

        hit = slots == Activity.DL_DEMOD_PILOT.value
        demod = np.where(hit.any(axis=2), np.arange(F) * c + hit.argmax(axis=2) + 1, -1)
        return cls(tau_c=c, frame_len=F, labels=labels, a=_TRANSMITS[labels],
                   sync_samples=(*at(Activity.SYNC_RX).tolist(), *at(Activity.SYNC_TX).tolist()),
                   pilot_samples=at(Activity.UL_PILOT).reshape(F, -1),
                   demod_pilot_samples=demod)

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


def build_frame_schedule(params: SystemParams) -> SamplePlan:
    """Synchronized flow: slot 1 broken, slots 2..F conventional."""
    conv = build_conventional_slot(params)
    return SamplePlan.from_slots(
        [build_broken_slot(params)] + [np.stack([conv, conv])] * (params.frame_len - 1))


def build_ap1_only_schedule(params: SystemParams) -> SamplePlan:
    """Baseline with AP 2 switched off: conventional slots for AP 1, AP 2 idle,
    no synchronization exchange."""
    conv = build_conventional_slot(params)
    idle = np.full(params.tau_c, Activity.IDLE, dtype=np.int8)
    return SamplePlan.from_slots([np.stack([conv, idle])] * params.frame_len)
