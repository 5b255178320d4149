"""Closed-form achievable downlink rate per frame position, the per-UE
spectral efficiency and its gradient, evaluated on a whole E[Delta] table:
every UE and position at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemParams
from .timeline import SamplePlan


@dataclass(frozen=True)
class RateBreakdown:
    """Signal and noise powers of the effective SINR, the resulting rate and
    signal = sum_l a sqrt(N rho eta gamma) E[Delta] (signal^2 = ds_power),
    each of shape (K, n).

    bu_power keeps only the estimate-uncertainty part N gamma (1 - E[Delta]^2);
    the fading-variance part of the beamforming uncertainty is grouped with the
    inter-user term in ui_power, mirroring the closed form's denominator. The
    totals agree with the direct decomposition (asserted in tests).
    """

    ds_power: np.ndarray
    bu_power: np.ndarray
    ui_power: np.ndarray
    rate_bits: np.ndarray
    signal: np.ndarray


def rate_at_position(params: SystemParams, a, mean_delta) -> RateBreakdown:
    """Achievable rate of every UE k at every position n:
    log2(1 + N rho (sum_l a sqrt(eta gamma) E[Delta])^2 /
         (N rho sum_l a eta gamma (1 - E[Delta]^2) + rho sum_l a beta sum_k' eta + 1)).

    a: (2, n) downlink indicators; mean_delta: (2, n) real E[Delta].
    Positions where no AP transmits get zero powers and a zero rate.
    """
    a = np.asarray(a, dtype=bool)
    mean_delta = np.asarray(mean_delta)
    if a.ndim != 2 or a.shape[0] != 2 or mean_delta.shape != a.shape \
            or not np.isrealobj(mean_delta):
        raise ValueError(f"need (2, n) indicators and a real (2, n) E[Delta], got "
                         f"{a.shape} and {mean_delta.dtype} {mean_delta.shape}")
    # the indicators go into the (2, n) table, which has no UE axis
    d = np.where(a, mean_delta, 0.0)
    u = np.maximum(0.0, 1.0 - d ** 2) * a
    # per-UE constants, (K, 2): N rho eta gamma, its root and rho beta sum_k' eta
    unc, ui_per_ue = params.rate_constants()
    amp = np.sqrt(unc)
    ui = ui_per_ue @ a
    s = amp @ d
    ds = s ** 2
    bu = unc @ u
    return RateBreakdown(ds_power=ds, bu_power=bu, ui_power=ui,
                         rate_bits=np.log2(1.0 + ds / (bu + ui + 1.0)), signal=s)


def per_position_rates(params: SystemParams, plan: SamplePlan, mean_delta) -> np.ndarray:
    """(K, F*tau_c) rate table for a (2, F*tau_c) E[Delta] table; zero
    wherever no AP sends payload data, and computed only where some AP does."""
    mean_delta = np.asarray(mean_delta)
    if mean_delta.shape != (2, plan.n_samples):
        raise ValueError(f"need a (2, {plan.n_samples}) E[Delta] table, got {mean_delta.shape}")
    mask = plan.data_mask()
    cols = np.flatnonzero(mask.any(axis=0))
    payload = rate_at_position(params, mask[:, cols], mean_delta[:, cols]).rate_bits
    rates = np.zeros((len(payload), plan.n_samples))
    rates[:, cols] = payload
    return rates


def se_gradient(params: SystemParams, plan: SamplePlan, mean_delta) -> np.ndarray:
    """(2, F*tau_c) dSE/dE[Delta] of the UE-averaged SE of a real (2, F*tau_c)
    table, computed at payload columns only: the mean over UEs k and
    positions of 2 a_l (amp_kl s_k / tot_k - unc_kl d_l (1/tot_k - 1/den_k))
    / ln 2, with s the signal, den = bu + ui + 1 and tot = den + ds."""
    mask = plan.data_mask()
    cols = np.flatnonzero(mask.any(axis=0))
    table = np.asarray(mean_delta)[:, cols]
    b = rate_at_position(params, mask[:, cols], table)
    den = b.bu_power + b.ui_power + 1.0
    tot = den + b.ds_power
    unc = params.rate_constants()[0]
    grad = np.zeros((2, plan.n_samples))
    grad[:, cols] = (np.sqrt(unc).T @ (b.signal / tot) - table * (unc.T @ (1 / tot - 1 / den))) \
        * mask[:, cols] * (2 / (len(unc) * plan.n_samples * math.log(2)))
    return grad


def spectral_efficiency(plan: SamplePlan, rates) -> np.ndarray:
    """Per-UE SE, shape (K,): plain average of a (K, F*tau_c) rate table
    over the frame."""
    rates = np.asarray(rates)
    if rates.ndim != 2 or rates.shape[1] != plan.n_samples:
        raise ValueError("need one rate per UE and frame position")
    return rates.mean(axis=1)
