"""Closed-form achievable downlink rate per frame position and the per-UE
spectral efficiency, evaluated on whole tables: every UE and position at
once, for any stack of E[Delta] tables (for instance the overall mean and the
batch-group means).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemParams
from .timeline import SamplePlan


@dataclass(frozen=True)
class RateBreakdown:
    """Signal and noise powers of the effective SINR and the resulting rate,
    each of shape (..., K, n).

    bu_power keeps only the estimate-uncertainty part N gamma (1 - |E[Delta]|^2);
    the fading-variance part of the beamforming uncertainty is grouped with the
    inter-user term in ui_power, mirroring the closed form's denominator. The
    totals agree with the direct decomposition (asserted in tests).
    """

    ds_power: np.ndarray
    bu_power: np.ndarray
    ui_power: np.ndarray
    rate_bits: np.ndarray


def rate_at_position(params: SystemParams, a, mean_delta) -> RateBreakdown:
    """Achievable rate of every UE k at every position n:
    log2(1 + N rho |sum_l a sqrt(eta gamma) E[Delta]|^2 /
         (N rho sum_l a eta gamma (1-|E[Delta]|^2) + rho sum_l a beta sum_k' eta + 1)).

    a: (2, n) downlink indicators; mean_delta: (..., 2, n) complex E[Delta].
    Positions where no AP transmits get zero powers and a zero rate.
    """
    a = np.asarray(a, dtype=bool)
    mean_delta = np.asarray(mean_delta)
    N, rho = params.n_antennas, params.rho_ap
    gamma = params.gamma()
    ds_amp = 0.0 + 0.0j
    bu = 0.0
    ui = 0.0
    for ap in range(2):
        on = a[ap]
        eta = params.eta[:, ap, None]
        g = gamma[:, ap, None]
        d = mean_delta[..., None, ap, :]
        ds_amp = ds_amp + np.where(on, np.sqrt(eta * g) * d, 0.0)
        bu = bu + np.where(on, N * rho * eta * g * np.maximum(0.0, 1.0 - np.abs(d) ** 2), 0.0)
        ui = ui + np.where(on, rho * params.beta_ue[:, ap, None] * params.eta[:, ap].sum(), 0.0)
    ds = N * rho * np.abs(ds_amp) ** 2
    return RateBreakdown(ds_power=ds, bu_power=bu, ui_power=np.broadcast_to(ui, ds.shape),
                         rate_bits=np.log2(1.0 + ds / (bu + ui + 1.0)))


def per_position_rates(params: SystemParams, plan: SamplePlan, mean_delta) -> np.ndarray:
    """(..., K, F*tau_c) rate table for (..., 2, F*tau_c) E[Delta] tables;
    zero wherever no AP sends payload data."""
    return rate_at_position(params, plan.data_mask(), mean_delta).rate_bits


def spectral_efficiency(plan: SamplePlan, rates) -> np.ndarray:
    """Per-UE SE, shape (..., K): plain average of the per-position rates
    over the frame."""
    rates = np.asarray(rates)
    if rates.shape[-1] != plan.n_samples:
        raise ValueError("need one rate per frame position")
    return rates.mean(axis=-1)
