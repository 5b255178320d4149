"""Benchmark workloads: the config and sweep files each one feeds to the
otasync command line, generated from the benchmark seed.

The seed picks each sweep's master seed and, on nosync-hetero, the order of
the users. Neither changes what a cell's SE converges to (the per-UE SE is
averaged over the users), so one set of stored references serves every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

C_NU = 5e-18


@dataclass(frozen=True)
class Workload:
    name: str
    schemes: tuple
    f_values: tuple
    snr_ap_db: tuple
    n_realizations: int
    n_workers: int
    # about sweep_s at the seed commit on two Xeon cores: sets how many sweeps
    # one run makes (--seconds / this, rounded, at least one), so that both
    # sides of a comparison pool the same number of sweeps and cells
    nominal_sweep_s: float
    n_antennas: int = 64
    # 2K per-(UE, AP) large-scale fadings in dB, row-major over UEs; None
    # keeps the default (the same value for every pair)
    beta_ue_db: tuple | None = None

    def config_text(self, rng: random.Random | None = None) -> str:
        """Config file; rng shuffles the users (None keeps the stored order)."""
        lines = [f"n_antennas = {self.n_antennas}", "n_ues = 10"]
        if self.beta_ue_db is not None:
            pairs = [self.beta_ue_db[i:i + 2] for i in range(0, len(self.beta_ue_db), 2)]
            if rng is not None:
                rng.shuffle(pairs)
            lines.append("beta_ue = " + ", ".join(f"{v:g}" for p in pairs for v in p) + " dB")
        return "\n".join(lines) + "\n"

    def sweep_text(self, master_seed: int, n_realizations: int | None = None) -> str:
        def join(values):
            return ", ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
        return "\n".join([
            f"f_values = {join(self.f_values)}",
            f"schemes = {join(self.schemes)}",
            f"snr_ap_db = {join(self.snr_ap_db)}",
            f"c_nu_values = {C_NU:g}",
            f"n_realizations = {n_realizations or self.n_realizations}",
            f"master_seed = {master_seed}",
            f"n_workers = {self.n_workers}",
        ]) + "\n"

    def cells(self) -> list:
        """(scheme, F, snr_ap_db) in the row order of otasync's run_sweep;
        ap1_only runs once per F with snr_ap_db = None (NaN in the CSV)."""
        out = []
        for i_snr, snr in enumerate(self.snr_ap_db):
            for scheme in self.schemes:
                if scheme == "ap1_only" and i_snr > 0:
                    continue
                for F in self.f_values:
                    out.append((scheme, F, None if scheme == "ap1_only" else snr))
        return out


def cell_key(scheme: str, frame_len: int, snr_ap_db) -> str:
    if snr_ap_db is None or (isinstance(snr_ap_db, float) and math.isnan(snr_ap_db)):
        return f"{scheme}/F{frame_len}/nan"
    return f"{scheme}/F{frame_len}/{snr_ap_db:g}"


WORKLOADS = {w.name: w for w in (
    # The --fig2 preset grid: what users run to reproduce the paper. The
    # 64x64 op-norm SVD dominates every synced cell. 1100 realizations make
    # one sweep 30-38 s on two Xeon cores, the most one run can spend; the
    # count cannot go to 1024 or below, where every se_stderr is NaN (one
    # batch-mean group per 1024-run chunk) and every cell would fail.
    Workload(name="fig2-grid", schemes=("kalman", "direct", "ap1_only"),
             f_values=tuple(range(1, 11)), snr_ap_db=(-15.0, -20.0),
             n_realizations=1100, n_workers=1, nominal_sweep_s=37.5),
    # No inter-array channel: the sparse Wiener advance, Delta accumulation
    # and the K-fold rate table (unequal beta_ue turns off the single-UE
    # shortcut). 10240 runs = 10 chunks, so every batch-mean group is live.
    Workload(name="nosync-hetero", schemes=("ap1_only",),
             f_values=tuple(range(1, 11)), snr_ap_db=(-15.0,),
             n_realizations=10240, n_workers=1, nominal_sweep_s=4.7,
             beta_ue_db=(-14.0, -15.5, -17.2, -16.1, -18.4, -19.0, -20.3, -21.7,
                         -19.8, -22.5, -23.1, -24.6, -21.0, -25.2, -26.0, -18.9,
                         -15.0, -23.8, -20.7, -17.6)),
    # Few large matrices (N=128: 256 MiB of G per 1024-run chunk) through the
    # process pool, which is built per cell; two workers, one chunk each.
    Workload(name="large-array", schemes=("kalman", "direct"),
             f_values=(1, 10), snr_ap_db=(-15.0,),
             n_realizations=2048, n_workers=2, nominal_sweep_s=14.7, n_antennas=128),
)}
