"""System parameters, config I/O and the oscillator-quality constant.

All powers are linear (dB only at the config-file boundary). Sample indices
are 1-based within a slot and keep incrementing across slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class ConfigError(ValueError):
    """Bad key, malformed value or violated parameter invariant."""


# Default scenario: two 64-antenna arrays, ten single-antenna users,
# 100-sample coherence block at 20 MHz / 2 GHz.
DEFAULTS = dict(
    n_antennas=64,
    n_ues=10,
    tau_c=100,
    tau_p=10,
    tau_u=42,
    tau_g=3,
    tau_d=42,
    frame_len=1,
    rho_ue=100.0,            # 20 dB
    rho_ap=200.0,            # 2 * rho_ue, linear
    beta_ue=0.01,            # -20 dB, every (UE, AP) pair
    beta_g=10 ** (-1.5) / 200.0,   # SNR_AP = rho_ap * beta_g = -15 dB
    eta=0.1,                 # 1/K, every (UE, AP) pair
    f_c=2e9,                 # Hz
    f_s=2e7,                 # Hz
    c_nu=5e-18,
    ue_pilot_noise_var=0.0,  # rad^2; 0 = noiseless UE demod-pilot estimate
)

_DB_KEYS = {"rho_ue", "rho_ap", "beta_ue", "beta_g"}
_INT_KEYS = {"n_antennas", "n_ues", "tau_c", "tau_p", "tau_u", "tau_g", "tau_d", "frame_len"}
_MATRIX_KEYS = {"beta_ue", "eta"}
_SCALAR_KEYS = {"rho_ue", "rho_ap", "beta_g", "f_c", "f_s", "c_nu", "ue_pilot_noise_var"}
_ALL_KEYS = _INT_KEYS | _MATRIX_KEYS | _SCALAR_KEYS


@dataclass(frozen=True, eq=False)
class SystemParams:
    """All scalar system parameters plus the per-(UE, AP) fading/power tables."""

    n_antennas: int
    n_ues: int
    tau_c: int
    tau_p: int
    tau_u: int
    tau_g: int
    tau_d: int
    frame_len: int
    rho_ue: float
    rho_ap: float
    beta_ue: np.ndarray      # shape (K, 2), linear
    beta_g: float
    eta: np.ndarray          # shape (K, 2), power-control coefficients
    f_c: float
    f_s: float
    c_nu: float
    ue_pilot_noise_var: float = 0.0

    def __post_init__(self):
        _check_counts(vars(self))   # before _as_table sizes the tables with n_ues
        object.__setattr__(self, "beta_ue", _as_table(self.beta_ue, self.n_ues, "beta_ue"))
        object.__setattr__(self, "eta", _as_table(self.eta, self.n_ues, "eta"))
        self.validate()

    def __eq__(self, other):
        if not isinstance(other, SystemParams):
            return NotImplemented
        for name in self.__dataclass_fields__:
            a, b = getattr(self, name), getattr(other, name)
            equal = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            if not equal:
                return False
        return True

    def validate(self):
        filled = self.tau_p + self.tau_u + self.tau_d + 2 * self.tau_g
        if filled != self.tau_c:
            raise ConfigError(
                "slot does not fill exactly: tau_p + tau_u + tau_d + 2*tau_g = "
                f"{filled} != tau_c = {self.tau_c}"
            )
        if self.tau_p != self.n_ues:
            raise ConfigError(f"tau_p = {self.tau_p} must equal n_ues = {self.n_ues}")
        for name in ("rho_ue", "rho_ap", "beta_g", "f_c", "f_s"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        if not (math.isfinite(self.c_nu) and self.c_nu >= 0):
            raise ConfigError(f"c_nu must be nonnegative and finite, got {self.c_nu}")
        if not (math.isfinite(self.ue_pilot_noise_var) and self.ue_pilot_noise_var >= 0):
            raise ConfigError("ue_pilot_noise_var must be nonnegative and finite")
        if not np.all(np.isfinite(self.beta_ue) & (self.beta_ue > 0)):
            raise ConfigError("beta_ue entries must be positive and finite")
        if not np.all(np.isfinite(self.eta) & (self.eta >= 0)):
            raise ConfigError("eta entries must be nonnegative and finite")
        col = self.eta.sum(axis=0)
        if np.any(col > 1 + 1e-12):
            raise ConfigError(
                f"per-AP power constraint violated: sum_k eta[k,ap] = {col} exceeds 1"
            )

    def gamma(self) -> np.ndarray:
        """Effective-channel estimate variances, shape (K, 2).

        gamma = beta * (rho_ue*K*beta) / (rho_ue*K*beta + 1).
        """
        snr = self.rho_ue * self.n_ues * self.beta_ue
        return self.beta_ue * snr / (snr + 1.0)

    def with_snr_ap_db(self, snr_db: float) -> "SystemParams":
        return replace(self, beta_g=_from_db(snr_db) / self.rho_ap)


def _check_counts(fields):
    for name in ("n_antennas", "n_ues", "tau_c", "tau_p", "tau_u", "tau_d", "frame_len"):
        if fields[name] < 1:
            raise ConfigError(f"{name} must be a positive integer, got {fields[name]}")
    if fields["tau_g"] < 0:
        raise ConfigError(f"tau_g must be nonnegative, got {fields['tau_g']}")


def _as_table(value, n_ues: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full((n_ues, 2), float(arr))
    elif arr.ndim == 1 and arr.size == 2 * n_ues:
        arr = arr.reshape(n_ues, 2)
    if arr.shape != (n_ues, 2):
        raise ConfigError(
            f"{name} must be a scalar, {2*n_ues} values, or a ({n_ues}, 2) table, got shape {arr.shape}"
        )
    out = arr.copy()
    out.flags.writeable = False
    return out


def default_params(**overrides) -> SystemParams:
    values = dict(DEFAULTS)
    values.update(overrides)
    return SystemParams(**values)


def derive_sigma_nu(params: SystemParams) -> float:
    """Per-sample Wiener phase-increment variance, 4*pi^2*f_c^2*c_nu/f_s [rad^2]."""
    out = 4.0 * math.pi**2 * params.f_c**2 * params.c_nu / params.f_s
    if not math.isfinite(out):
        raise ConfigError(f"sigma_nu^2 is not finite for f_c={params.f_c}, c_nu={params.c_nu}")
    return out


def read_key_values(text: str, keys, parse) -> dict:
    """Read a flat `key = value` document: '#' starts a comment, blank lines
    are skipped, and parse(key, raw) converts each value. A line without '=',
    an unknown or repeated key and a malformed value raise ConfigError naming
    the line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = parse(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: malformed value for '{key}' ({exc})") from exc
    return values


def _from_db(value_db: float) -> float:
    try:
        return 10 ** (value_db / 10.0)
    except OverflowError:
        raise ConfigError(f"{value_db:g} dB is out of range") from None


def _parse_value(key: str, raw: str):
    is_db = raw.lower().endswith("db")
    if is_db:
        if key not in _DB_KEYS:
            raise ValueError(f"'{key}' does not accept a dB value")
        raw = raw[:-2].strip()
    if key in _INT_KEYS:
        return int(raw)
    if key in _MATRIX_KEYS:
        parts = [float(x) for x in raw.split(",")]
        vals = [_from_db(v) for v in parts] if is_db else parts
        return vals[0] if len(vals) == 1 else np.array(vals)
    v = float(raw)
    return _from_db(v) if is_db else v


def load_config(text: str) -> SystemParams:
    """Parse a flat key=value document; omitted keys fall back to the defaults.

    Power-like keys (rho_ue, rho_ap, beta_ue, beta_g) accept a 'dB' suffix.
    beta_ue/eta accept one value (broadcast) or 2K comma-separated values
    (row-major over (UE, AP)).
    """
    values = read_key_values(text, _ALL_KEYS, _parse_value)

    merged = dict(DEFAULTS)
    merged.update(values)
    _check_counts(merged)   # before the derived defaults divide by or size with them
    # derived defaults when only parts of the geometry/power set are given
    if "rho_ue" in values and "rho_ap" not in values:
        merged["rho_ap"] = 2.0 * merged["rho_ue"]
    if "n_ues" in values and "tau_p" not in values:
        merged["tau_p"] = merged["n_ues"]
    if "eta" not in values and "n_ues" in values:
        merged["eta"] = 1.0 / merged["n_ues"]
    if "tau_d" not in values and "tau_u" not in values:
        rest = merged["tau_c"] - merged["tau_p"] - 2 * merged["tau_g"]
        if rest < 2 or rest % 2:
            raise ConfigError(f"cannot split tau_c - tau_p - 2*tau_g = {rest} into tau_u + tau_d")
        merged["tau_d"] = rest // 2
        merged["tau_u"] = rest - merged["tau_d"]
    elif "tau_d" in values and "tau_u" not in values:
        merged["tau_u"] = merged["tau_c"] - merged["tau_p"] - merged["tau_d"] - 2 * merged["tau_g"]
    elif "tau_u" in values and "tau_d" not in values:
        merged["tau_d"] = merged["tau_c"] - merged["tau_p"] - merged["tau_u"] - 2 * merged["tau_g"]

    return SystemParams(**merged)


def load_config_file(path: str) -> SystemParams:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def _fmt_table(arr: np.ndarray) -> str:
    flat = np.asarray(arr).ravel()
    if np.all(flat == flat[0]):
        return repr(float(flat[0]))
    return ",".join(repr(float(v)) for v in flat)


def dump_config(params: SystemParams) -> str:
    """Serialize so that load_config round-trips to an identical SystemParams."""
    lines = []
    for name in params.__dataclass_fields__:
        v = getattr(params, name)
        if isinstance(v, np.ndarray):
            lines.append(f"{name} = {_fmt_table(v)}")
        elif isinstance(v, float):
            lines.append(f"{name} = {v!r}")
        else:
            lines.append(f"{name} = {v}")
    return "\n".join(lines) + "\n"
