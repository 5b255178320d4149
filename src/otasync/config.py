"""System parameters, config I/O and the oscillator-quality constant.

All powers are linear (dB only at the config-file boundary). Sample indices
are 1-based within a slot and keep incrementing across slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """Bad key, malformed value or violated parameter invariant."""


_DB_KEYS = {"rho_ue", "rho_ap", "beta_ue", "beta_g"}


@dataclass(frozen=True, eq=False)
class SystemParams:
    """All scalar system parameters plus the per-(UE, AP) fading/power tables.

    The defaults are the reference scenario: two 64-antenna arrays, ten
    single-antenna users, 100-sample coherence block at 20 MHz / 2 GHz.
    """

    n_antennas: int = 64
    n_ues: int = 10
    tau_c: int = 100
    tau_u: int = 42
    tau_g: int = 3
    tau_d: int = 42
    frame_len: int = 1
    rho_ue: float = 100.0            # 20 dB
    rho_ap: float = 200.0            # 2 * rho_ue, linear
    beta_ue: np.ndarray = 0.01       # shape (K, 2), linear; -20 dB for every pair
    beta_g: float = 10 ** (-1.5) / 200.0   # SNR_AP = rho_ap * beta_g = -15 dB
    eta: np.ndarray = 0.1            # shape (K, 2), power-control coefficients; 1/K
    f_c: float = 2e9                 # Hz
    f_s: float = 2e7                 # Hz
    c_nu: float = 5e-18
    ue_pilot_noise_var: float = 0.0  # rad^2; 0 = noiseless UE demod-pilot estimate

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

    @property
    def tau_p(self) -> int:
        """Uplink pilot samples: one orthogonal pilot per UE."""
        return self.n_ues

    def validate(self):
        filled = self.tau_p + self.tau_u + self.tau_d + 2 * self.tau_g
        if filled != self.tau_c:
            raise ConfigError(
                "slot does not fill exactly: tau_p + tau_u + tau_d + 2*tau_g = "
                f"{filled} != tau_c = {self.tau_c}"
            )
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
        # an overflow in the rate formula's constants, or in its sums over
        # the two arrays, would turn every SE into a silent NaN; a gamma that
        # is not finite makes the first constant so. The sums are checked at
        # their worst case: both arrays sending, |E[Delta]| = 1 in ds and 0 in bu
        with np.errstate(over="ignore", invalid="ignore"):
            unc, ui = self.rate_constants()
            ds = np.sqrt(unc).sum(axis=1) ** 2
            denominator = unc.sum(axis=1) + ui.sum(axis=1) + 1.0
        for name, value in (("n_antennas * rho_ap * eta * gamma(beta_ue, rho_ue, n_ues)", unc),
                            ("rho_ap * beta_ue * sum_k eta", ui),
                            ("ds with both arrays sending", ds),
                            ("bu + ui + 1 with both arrays sending", denominator)):
            if not np.isfinite(value).all():
                raise ConfigError(f"rate term {name} is not finite")

    def gamma(self) -> np.ndarray:
        """Effective-channel estimate variances, shape (K, 2).

        gamma = beta * (rho_ue*K*beta) / (rho_ue*K*beta + 1).
        """
        snr = self.rho_ue * self.n_ues * self.beta_ue
        return self.beta_ue * snr / (snr + 1.0)

    def rate_constants(self):
        """The closed-form rate's per-UE constants, each of shape (K, 2):
        N rho_ap eta gamma and rho_ap beta_ue sum_k' eta."""
        return (self.n_antennas * self.rho_ap * self.eta * self.gamma(),
                self.rho_ap * self.beta_ue * self.eta.sum(axis=0))

    def with_snr_ap_db(self, snr_db: float) -> "SystemParams":
        return replace(self, beta_g=_from_db(snr_db) / self.rho_ap)


def _check_counts(fields):
    for name in ("n_antennas", "n_ues", "tau_c", "tau_u", "tau_d", "frame_len"):
        if fields[name] < 1:
            raise ConfigError(f"{name} must be a positive integer, got {fields[name]}")
    if fields["tau_g"] < 0:
        raise ConfigError(f"tau_g must be nonnegative, got {fields['tau_g']}")
    # each count sizes an array or indexes samples
    for name in ("n_antennas", "n_ues", "tau_c", "tau_u", "tau_g", "tau_d", "frame_len"):
        if fields[name] > np.iinfo(np.intp).max:
            raise ConfigError(f"{name} exceeds the largest array index {np.iinfo(np.intp).max}")


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


def default_params(**given) -> SystemParams:
    """SystemParams from the given keys. An omitted key takes its field
    default, except the keys that follow others: rho_ap = 2*rho_ue,
    eta = 1/n_ues, and tau_u and tau_d take what the slot leaves after
    tau_p = n_ues pilot samples (split evenly if both are omitted)."""
    values = {f.name: f.default for f in fields(SystemParams)}
    values.update(given)
    _check_counts(values)   # before the dependent keys divide by or size with them
    if "rho_ap" not in given:
        values["rho_ap"] = 2.0 * values["rho_ue"]
    if "eta" not in given:
        values["eta"] = 1.0 / values["n_ues"]
    rest = values["tau_c"] - values["n_ues"] - 2 * values["tau_g"]
    if "tau_u" not in given and "tau_d" not in given:
        if rest < 2 or rest % 2:
            raise ConfigError(f"cannot split tau_c - tau_p - 2*tau_g = {rest} into tau_u + tau_d")
        values["tau_u"] = values["tau_d"] = rest // 2
    elif "tau_d" not in given:
        values["tau_d"] = rest - values["tau_u"]
    elif "tau_u" not in given:
        values["tau_u"] = rest - values["tau_d"]
    return SystemParams(**values)


def derive_sigma_nu(params: SystemParams) -> float:
    """Per-sample Wiener phase-increment variance, 4*pi^2*f_c^2*c_nu/f_s [rad^2]."""
    try:
        out = 4.0 * math.pi**2 * params.f_c**2 * params.c_nu / params.f_s
    except OverflowError:   # f_c**2 beyond the float range raises; a product gives inf
        out = math.inf
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


# each config key's parse kind: its field's annotation, 'int', 'float' or 'np.ndarray'
_KINDS = {f.name: f.type for f in fields(SystemParams)}


def _parse_value(key: str, raw: str):
    is_db = raw.lower().endswith("db")
    if is_db:
        if key not in _DB_KEYS:
            raise ValueError(f"'{key}' does not accept a dB value")
        raw = raw[:-2].strip()
    if _KINDS[key] == "int":
        return int(raw)
    if _KINDS[key] == "np.ndarray":
        parts = [float(x) for x in raw.split(",")]
        vals = [_from_db(v) for v in parts] if is_db else parts
        return vals[0] if len(vals) == 1 else np.array(vals)
    v = float(raw)
    return _from_db(v) if is_db else v


def load_config(text: str) -> SystemParams:
    """Parse a flat key=value document; omitted keys are filled as by
    default_params.

    Power-like keys (rho_ue, rho_ap, beta_ue, beta_g) accept a 'dB' suffix.
    beta_ue/eta accept one value (broadcast) or 2K comma-separated values
    (row-major over (UE, AP)).
    """
    return default_params(**read_key_values(text, _KINDS, _parse_value))


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
