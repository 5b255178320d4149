"""Link-level simulator for over-the-air phase synchronization between two
distributed antenna arrays with independent oscillators, and the resulting
achievable downlink spectral efficiency."""

from .compensation import DeltaStats, monte_carlo_delta, run_phase_trace
from .config import ConfigError, SystemParams, default_params, derive_sigma_nu, \
    dump_config, load_config
from .experiment import ResultRow, SweepSpec, emit_csv, fig2_sweep, fig3_sweep, run_sweep
from .rate import RateBreakdown, rate_at_position, spectral_efficiency
from .timeline import Activity, SamplePlan, build_broken_slot, build_conventional_slot, \
    build_frame_schedule
from .tracking import KalmanState, NoiseModel, derive_noise_model, kalman_init, \
    kalman_update, wrap

__version__ = "0.1.0"
