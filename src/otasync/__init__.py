"""Link-level simulator for over-the-air phase synchronization between two
distributed antenna arrays with independent oscillators, and the resulting
achievable downlink spectral efficiency."""

__version__ = "0.1.0"
