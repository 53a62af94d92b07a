"""Boosted spin observables and Bell operators for two and three qubits:
exact small-dimension spectra, closed-form violation curves, settings
optimization and shot-level measurement simulation."""

__version__ = "0.1.0"
