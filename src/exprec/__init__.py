"""Structured low-rank k-t reconstruction of exponential image series.

Recovers a 2-D image time series whose pixels decay as sums of damped
exponentials from undersampled Fourier (k-t) measurements, by completing
a multifold Toeplitz lifted matrix with Schatten-p IRLS and FFT hybrid
(circular-spatial, linear-temporal) operators.

Public names load their module, and numpy, on first use (PEP 562), so
``import exprec.cli`` stays cheap until a command needs the numerics.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ["Grid", "dft2_forward", "dft2_inverse"],
    "lifting": ["FilterSpec", "AnnihilationCertificate", "build_lifted",
                "apply_lifted_adjoint", "annihilation_certificate"],
    "solver": ["SolverConfig", "SolveReport", "irls_solve"],
    "simulate": ["PhantomSpec", "Phantom", "Measurements", "make_phantom", "make_coils",
                 "make_mask", "simulate_measurements"],
    "mapping": ["fit_t2", "snr_db", "nrmse", "recon_zerofill", "recon_ktlowrank"],
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
