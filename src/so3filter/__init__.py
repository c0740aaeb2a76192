"""Joint rotation-group/spectral filtering of bandlimited signals on the sphere.

The package analyses a noisy sphere signal with a directional spatially
localized spherical harmonic transform, applies the spectral-covariance MMSE
filter in the joint domain, and recovers a least-squares estimate of the
source signal.  Slepian concentration windows, pointwise spherical-harmonic
synthesis and the Wigner-3j triple-product rows are included, along with an
SNR benchmark sweep and CLI.
"""

from .coupling import triple_product_rows
from .dslsht import DslshtRep, forward_dslsht
from .estimator import estimate_from_representation
from .filtering import (
    FilterDiagnostics,
    JointFilter,
    SpectralCovariance,
    apply_filter,
    design_filter,
)
from .pipeline import (
    BenchmarkResult,
    ExperimentConfig,
    NoiseModel,
    benchmark,
    build_signal_covariance,
    calibrate_snr,
    denoise,
    denoise_with_diagnostics,
    make_test_signal,
    render_map,
    snr,
    synth_noise,
)
from .slepian import (
    PolarCap,
    SlepianResult,
    SphericalEllipse,
    concentration_kernel,
    slepian_window,
)
from .sphere import SphericalCoeffs, synthesize

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "DslshtRep",
    "ExperimentConfig",
    "FilterDiagnostics",
    "JointFilter",
    "NoiseModel",
    "PolarCap",
    "SlepianResult",
    "SpectralCovariance",
    "SphericalCoeffs",
    "SphericalEllipse",
    "apply_filter",
    "benchmark",
    "build_signal_covariance",
    "calibrate_snr",
    "concentration_kernel",
    "denoise",
    "denoise_with_diagnostics",
    "design_filter",
    "estimate_from_representation",
    "forward_dslsht",
    "make_test_signal",
    "render_map",
    "slepian_window",
    "snr",
    "synth_noise",
    "synthesize",
    "triple_product_rows",
]
