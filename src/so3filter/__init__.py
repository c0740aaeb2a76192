"""Joint rotation-group/spectral filtering of bandlimited signals on the sphere.

The package analyses a noisy sphere signal with a directional spatially
localized spherical harmonic transform, applies the spectral-covariance MMSE
filter in the joint domain, and recovers a least-squares estimate of the
source signal.  Slepian concentration windows, exact-quadrature spherical
harmonic transforms and Wigner-3j coupling machinery are included, along
with a benchmark harness and CLI.
"""

from .coupling import (
    nonzero_n_range,
    triple_product,
    triple_product_rows,
    wigner3j,
    wigner3j_family,
)
from .dslsht import DslshtRep, forward_dslsht
from .estimator import estimate_from_representation
from .filtering import (
    FilterDiagnostics,
    JointFilter,
    SpectralCovariance,
    apply_filter,
    design_filter,
    normal_matrix,
    normal_rhs,
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
from .sphere import (
    SphereGrid,
    SphericalCoeffs,
    degree_and_order,
    eval_ylm,
    flat_index,
    forward_sht,
    inverse_sht,
    synthesize,
)

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
    "SphereGrid",
    "SphericalCoeffs",
    "SphericalEllipse",
    "apply_filter",
    "benchmark",
    "build_signal_covariance",
    "calibrate_snr",
    "concentration_kernel",
    "degree_and_order",
    "denoise",
    "denoise_with_diagnostics",
    "design_filter",
    "estimate_from_representation",
    "eval_ylm",
    "flat_index",
    "forward_dslsht",
    "forward_sht",
    "inverse_sht",
    "make_test_signal",
    "nonzero_n_range",
    "normal_matrix",
    "normal_rhs",
    "render_map",
    "slepian_window",
    "snr",
    "synth_noise",
    "synthesize",
    "triple_product",
    "triple_product_rows",
    "wigner3j",
    "wigner3j_family",
]
