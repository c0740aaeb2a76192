"""The package's public surface: only what the denoiser and its checks use."""

import importlib
import pkgutil

import so3filter

# Rotation-group reference code; the tests import it from ``so3_reference``.
REFERENCE_ONLY = (
    "Rotation",
    "WignerCoeffs",
    "dslsht_direct",
    "psi_coeffs",
    "rotate_coeffs",
    "so3_inner",
    "so3_norm_sq",
    "so3_synthesize",
    "wigner_D",
    "wigner_d_matrix",
    "wigner_d_stack",
)


def test_public_names_resolve_and_exclude_reference_code():
    for name in so3filter.__all__:
        assert getattr(so3filter, name, None) is not None, name
    assert not set(REFERENCE_ONLY) & set(so3filter.__all__)
    modules = [so3filter] + [
        importlib.import_module(f"so3filter.{info.name}")
        for info in pkgutil.iter_modules(so3filter.__path__)
    ]
    assert "so3filter.so3" not in {m.__name__ for m in modules}
    for module in modules:
        for name in REFERENCE_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
