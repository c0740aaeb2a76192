"""The package's public surface: only what the denoiser and its checks use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import so3filter

# Reference code the tests import from ``so3_reference`` (the rotation
# group), ``sphere_reference`` (grid transforms and the flat index) and
# ``coupling_reference`` (scalar 3j symbols, triple products and full-size
# normal equations).  ``SphericalCoeffs.unit`` is ``sphere_reference.unit_coeffs``.
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
    "SphereGrid",
    "degree_and_order",
    "eval_ylm",
    "flat_index",
    "forward_sht",
    "inverse_sht",
    "_single_family",
    "nonzero_n_range",
    "triple_product",
    "wigner3j",
    "wigner3j_family",
    "_full_normal",
    "normal_matrix",
    "normal_rhs",
)

# The benchmark's correctness check imports its names from here.
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# The materialised filter-then-recover map; the streaming denoise and the
# representation chain share one recovery kernel instead.
DELETED = ("RecoveryMatrix", "estimate", "recovery_matrix")


def _modules():
    return [so3filter] + [
        importlib.import_module(f"so3filter.{info.name}")
        for info in pkgutil.iter_modules(so3filter.__path__)
    ]


def test_public_names_resolve_and_exclude_reference_code():
    for name in so3filter.__all__:
        assert getattr(so3filter, name, None) is not None, name
    assert not set(REFERENCE_ONLY) & set(so3filter.__all__)
    modules = _modules()
    assert "so3filter.so3" not in {m.__name__ for m in modules}
    for module in modules:
        for name in REFERENCE_ONLY:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(so3filter.SphericalCoeffs, "unit")


def test_deleted_names_stay_deleted():
    assert not set(DELETED) & set(so3filter.__all__)
    for module in _modules():
        for name in DELETED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never mentions, by a scan of its syntax tree."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_use_every_name_they_import():
    # ``__init__`` imports to re-export, so it is left out.
    modules = sorted(Path(so3filter.__file__).parent.glob("*.py"))
    unused = {p.name: unused_imports(p) for p in modules if p.name != "__init__.py"}
    assert not {name: names for name, names in unused.items() if names}


def test_every_public_name_serves_the_package_or_the_benchmark():
    # A name only the tests call belongs in a test oracle, not in ``__all__``.
    modules = Path(so3filter.__file__).parent.glob("*.py")
    used = set()
    for path in modules:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "so3filter":
            used.update(a.name for a in node.names)
    assert sorted(set(so3filter.__all__) - used) == []
