"""The package's public surface: only what the denoiser and its checks use."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
