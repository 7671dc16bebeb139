"""The package's public surface: what `tailrho` exports, every name the
benchmark harness imports from it, and what importing the command line loads.

The harness in perfbench/ imports its tailrho names at module load in every
mode, so a name dropped from the package would fail every benchmark workload;
this check fails in the test suite first.
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tailrho

PUBLIC = {
    "AsymptoticReport",
    "CellSummary",
    "DegenerateBiasError",
    "ExperimentConfig",
    "FgmModel",
    "MseExpansion",
    "PseudoSample",
    "QuadratureError",
    "TailRhoResult",
    "TailWeights",
    "TiesError",
    "asymptotic_report",
    "bias_coeff",
    "degree_sweep",
    "jitter_margin",
    "mse_expansions",
    "normalized_tail_integral",
    "normalizer",
    "optimal_degree",
    "pseudo_observations",
    "rho_hat_bernstein",
    "rho_hat_empirical",
    "rule_of_thumb_degree",
    "run_cell",
    "run_table",
    "tail_weights",
    "var_gain",
}

MODULES = ["tailrho"] + [
    f"tailrho.{info.name}"
    for info in pkgutil.iter_modules(tailrho.__path__)
    if info.name != "__main__"
]

PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def test_package_exports_pinned():
    assert sorted(tailrho.__all__) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def tailrho_imports(path):
    """(module, name) for every import of tailrho in a file, read without
    running it; name is None for a plain `import tailrho.x`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tailrho":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "tailrho")


def test_benchmark_imports_resolve():
    imports = {path.name: list(tailrho_imports(path)) for path in PERFBENCH}
    assert imports["layers.py"]  # the parse found the harness's import block
    for file, found in imports.items():
        for module, name in found:
            mod = importlib.import_module(module)
            assert name is None or hasattr(mod, name), f"{file}: {module}.{name}"


def test_cli_import_leaves_scipy_out():
    """scipy is a test-only dependency: the command line never loads it.  Nor
    does it load the process pool's modules before a job needs a pool."""
    unloaded = ("scipy", "concurrent.futures.process", "multiprocessing")
    code = f"import sys, tailrho.cli; print([m in sys.modules for m in {unloaded!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"
