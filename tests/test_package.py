"""The package root offers one public name per operation."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bachelier_symmetries
from bachelier_symmetries import solutions, symmetry

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "bachelier_symmetries"

# the referee and the command line sit above these; they must not reach up
LOWER = ("errors", "kummer", "solutions", "symmetry", "spec_lang")
UPPER = {"pde_verify", "verification", "reference_forms", "cli"}

# the root's other names for chain_function and ComboSolution
ALIASES = ("eval_term", "eval_term_partials", "pullback", "pullback_chain", "transformed")


def test_root_surface():
    names = bachelier_symmetries.__all__
    assert len(names) == len(set(names)) == 26
    assert all(hasattr(bachelier_symmetries, name) for name in names)
    assert [name for name in ALIASES if hasattr(bachelier_symmetries, name)] == []


def test_module_surfaces_leave_out_the_aliases():
    for module in (solutions, symmetry):
        assert all(hasattr(module, name) for name in module.__all__)
        assert set(module.__all__).isdisjoint(ALIASES + ("fixed_surface_check",))


def test_cold_import_loads_no_re_enum_argparse_dataclasses_typing_or_inspect():
    # the value types are named tuples, the annotations come from
    # collections.abc, the command line reads its own flags and the
    # expression language its own numerals; the same one-liner is a step of
    # the python -S CI job
    guard = ("import bachelier_symmetries.cli, sys; "
             "loaded = {'re', 'enum', 'argparse', 'dataclasses', 'typing', 'inspect'} & set(sys.modules); "
             "sys.exit(f'loaded at import: {sorted(loaded)}' if loaded else 0)")
    proc = subprocess.run([sys.executable, "-S", "-c", guard], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _relative_imports(module):
    """Sibling modules named by the relative imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_referee_or_cli(module):
    # read from the source: the package root imports pde_verify and
    # reference_forms, so sys.modules cannot tell who imported them
    assert _relative_imports(module) & UPPER == set()
