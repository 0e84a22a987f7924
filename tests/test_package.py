"""The package root offers one public name per operation."""

import bachelier_symmetries
from bachelier_symmetries import solutions, symmetry

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
