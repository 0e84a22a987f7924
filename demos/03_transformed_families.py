"""Generating new solution families by transporting known ones.

Run with:  python demos/03_transformed_families.py

The pullback operation turns a known solution into a one-parameter family
of new ones. This script transports three seeds, checks the results against
independently hand-coded closed forms, verifies the new functions still
solve the PDE, and chains several group elements into a pipeline.
"""

from bachelier_symmetries import (
    ComboSolution,
    GridSpec,
    GroupElement,
    ModelParams,
    SolutionTerm,
    chain_function,
    g3_family_from_worked_combo,
    g4_family_from_linear,
    g5_family_from_gaussian_term,
    residual_scan,
    worked_combo,
)

params = ModelParams(r=0.05, sigma=0.2)
grid = GridSpec(t_range=(0.0, 1.0), S_range=(-2.0, 2.0), nt=11, nS=11)

cases = [
    ("C = S moved by G4", 4, ComboSolution(SolutionTerm(1, 0), params),
     g4_family_from_linear),
    ("C4[-2] moved by G5", 5, ComboSolution(SolutionTerm(4, -2), params),
     g5_family_from_gaussian_term),
    ("eight-term combo moved by G3", 3, ComboSolution(worked_combo(), params),
     g3_family_from_worked_combo),
]

print("Transported solutions against hand-coded closed forms")
print("(the closed forms are parametrised from the opposite composition side,")
print("so the pullback runs at -eps):\n")
for label, gi, seed, closed_form in cases:
    eps = 0.2
    moved = chain_function((GroupElement(gi, -eps),), seed, params)
    t, s = 0.4, 0.9
    a, b = closed_form(t, s, eps, params), moved(t, s)
    print(f"  {label}:")
    print(f"    closed form {a: .12f}   pullback {b: .12f}   gap {abs(a - b):.2e}")
    report = residual_scan(moved, grid, params, mode="fd")
    print(f"    residual of the new family over the grid: max {report.max_normalized:.2e}\n")

print("Pipelines compose transports left to right:")
pipeline = (GroupElement(2, 0.6), GroupElement(4, 0.2), GroupElement(6, -0.4))
chained = chain_function(pipeline, ComboSolution(worked_combo(), params), params)
print(f"  value of the chained family at (0.5, 1.0): {chained(0.5, 1.0):.10f}")
report = residual_scan(chained, grid, params, mode="fd")
print(f"  residual over the grid: max {report.max_normalized:.2e} "
      f"({report.failures} points outside the domain)")
