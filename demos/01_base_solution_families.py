"""Tour of the four base solution families.

Run with:  python demos/01_base_solution_families.py

The pricing PDE  r S C_S + (sigma^2/2) C_SS + C_t - r C = 0  has four
families of closed-form solutions indexed by a class q in {1..4} and an
order n in {0, -2, -4, ...}. This script evaluates a few members, shows
their exact partial derivatives, and lets the residual scanner certify
that every member really solves the equation, in a negative-rate regime
too.
"""

from bachelier_symmetries import (
    ComboSolution,
    GridSpec,
    ModelParams,
    SolutionTerm,
    residual_scan,
)

params = ModelParams(r=0.05, sigma=0.2)
print(f"Market parameters: r = {params.r}, sigma = {params.sigma}\n")

print("A few family members at (t, S) = (0.5, 1.2):")
for q, n, note in [
    (1, 0, "the price itself"),
    (2, 0, "pure discounting carrier"),
    (1, -2, "price times a quadratic"),
    (4, -2, "Gaussian-damped quadratic"),
    (3, -6, "higher-order member"),
]:
    value = ComboSolution(SolutionTerm(q, n), params)(0.5, 1.2)
    print(f"  C{q}[{n:>2}] = {value: .10f}   ({note})")

print("\nExact partial derivatives are available in closed form:")
c, c_t, c_s, c_ss = ComboSolution(SolutionTerm(4, -2), params).partials(0.5, 1.2)
print(f"  C4[-2]: C = {c:.8f}, C_t = {c_t:.8f}, C_S = {c_s:.8f}, C_SS = {c_ss:.8f}")

grid = GridSpec(t_range=(0.0, 1.0), S_range=(-2.0, 2.0), nt=21, nS=21)
print("\nResidual scan over a 21 x 21 grid (negative prices included):")
for regime in (params, ModelParams(r=-0.03, sigma=0.2)):
    worst = 0.0
    for q in (1, 2, 3, 4):
        for n in (0, -2, -4, -6, -8):
            report = residual_scan(ComboSolution(SolutionTerm(q, n), regime), grid, regime)
            worst = max(worst, report.max_normalized)
    print(f"  r = {regime.r:+.2f}: worst normalised residual over all 20 members = {worst:.3e}")

print("\nEvery member satisfies the PDE to near machine precision.")
