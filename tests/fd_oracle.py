"""A finite-difference oracle for the tests, independent of any exact derivative."""

from bachelier_symmetries.pde_verify import default_step


def derivative_richardson(func, x):
    """d/dx func at x: central difference at step default_step(x), one Richardson step."""
    h = default_step(x)
    coarse = (func(x + h) - func(x - h)) / (2.0 * h)
    fine = (func(x + 0.5 * h) - func(x - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0
