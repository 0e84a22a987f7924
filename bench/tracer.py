"""Per-layer counts and self time, measured from outside the package.

The tracer rebinds the module attributes through which the package calls
itself, including names that ``from ... import`` copied into another module
(``safe_exp`` in ``symmetry``, ``kummer_truncated`` in ``solutions`` and
``verification``, ``residual_scan``/``transformed`` in ``verification``,
``chain_function`` in ``spec_lang``), and restores every one on exit.

Each wrapper opens a span on a stack: its self time is its duration minus
the durations of the spans it caused, and it is added to the layer that
owns the wrapped function. Counts and times are accumulated as the calls
happen; no span is stored, because a suite run makes about 18 million.
Calls inside one layer that are not wrapped count as that layer's self
time, which is what makes a layer's self time the cost of its own code.
"""

from __future__ import annotations

import time

from bachelier_symmetries import (
    cli,
    kummer,
    pde_verify,
    reference_forms,
    solutions,
    spec_lang,
    symmetry,
    verification,
)
from bachelier_symmetries.errors import DomainError

LAYERS = ("kummer", "solutions", "symmetry", "pde_verify", "verification",
          "spec_lang", "reference_forms", "cli")

# verification suite spans, reported as inclusive wall time per suite
SUITES = {
    "base_family_residuals": "theorem1", "superposition_residual": "theorem1",
    "transform_closure": "theorem2",
    "group_laws": "groups", "generator_tangency": "groups",
    "reference_reproductions": "examples", "invariance_flags": "examples",
    "kummer_identities": "kummer",
    "dsl_roundtrip": "dsl",
}

# (namespace, attribute, layer, counter); a namespace is a module or class
# whose attribute the package looks up at call time
BINDINGS = [
    (solutions, "kummer_truncated", "kummer", "kummer.calls"),
    (solutions, "kummer_truncated_du", "kummer", "kummer.calls"),
    (solutions, "kummer_truncated_d2u", "kummer", "kummer.calls"),
    (verification, "kummer_truncated", "kummer", "kummer.calls"),
    (verification, "kummer_truncated_du", "kummer", "kummer.calls"),
    (verification, "pochhammer", "kummer", "kummer.calls"),
    (solutions, "eval_term", "solutions", "solutions.term_evals"),
    (solutions, "eval_term_partials", "solutions", "solutions.partials_evals"),
    (symmetry, "eval_term_partials", "solutions", "solutions.partials_evals"),
    (solutions, "safe_exp", "solutions", "solutions.safe_exp_calls"),
    (symmetry, "safe_exp", "solutions", "solutions.safe_exp_calls"),
    (solutions.ComboSolution, "__call__", "solutions", None),
    (solutions.ComboSolution, "partials", "solutions", None),
    (symmetry, "forward_map", "symmetry", "symmetry.forward_calls"),
    (verification, "forward_map", "symmetry", "symmetry.forward_calls"),
    (symmetry, "inverse_point_map", "symmetry", "symmetry.inverse_calls"),
    (symmetry, "pullback", "symmetry", "symmetry.pullbacks"),
    (symmetry, "pullback_chain", "symmetry", "symmetry.pullbacks"),
    (verification, "transformed", "symmetry", None),
    (spec_lang, "chain_function", "symmetry", None),
    (verification, "generator_eval", "symmetry", None),
    (verification, "surface_defect", "symmetry", None),
    (verification, "fixed_surface_check", "symmetry", None),
    (verification, "residual_scan", "pde_verify", None),
    (pde_verify, "residual_scan", "pde_verify", None),
    (pde_verify, "residual_fd", "pde_verify", "pde_verify.fd_residuals"),
    (verification, "run_scope", "verification", None),
    (cli, "run_scope", "verification", None),
    (cli, "parse_expr", "spec_lang", "spec_lang.parses"),
    (verification, "parse_expr", "spec_lang", "spec_lang.parses"),
    (cli, "parse_group_element", "spec_lang", "spec_lang.parses"),
    (cli, "format_expr", "spec_lang", None),
    (verification, "format_expr", "spec_lang", None),
    (cli, "expression_function", "spec_lang", None),
    (reference_forms, "worked_combo", "reference_forms", "reference_forms.calls"),
    (reference_forms, "g4_family_from_linear", "reference_forms", "reference_forms.calls"),
    (reference_forms, "g5_family_from_gaussian_term", "reference_forms", "reference_forms.calls"),
    (reference_forms, "g3_family_from_worked_combo", "reference_forms", "reference_forms.calls"),
    (cli, "main", "cli", None),
] + [(verification, name, "verification", None) for name in SUITES]

# coefficients one Horner sweep evaluates, relative to the degree m
HORNER_OFFSET = {kummer.kummer_truncated: 1, kummer.kummer_truncated_du: 0,
                 kummer.kummer_truncated_d2u: -1}

COUNTERS = ("kummer.calls", "kummer.horner_terms", "solutions.term_evals",
            "solutions.partials_evals", "solutions.safe_exp_calls",
            "symmetry.forward_calls", "symmetry.inverse_calls", "symmetry.pullbacks",
            "symmetry.domain_errors", "pde_verify.fd_residuals", "pde_verify.fd_evals",
            "spec_lang.parses", "reference_forms.calls")


class Tracer:
    """Context manager that installs the wrappers and collects the totals."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.suite_s = dict.fromkeys(sorted(set(SUITES.values())), 0.0)
        self.scans = []  # (points visited, points skipped, max normalised residual)
        self._stack = [0.0]
        self._saved = []

    def __enter__(self):
        for namespace, attr, layer, counter in BINDINGS:
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(original, attr, layer, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)
        return False

    def _wrap(self, fn, attr, layer, counter):
        stack, counts, self_s, suite_s = self._stack, self.counts, self.self_s, self.suite_s
        clock = time.perf_counter
        suite = SUITES.get(attr) if layer == "verification" else None
        horner = HORNER_OFFSET.get(fn)
        domain_counted = attr in ("forward_map", "inverse_point_map")
        is_fd = attr == "residual_fd"
        scans = self.scans if attr == "residual_scan" else None

        def wrapper(*args, **kwargs):
            if horner is not None and args[0] + horner > 0:
                counts["kummer.horner_terms"] += args[0] + horner
            if is_fd:
                f = args[0]

                def counted(t, S):
                    counts["pde_verify.fd_evals"] += 1
                    return f(t, S)

                args = (counted,) + args[1:]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except DomainError:
                if domain_counted:
                    counts["symmetry.domain_errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if counter is not None:
                    counts[counter] += 1
                if suite is not None:
                    suite_s[suite] += elapsed
            if scans is not None:
                scans.append((result.evaluated + result.failures, result.failures,
                              result.max_normalized))
            return result

        return wrapper

    def metrics(self):
        """Per-layer figures of everything traced so far, by metric name."""
        counts = dict(self.counts)
        fd_evals = counts.pop("pde_verify.fd_evals")
        fd_residuals = counts["pde_verify.fd_residuals"]
        points = sum(scan[0] for scan in self.scans)
        out = {name: (value, "count") for name, value in counts.items()}
        out.update((f"{layer}.self_s", (seconds, "s")) for layer, seconds in self.self_s.items())
        out.update((f"verification.{suite}_s", (seconds, "s"))
                   for suite, seconds in self.suite_s.items())
        out["pde_verify.scan_points"] = (points, "count")
        out["pde_verify.evals_per_residual"] = (
            fd_evals / fd_residuals if fd_residuals else 0.0, "ratio")
        out["pde_verify.skip_ratio"] = (
            sum(scan[1] for scan in self.scans) / points if points else 0.0, "ratio")
        out["pde_verify.max_residual"] = (
            max((scan[2] for scan in self.scans), default=0.0), "ratio")
        return dict(sorted(out.items()))
