"""The per-point pipeline walk, as a test oracle for the composed records of ``symmetry``.

Each group is written here as a record read at a point (t, S):

    (t', S', k, dt'/dt, A, dS'/dt, k_t, k_S, k_SS)

the image point, the log C-factor k and the first-order data of the
prolongation. ``walk`` carries a point back through a pipeline stage by
stage at -eps, and ``walk_partials`` applies the chain rule once per stage.
The package composes t-only coefficients into one record instead; these
per-point forms share no code with it.
"""

import math

from bachelier_symmetries.errors import DomainError
from bachelier_symmetries.solutions import safe_exp


def _g1(t, S, eps, params):
    return (t + eps, S, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def _g2(t, S, eps, params):
    drift = eps * safe_exp(params.r * t)
    return (t, S + drift, 0.0, 1.0, 1.0, params.r * drift, 0.0, 0.0, 0.0)


def _g3(t, S, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    shift = eps * safe_exp(-r * t)
    return (t, S + shift, -r * shift * (shift + 2.0 * S) / sigma2, 1.0, 1.0, -r * shift,
            2.0 * r * r * shift * (shift + S) / sigma2, -2.0 * r * shift / sigma2, 0.0)


def _g4(t, S, eps, params):
    r, sigma2 = params.r, params.sigma * params.sigma
    grow = safe_exp(2.0 * r * t)
    w = grow + eps
    if w <= 0.0:
        raise DomainError(
            f"G4 needs e^(2rt) + eps > 0; got {w:.6g} at t = {t!r}, eps = {eps!r}")
    log_w = math.log(w)
    A = safe_exp(r * t) / math.sqrt(w)
    k_S = 2.0 * r * eps * S / sigma2 / w
    return (log_w / (2.0 * r), A * S, log_w - 2.0 * r * t + 0.5 * k_S * S,
            grow / w, A, A * S * r * eps / w,
            -2.0 * r * eps / w - k_S * r * S * grow / w, k_S, 2.0 * r * eps / sigma2 / w)


def _g5(t, S, eps, params):
    r = params.r
    shrink = safe_exp(-2.0 * r * t)
    v = shrink + eps
    if v <= 0.0:
        raise DomainError(
            f"G5 needs e^(-2rt) + eps > 0; got {v:.6g} at t = {t!r}, eps = {eps!r}")
    log_v = math.log(v)
    A = safe_exp(-r * t) / math.sqrt(v)
    return (-log_v / (2.0 * r), A * S, -r * t - 0.5 * log_v,
            shrink / v, A, -A * S * r * eps / v, -r * eps / v, 0.0, 0.0)


def _g6(t, S, eps, params):
    return (t, S, eps, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


RECORDS = (_g1, _g2, _g3, _g4, _g5, _g6)


def walk(stages, t, S, params):
    """The pre-image of (t, S), the summed log factor K and the stage records, last stage first.

    Identity stages are skipped; a DomainError carries the failing stage's
    zero-based index and the message prefix "pipeline stage i: ".
    """
    log_factor = 0.0
    records = []
    for idx in range(len(stages) - 1, -1, -1):
        g = stages[idx]
        if g.epsilon == 0.0:
            continue
        try:
            record = RECORDS[g.gen_index - 1](t, S, -g.epsilon, params)
        except DomainError as err:
            raise DomainError(f"pipeline stage {idx}: no pre-image under "
                              f"G{g.gen_index}({g.epsilon!r}): {err}", stage=idx) from err
        t, S = record[0], record[1]
        log_factor += record[2]
        records.append(record)
    return t, S, log_factor, records


def walk_partials(stages, base, t, S, params):
    """(C, C_t, C_S, C_SS) of ``base`` transported through the pipeline, and K.

    The base's partials at the pre-image are carried through each stage by
    the chain rule on its record, then scaled by e^{-K}.
    """
    t0, S0, log_factor, records = walk(stages, t, S, params)
    c, c_t, c_s, c_ss = base.partials(t0, S0)
    for _, _, _, d_t, A, d_s, k_t, k_S, k_SS in reversed(records):
        c_t, c_s, c_ss = (
            d_t * c_t + d_s * c_s - k_t * c,
            A * c_s - k_S * c,
            A * A * c_ss - 2.0 * k_S * A * c_s + (k_S * k_S - k_SS) * c,
        )
    E = safe_exp(-log_factor)
    return (E * c, E * c_t, E * c_s, E * c_ss), log_factor
