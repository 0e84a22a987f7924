"""Command-line surface: evaluate, tabulate, verify and transform solutions.

Subcommands
    eval       print an expression's value at one (t, S) point
    table      emit a CSV price surface over a rectangular grid; a point
               that raises a domain or range error gets an empty cell,
               counted in the trailing '# skipped=N' line
    verify     run a named check suite and print one PASS/FAIL line per check
    transform  append a group element to an expression and print it back

Exit codes: 0 success, 1 a verify check failed, 2 parse/semantic/usage
problems (an unwritable --out path and a non-finite --t, --S, --r or
--sigma too), 3 domain violations (groups 4/5 out of range), 4 a value
outside the float range (an exponent past the guard, a squared price or a
result that overflows). Standard output carries only data; diagnostics go
to standard error.

A --config file holds flat key=value lines ('#' starts a comment) whose
keys are the long flags. Config values fill in flags that were not given
on the command line; explicit flags always win. A flag's value may start
with '-'.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import DomainError, InvalidParameter, ParseError, RangeError, SemanticError, finite_real
from .pde_verify import GridSpec
from .solutions import ModelParams
from .spec_lang import SolutionExpr, expression_function, format_expr, parse_expr, parse_group_element
from .verification import DEFAULT_PARAMS, SCOPES, run_scope

__all__ = ["main"]


def real(text: str) -> float:
    """A finite real flag value; its name is the type that usage errors report."""
    return finite_real("value", float(text))


# Every long flag, once: its value type and help text. A config file takes
# the same keys, converted with the same types.
_FLAGS = {
    "r": (real, "continuously compounded rate"),
    "sigma": (real, "absolute volatility (> 0)"),
    "t": (real, "evaluation time"),
    "S": (real, "evaluation price"),
    "expr": (str, "expression text, e.g. '2*C1[0] | G4(0.5)'"),
    "t-range": (str, "time grid LO:HI:N"),
    "S-range": (str, "price grid LO:HI:N"),
    "out": (str, "write output to this path instead of stdout"),
    "scope": (str, f"which suite to run: {', '.join(SCOPES)} (default: all)"),
}


def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' comments and blank lines skipped."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidParameter(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _FLAGS:
                    raise InvalidParameter(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except OSError as err:
        raise InvalidParameter(f"cannot read config file {path}: {err}") from err
    return values


@functools.cache  # parsing never mutates the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bachsym",
        description="Evaluate, tabulate, verify and transform closed-form "
                    "solutions of the Bachelier pricing PDE.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, requires, others) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for key in requires + others:
            kind, flag_help = _FLAGS[key]
            p.add_argument(f"--{key}", type=kind, help=flag_help)
        if name == "transform":
            p.add_argument("group", help="group element to append, e.g. 'G6(0.2)'")
    return parser


def _merge_config(args: argparse.Namespace) -> None:
    """Fill flags given nowhere (None) from the config file, then check the required ones."""
    _, _, requires, others = _COMMANDS[args.command]
    if args.config is not None:
        for key, text in load_config(args.config).items():
            dest = key.replace("-", "_")
            if key not in requires + others or getattr(args, dest) is not None:
                continue
            kind = _FLAGS[key][0]
            try:
                setattr(args, dest, kind(text))
            except ValueError:
                raise InvalidParameter(f"config key {key}: invalid {kind.__name__} value {text!r}") from None
    for key in requires:
        if getattr(args, key.replace("-", "_")) is None:
            raise InvalidParameter(f"missing required value --{key}")


def _params(args) -> ModelParams:
    return ModelParams(DEFAULT_PARAMS.r if args.r is None else args.r,
                       DEFAULT_PARAMS.sigma if args.sigma is None else args.sigma)


def _emit(out_path, text: str):
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as err:
            raise InvalidParameter(f"cannot write {out_path}: {err}") from err


def _parse_axis(label: str, text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameter(f"--{label} must be LO:HI:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameter(f"--{label} must be LO:HI:N with numeric fields, got {text!r}")
    return lo, hi, count


def _cmd_eval(args) -> int:
    expr = parse_expr(args.expr)
    value = expression_function(expr, _params(args))(args.t, args.S)
    _emit(args.out, f"{value:.17g}\n")
    return 0


def _cmd_table(args) -> int:
    expr = parse_expr(args.expr)
    t_lo, t_hi, nt = _parse_axis("t-range", args.t_range)
    s_lo, s_hi, ns = _parse_axis("S-range", args.S_range)
    grid = GridSpec(t_range=(t_lo, t_hi), S_range=(s_lo, s_hi), nt=nt, nS=ns)
    f = expression_function(expr, _params(args))
    lines = ["t,S,C"]
    skipped = 0
    # a row's t and a column's S are formatted once; each cell adds its value
    columns = [(s, f",{s!r},") for s in grid.S_points()]
    for t in grid.t_points():
        t_text = repr(t)
        for s, s_text in columns:
            try:
                lines.append(f"{t_text}{s_text}{f(t, s)!r}")
            except (DomainError, RangeError):
                lines.append(t_text + s_text)
                skipped += 1
    lines.append(f"# skipped={skipped}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args) -> int:
    scope = args.scope if args.scope is not None else "all"
    params = _params(args) if args.r is not None or args.sigma is not None else None
    results = run_scope(scope, params)
    width = max(len(res.name) for res in results)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name:<{width}}  measured={res.measured:<12.3e} tol={res.tolerance:.1e}"
        if res.detail:
            line += f"  ({res.detail})"
        lines.append(line)
    passed = sum(res.passed for res in results)
    lines.append(f"# {passed}/{len(results)} checks passed")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


def _cmd_transform(args) -> int:
    expr = parse_expr(args.expr)
    element = parse_group_element(args.group)
    _emit(args.out, format_expr(SolutionExpr(expr.combo, expr.pipeline + (element,))) + "\n")
    return 0


_COMMON = ("r", "sigma", "out")

# subcommand: handler, help, the flags it requires, the other flags it takes
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression at one point", ("expr", "t", "S"), _COMMON),
    "table": (_cmd_table, "emit a CSV surface over a grid", ("expr", "t-range", "S-range"), _COMMON),
    "verify": (_cmd_verify, "run a check suite", (), ("scope",) + _COMMON),
    "transform": (_cmd_transform, "append a group element to an expression", ("expr",), _COMMON),
}


def _glue_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        # values routinely start with '-' (negative prices and coefficients
        # are the model's selling point); glue them to their flag so
        # argparse cannot mistake them for option names; a --config path too
        if token.startswith("--") and (token[2:] in _FLAGS or token == "--config") and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return _COMMANDS[args.command][0](args)
    except (ParseError, SemanticError, InvalidParameter) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except RangeError as err:
        print(f"range error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
