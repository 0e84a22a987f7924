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

Flags are exact long names: --key VALUE or --key=VALUE, whatever the value
starts with. -h or --help prints the subcommands, or after a subcommand its
flags. A --config file holds flat key=value lines ('#' starts a comment)
whose keys are the long flags. Config values fill in flags that were not
given on the command line; explicit flags always win. One rule converts a
flag's value and a config value alike: its type in _FLAGS.
"""

from __future__ import annotations

import sys

from .errors import DomainError, InvalidParameter, ParseError, RangeError, SemanticError, integer
from .pde_verify import GridSpec
from .solutions import ModelParams
from .spec_lang import SolutionExpr, expression_function, format_expr, parse_expr, parse_group_element
from .verification import DEFAULT_PARAMS, SCOPES, run_scope

__all__ = ["main"]


def real(text: str) -> float:
    """A finite real flag value; its name is the type that usage errors report."""
    value = float(text)
    if abs(value) <= sys.float_info.max:  # a nan fails too
        return value
    raise ValueError(text)


def axis(text: str) -> tuple[float, float, int]:
    """A grid axis flag value LO:HI:N with LO < HI, a finite width and N >= 2.

    The form's errors are reported by its type name, like every flag's; a
    well-formed axis that breaks this rule raises InvalidParameter saying why.
    """
    lo, hi, count = text.split(":")
    lo, hi = float(lo), float(hi)
    if not (lo < hi and hi - lo <= sys.float_info.max):  # a nan end fails too
        raise InvalidParameter(f"LO:HI must have LO < HI and a finite width, got {lo!r}:{hi!r}")
    return lo, hi, integer("N", int(count), lo=2)


# Every long flag, once: its value type and help text. A config file takes
# the same keys, converted with the same types.
_FLAGS = {
    "r": (real, "continuously compounded rate"),
    "sigma": (real, "absolute volatility (> 0)"),
    "t": (real, "evaluation time"),
    "S": (real, "evaluation price"),
    "expr": (str, "expression text, e.g. '2*C1[0] | G4(0.5)'"),
    "t-range": (axis, "time grid LO:HI:N"),
    "S-range": (axis, "price grid LO:HI:N"),
    "out": (str, "write output to this path instead of stdout"),
    "scope": (str, f"which suite to run: {', '.join(SCOPES)} (default: all)"),
}


def load_config(path: str) -> dict[str, str]:
    """Read a flat key=value config file in UTF-8; '#' comments and blank lines skipped."""
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
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidParameter(f"cannot read config file {path}: {err}") from err
    return values


def _help(command: str | None) -> str:
    """The subcommands, or one subcommand's flags with the required ones marked."""
    if command is None:
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, _, requires, others = _COMMANDS[command]
        rows = [(f"--{key} VALUE", _FLAGS[key][1] + " (required)" * (key in requires))
                for key in requires + others] + [("--config PATH", "key=value config file")]
        rows += [("GROUP", "group element to append, e.g. 'G6(0.2)'")] * (command == "transform")
    group = " GROUP" * (command == "transform")
    return (f"usage: bachsym {command or 'SUBCOMMAND'} [--key VALUE ...]{group}\n\n"
            + "".join(f"  {a:<16} {b}\n" for a, b in rows))


def _read(argv: list[str]):
    """(subcommand, values) from argv and its --config file; values is None for help.

    A flag's text is its last on the command line, else its config line's,
    and is converted once, by its _FLAGS type; a flag given nowhere is None.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None, None
    if command not in _COMMANDS:
        raise InvalidParameter(f"expected a subcommand ({', '.join(_COMMANDS)}), got {argv[:1]}")
    _, _, requires, others = _COMMANDS[command]
    takes = requires + others
    texts, positional, tokens = {}, [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        if not token.startswith("--"):
            positional.append(token)
            continue
        key, glued, text = token[2:].partition("=")
        if key not in takes + ("config",):
            raise InvalidParameter(f"{command} takes no flag --{key}")
        if not glued and (text := next(tokens, None)) is None:
            raise InvalidParameter(f"--{key} expects a value")
        texts[key] = (f"--{key}", text)
    if len(positional) != (command == "transform"):
        wanted = "one group element" if command == "transform" else "no positional argument"
        raise InvalidParameter(f"{command} takes {wanted}, got {positional}")
    config = load_config(texts.pop("config")[1]) if "config" in texts else {}
    texts = {key: (f"config key {key}", text) for key, text in config.items() if key in takes} | texts
    values = dict(dict.fromkeys(takes), group=positional[0] if positional else None)
    for key, (label, text) in texts.items():
        kind = _FLAGS[key][0]
        try:
            values[key] = kind(text)
        except InvalidParameter as err:
            raise InvalidParameter(f"{label}: {err}") from None
        except ValueError:
            raise InvalidParameter(f"{label}: invalid {kind.__name__} value {text!r}") from None
    for key in requires:
        if values[key] is None:
            raise InvalidParameter(f"missing required value --{key}")
    return command, values


def _params(values) -> ModelParams:
    return ModelParams(DEFAULT_PARAMS.r if values["r"] is None else values["r"],
                       DEFAULT_PARAMS.sigma if values["sigma"] is None else values["sigma"])


def _emit(out_path, text: str):
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as err:
            raise InvalidParameter(f"cannot write {out_path}: {err}") from err


def _cmd_eval(values) -> int:
    expr = parse_expr(values["expr"])
    value = expression_function(expr, _params(values))(values["t"], values["S"])
    _emit(values["out"], f"{value:.17g}\n")
    return 0


def _cmd_table(values) -> int:
    expr = parse_expr(values["expr"])
    (t_lo, t_hi, nt), (s_lo, s_hi, ns) = values["t-range"], values["S-range"]
    grid = GridSpec(t_range=(t_lo, t_hi), S_range=(s_lo, s_hi), nt=nt, nS=ns)
    f = expression_function(expr, _params(values))
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
    _emit(values["out"], "\n".join(lines) + "\n")
    return 0


def _cmd_verify(values) -> int:
    scope = values["scope"] if values["scope"] is not None else "all"
    params = _params(values) if values["r"] is not None or values["sigma"] is not None else None
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
    _emit(values["out"], "\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


def _cmd_transform(values) -> int:
    expr = parse_expr(values["expr"])
    element = parse_group_element(values["group"])
    _emit(values["out"], format_expr(SolutionExpr(expr.combo, expr.pipeline + (element,))) + "\n")
    return 0


_COMMON = ("r", "sigma", "out")

# subcommand: handler, help, the flags it requires, the other flags it takes
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate an expression at one point", ("expr", "t", "S"), _COMMON),
    "table": (_cmd_table, "emit a CSV surface over a grid", ("expr", "t-range", "S-range"), _COMMON),
    "verify": (_cmd_verify, "run a check suite", (), ("scope",) + _COMMON),
    "transform": (_cmd_transform, "append a group element to an expression", ("expr",), _COMMON),
}


def main(argv=None) -> int:
    try:
        command, values = _read(sys.argv[1:] if argv is None else list(argv))
        if values is None:
            sys.stdout.write(_help(command))
            return 0
        return _COMMANDS[command][0](values)
    except (ParseError, SemanticError, InvalidParameter) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except RangeError as err:
        print(f"range error: {err}", file=sys.stderr)
        return 4

