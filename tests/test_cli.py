"""Command line: outputs, exit codes, config precedence, determinism."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bachelier_symmetries.cli import _COMMANDS, _FLAGS, main
from bachelier_symmetries.errors import InvalidParameter
from bachelier_symmetries.reference_forms import g4_family_from_linear
from bachelier_symmetries.solutions import ModelParams
from bachelier_symmetries.verification import run_scope
from test_golden import SAME_PLATFORM, pinned_difference

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_price_identity(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "C1[0]", "--t", "0.7", "--S", "1.25")
        assert code == 0 and err == ""
        assert out == "1.25\n"

    def test_carrier_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "C2[0]", "--r", "0.05",
                           "--t", "2", "--S", "-3.7")
        assert code == 0
        assert out == f"{math.exp(0.1):.17g}\n"

    def test_negative_price_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "C1[0]", "--t", "0", "--S", "-1.5")
        assert code == 0 and out == "-1.5\n"

    def test_negative_leading_coefficient(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "-2*C1[0]", "--t", "0", "--S", "1")
        assert code == 0 and err == ""
        assert out == "-2\n"

    def test_pipeline_matches_hand_coded_family(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "C1[0] | G4(0.5)",
                           "--r", "0.05", "--sigma", "0.2", "--t", "0", "--S", "1")
        assert code == 0
        expected = g4_family_from_linear(0.0, 1.0, -0.5, ModelParams(0.05, 0.2))
        assert float(out) == pytest.approx(expected, rel=1e-14)

    def test_missing_point_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "C1[0]", "--t", "0.5")
        assert code == 2 and "missing" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "C1[", "--t", "0", "--S", "1")
        assert code == 2 and "expected" in err

    def test_semantic_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "C1[0] | G7(0.1)", "--t", "0", "--S", "1")
        assert code == 2 and "group index" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "C1[0] | G4(2.0)", "--t", "0", "--S", "1")
        assert code == 3 and "pre-image" in err

    def test_overflow_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "C2[0]", "--t", "1e9", "--S", "0")
        assert code == 4 and "range" in err.lower()

    def test_stacked_stage_overflow_exit(self, capsys):
        # each G6(400) stage passes the exponent guard; their summed log
        # factor does not
        code, out, err = run(capsys, "eval", "--expr", "C1[0] | G6(400) | G6(400)",
                             "--t", "0", "--S", "1")
        assert code == 4 and out == ""
        assert err.startswith("range error:") and "exceeds the +/-700 guard" in err
        # the summed factor e^-800 fails the guard as well, not a silent 0
        code, out, err = run(capsys, "eval", "--expr", "C1[0] | G6(-400) | G6(-400)",
                             "--t", "0", "--S", "1")
        assert code == 4 and out == "" and "exceeds the +/-700 guard" in err
        # a factor within the guard that overflows with the base's weight
        code, out, err = run(capsys, "eval", "--expr", "1e300*C1[0] | G6(100)",
                             "--t", "0", "--S", "1")
        assert code == 4 and out == ""
        assert err.startswith("range error:") and "not finite" in err

    def test_base_failure_through_a_pipeline_names_the_point(self, capsys):
        # the base overflows at its pre-image S0 = -1e200, not at the S asked for
        code, out, err = run(capsys, "eval", "--expr", "C1[0] | G2(1e200)", "--t", "0", "--S", "1")
        assert (code, out) == (4, "")
        assert err == ("range error: result at (t, S) = (0.0, 1.0): the base fails at its "
                       "pre-image: (S / sigma)^2 overflows at S = -1e+200\n")

    def test_cancelling_stage_factors_exit(self, capsys):
        # the pipeline composes to the identity, whatever its stages' factors
        code, out, err = run(capsys, "eval", "--expr",
                             "C1[0] | G6(400) | G6(400) | G6(-400) | G6(-400)",
                             "--t", "0", "--S", "1")
        assert code == 0 and out == "1\n" and err == ""

    def test_group4_record_with_an_underflowing_product_exit(self, capsys):
        # sigma^2 * w underflows to 0 in the G4 record; the pre-image is a
        # range error, not a ZeroDivisionError traceback
        code, out, err = run(capsys, "eval", "--expr", "C1[0] | G4(0.9999)", "--sigma", "1e-160",
                             "--t", "0", "--S", "1")
        assert code == 4 and out == "" and err.startswith("range error:")

    def test_non_finite_combination_exit(self, capsys):
        # the term's exponent (695) passes the guard, the weighted value is inf
        code, out, err = run(capsys, "eval", "--expr", "1e10*C2[0]", "--t", "13900", "--S", "0")
        assert code == 4 and out == ""
        assert err.startswith("range error:") and "not finite" in err

    def test_finite_sum_past_an_intermediate_overflow(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "1e300*C1[0] + 1e300*C1[0] - 1e300*C1[0]",
                             "--t", "0", "--S", "1e8")
        assert code == 0 and err == ""
        assert out == "1e+308\n"

    def test_sum_outside_float_range_exit(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "1e308*C1[0] + 1e308*C1[0]",
                             "--t", "0", "--S", "1")
        assert code == 4 and out == ""
        assert err.startswith("range error:") and "not finite" in err

    @pytest.mark.parametrize("flag, value", [("--t", "nan"), ("--S", "inf"), ("--S", "1e400"),
                                             ("--r", "nan"), ("--sigma", "-inf")])
    def test_non_finite_value_is_usage_error(self, capsys, flag, value):
        point = {"--t": "0", "--S": "1", flag: value}
        code, out, err = run(capsys, "eval", "--expr", "C1[0]", *sum(point.items(), ()))
        assert code == 2 and out == ""
        assert err == f"error: {flag}: invalid real value '{value}'\n"

    def test_order_past_the_degree_envelope_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "C1[-2000000000]", "--t", "0", "--S", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: offset 3: order must be even in [-100, 0]")

    def test_very_long_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--expr", "C1[" + "2" * 5000 + "]", "--t", "0", "--S", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: offset 3: order must be even in [-100, 0]")
        assert err.count("\n") == 1

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x.txt"
        code, out, err = run(capsys, "eval", "--expr", "C1[0]", "--t", "0", "--S", "1",
                             "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
        assert not target.parent.exists()


class TestTable:
    def test_two_by_two(self, capsys):
        code, out, _ = run(capsys, "table", "--expr", "C1[0]",
                           "--t-range", "0:1:2", "--S-range", "-1:1:2")
        assert code == 0
        assert out.splitlines() == [
            "t,S,C",
            "0.0,-1.0,-1.0",
            "0.0,1.0,1.0",
            "1.0,-1.0,-1.0",
            "1.0,1.0,1.0",
            "# skipped=0",
        ]

    def test_price_column_echoes_grid(self, capsys):
        code, out, _ = run(capsys, "table", "--expr", "C1[0]",
                           "--t-range", "0:1:3", "--S-range", "-2:2:5")
        rows = [line.split(",") for line in out.splitlines()[1:-1]]
        assert all(row[1] == row[2] for row in rows)

    def test_deterministic_output(self, capsys):
        args = ("table", "--expr", "3*C4[-4] + C2[-2] | G5(0.2)",
                "--t-range", "0:1:4", "--S-range", "-2:2:4")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_domain_failures_leave_empty_cells(self, capsys):
        # group 4 with eps past e^{2rt} on the first row of the grid
        code, out, _ = run(capsys, "table", "--expr", "C1[0] | G4(1.05)",
                           "--t-range", "0:1:2", "--S-range", "-1:1:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "# skipped=3"
        empties = [line for line in lines[1:-1] if line.endswith(",")]
        assert len(empties) == 3
        assert all(line.startswith("0.0,") for line in empties)
        filled = [line for line in lines[1:-1] if not line.endswith(",")]
        assert len(filled) == 3 and all(line.startswith("1.0,") for line in filled)

    @pytest.mark.parametrize("expr, skipped", [
        ("-1.5*C1[-2] | G4(1.05)", 912),
        ("-1.5*C3[-2] | G4(1.05)", 914),
    ])
    def test_range_failures_leave_empty_cells(self, capsys, expr, skipped):
        # near the G4 domain boundary some points raise RangeError (an
        # exponent past the guard) besides the DomainError points; both
        # leave an empty cell and neither aborts the table
        code, out, _ = run(capsys, "table", "--expr", expr,
                           "--t-range", "0:1:41", "--S-range", "-3:3:41")
        assert code == 0
        lines = out.splitlines()
        rows = lines[1:-1]
        assert lines[0] == "t,S,C" and len(rows) == 41 * 41
        empties = sum(line.endswith(",") for line in rows)
        assert lines[-1] == f"# skipped={empties}" and empties == skipped

    def test_squared_price_overflow_leaves_empty_cells(self, capsys):
        # (S / sigma)^2 overflows for S = 5e159 and 1e160, not for 1e150
        code, out, _ = run(capsys, "table", "--expr", "C1[0]",
                           "--t-range", "0:1:2", "--S-range", "1e150:1e160:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "# skipped=4"
        assert [line.endswith(",") for line in lines[1:-1]] == [False, True, True] * 2

    def test_bad_range_spec(self, capsys):
        code, _, err = run(capsys, "table", "--expr", "C1[0]",
                           "--t-range", "0:1", "--S-range", "-1:1:2")
        assert (code, err) == (2, "error: --t-range: invalid axis value '0:1'\n")

    @pytest.mark.parametrize("t_range, reason", [
        ("0:1:1", "N must be an integer in [2, inf], got 1"),
        ("1:0:3", "LO:HI must have LO < HI and a finite width, got 1.0:0.0"),
    ])
    def test_axis_rule_names_the_flag(self, capsys, t_range, reason):
        code, out, err = run(capsys, "table", "--expr", "C1[0]",
                             "--t-range", t_range, "--S-range", "-1:1:2")
        assert (code, out, err) == (2, "", f"error: --t-range: {reason}\n")

    def test_non_numeric_range_field(self, capsys):
        code, _, err = run(capsys, "table", "--expr", "C1[0]",
                           "--t-range", "0:x:2", "--S-range", "-1:1:2")
        assert (code, err) == (2, "error: --t-range: invalid axis value '0:x:2'\n")

    @pytest.mark.parametrize("axes", [("-1e308:1e308:3", "0:1:2"), ("0:1:2", "-1e308:1e308:3")])
    def test_overflowing_grid_width_is_usage_error(self, capsys, axes):
        code, out, err = run(capsys, "table", "--expr", "C1[0]",
                             "--t-range", axes[0], "--S-range", axes[1])
        assert code == 2 and out == "" and "finite width" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "surface.csv"
        code, out, _ = run(capsys, "table", "--expr", "C1[0]", "--t-range", "0:1:2",
                           "--S-range", "-1:1:2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("t,S,C\n")


class TestVerify:
    def test_groups_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "groups")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("# ") and "checks passed" in lines[-1]

    def test_examples_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "examples")
        assert code == 0 and "reproduce_G4_on_C1[0]" in out

    def test_unknown_scope_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--scope", "everything")
        assert code == 2
        for scope in (["all"], None):  # not a name, so no lookup may raise TypeError
            with pytest.raises(InvalidParameter, match="unknown scope"):
                run_scope(scope)

    def test_explicit_params_are_used(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "theorem1", "--r", "0.07")
        assert code == 0
        assert "r=0.07" in out and "r=-0.03" not in out

    def test_overflowing_rate_fails_every_closure_row(self, capsys):
        # every scan point overflows and scores a NaN residual, so every
        # row prints and fails instead of one RangeError ending the run
        code, out, _ = run(capsys, "verify", "--scope", "theorem2", "--r", "1e300")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 13 and lines[-1] == "# 0/12 checks passed"
        assert all(line.startswith("FAIL") and "measured=nan" in line for line in lines[:-1])

    def test_overflowing_rate_fails_every_oracle_row(self, capsys):
        # every sample of the reproduction and surface oracles overflows and
        # is measured as NaN, so all six rows print and fail
        code, out, _ = run(capsys, "verify", "--scope", "examples", "--r", "1e300")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 7 and lines[-1] == "# 0/6 checks passed"
        assert all(line.startswith("FAIL") and "measured=nan" in line for line in lines[:-1])

    def test_oracle_overflow_fails_its_row(self, capsys):
        # at r = 200 the G5 and G3 hand-coded families overflow on some
        # samples; those rows fail with NaN and the run still prints all six
        code, out, _ = run(capsys, "verify", "--scope", "examples", "--r", "200")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 7 and lines[-1].endswith("/6 checks passed")
        assert "FAIL reproduce_G5_on_C4[-2]  measured=nan" in out

    @pytest.mark.parametrize("rate", ["1e300", "6", "200"])
    def test_overflowing_rate_prints_every_row_of_the_referee(self, capsys, rate):
        # one parameter set: 21 theorem1 rows, then 12 + 13 + 6 + 4 + 2; at
        # r = 6 the G4/G5 tangency steps also leave their domains
        code, out, _ = run(capsys, "verify", "--scope", "all", "--r", rate)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 59 and lines[-1].endswith("/58 checks passed")
        if SAME_PLATFORM:  # the golden bytes' platform; elsewhere only the counts above
            difference = pinned_difference(f"verify_all_r{rate}.txt", out)
            assert difference is None, difference


class TestTransform:
    def test_appends_element(self, capsys):
        code, out, _ = run(capsys, "transform", "--expr", "C1[0]", "G6(0.2)")
        assert code == 0 and out == "1*C1[0] | G6(0.2)\n"

    def test_preserves_existing_pipeline(self, capsys):
        code, out, _ = run(capsys, "transform", "--expr", "2*C1[0] | G1(0.5)", "G6(0.2)")
        assert code == 0 and out == "2*C1[0] | G1(0.5) | G6(0.2)\n"

    def test_negative_leading_coefficient(self, capsys):
        code, out, _ = run(capsys, "transform", "--expr", "-2*C1[0]", "G6(0.2)")
        assert code == 0 and out == "-2*C1[0] | G6(0.2)\n"

    def test_bad_group_index(self, capsys):
        code, _, err = run(capsys, "transform", "--expr", "C1[0]", "G7(0.1)")
        assert code == 2 and "group index" in err

    def test_order_past_the_kummer_bound(self, capsys):
        code, out, err = run(capsys, "transform", "--expr", "C1[-200]", "G1(0.1)")
        assert code == 2 and out == "" and "-200" in err


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# pricing setup\nr=0.1\nexpr=C2[0]\nt=1\nS=0\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert float(out) == pytest.approx(math.exp(0.1), rel=1e-15)

    def test_command_line_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=0.1\nexpr=C2[0]\nt=1\nS=0\n")
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--r", "0.05")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(0.05), rel=1e-15)

    def test_line_without_equals_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=0.1\nexpr C2[0]\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and ":2: expected key=value" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rate=0.1\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and "unknown config key" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2 and "cannot read" in err

    def test_undecodable_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"r=0.1\n\xff\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg), "--expr", "C1[0]", "--t", "0", "--S", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1

    def test_config_path_may_start_with_a_dash(self, capsys, tmp_path, monkeypatch):
        # a relative path: a value that starts with '-' is still the flag's value
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-cfg.txt").write_text("r=0.05\n")
        code, out, err = run(capsys, "eval", "--config", "-cfg.txt", "--expr", "C1[0]",
                             "--t", "0", "--S", "1")
        assert (code, out, err) == (0, "1\n", "")

    def test_config_rate_replaces_standard_sets_in_verify(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=0.07\n")
        code, out, _ = run(capsys, "verify", "--scope", "theorem1", "--config", str(cfg))
        assert code == 0
        assert "r=0.07" in out and "r=-0.03" not in out

    # one file for every subcommand; each ignores the keys it does not take
    SHARED = ("r=0.1\nt=1\nS=0\nexpr=C2[0]\nt-range=0:1:2\nS-range=-1:1:2\n"
              "scope=groups\n")

    @pytest.mark.parametrize("command, flags", [
        ("eval", ("--expr", "C2[0]", "--r", "0.1", "--t", "1", "--S", "0")),
        ("table", ("--expr", "C2[0]", "--r", "0.1", "--t-range", "0:1:2", "--S-range", "-1:1:2")),
        ("verify", ("--scope", "groups", "--r", "0.1")),
    ])
    def test_shared_config_matches_flags(self, capsys, tmp_path, command, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.SHARED)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 0 and err == ""
        assert (code, out) == run(capsys, command, *flags)[:2]

    def test_bad_number_names_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=abc\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg),
                           "--expr", "C1[0]", "--t", "0", "--S", "1")
        assert code == 2 and re.search(r"\br\b", err) and "'abc'" in err

    def test_flag_overrides_a_bad_config_value(self, capsys, tmp_path):
        # a config line for a key given on the command line is never converted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r=abc\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg), "--r", "0.05",
                             "--expr", "C2[0]", "--t", "1", "--S", "0")
        assert (code, err) == (0, "") and float(out) == math.exp(0.05)

    def test_non_finite_number_names_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expr=C1[0]\nt=0\nS=nan\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: config key S: invalid real value 'nan'\n"

    def test_bad_axis_names_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("expr=C1[0]\nt-range=0:1\nS-range=-1:1:2\n")
        code, out, err = run(capsys, "table", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: config key t-range: invalid axis value '0:1'\n"

    @pytest.mark.parametrize("S_range, reason", [
        ("-1:1:1", "N must be an integer in [2, inf], got 1"),
        ("1:-1:3", "LO:HI must have LO < HI and a finite width, got 1.0:-1.0"),
    ])
    def test_axis_rule_names_config_key(self, capsys, tmp_path, S_range, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"expr=C1[0]\nt-range=0:1:2\nS-range={S_range}\n")
        code, out, err = run(capsys, "table", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: config key S-range: {reason}\n")

    def test_unknown_scope_lists_scopes(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scope=everything\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "'everything'" in err
        assert all(scope in err for scope in ("theorem1", "theorem2", "groups", "examples", "all"))


class TestArguments:
    def test_glued_values_and_the_last_of_a_repeated_flag(self, capsys):
        code, out, err = run(capsys, "eval", "--expr=-2*C1[0]", "--t=0", "--S", "7", "--S=-1.5")
        assert (code, out, err) == (0, "3\n", "")

    @pytest.mark.parametrize("argv, named", [
        # flags are exact names: no prefix abbreviations
        (("eval", "--expr", "C1[0]", "--t", "0", "--S", "1", "--sig", "0.3"), "--sig"),
        (("eval", "--expr", "C1[0]", "--t", "0", "--S"), "--S expects a value"),
        (("eval", "--expr", "C1[0]", "--t", "0", "--S", "1", "stray"), "'stray'"),
        (("transform", "--expr", "C1[0]"), "one group element"),
        ((), "eval, table, verify, transform"),
        (("evaluate", "--expr", "C1[0]"), "'evaluate'"),
    ], ids=["abbreviation", "no-value", "stray-positional", "no-group", "no-subcommand",
            "unknown-subcommand"])
    def test_usage_errors(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and named in err

    def test_top_level_help_lists_the_subcommands(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == ""
        assert all(f"  {command} " in out for command in _COMMANDS)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_lists_the_table_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    _, _, requires, others = _COMMANDS[command]
    for key in _FLAGS:
        assert (f"--{key} " in out) == (key in requires + others), key
    assert "--config " in out


def test_one_parser_serves_separate_calls(capsys):
    # C2[0] = e^{rt}: a flag given to one call must not carry over to the next
    _, with_rate, _ = run(capsys, "eval", "--expr", "C2[0]", "--r", "0.07", "--t", "1", "--S", "0")
    code, table, _ = run(capsys, "table", "--expr", "C2[0]",
                         "--t-range", "1:2:2", "--S-range", "0:1:2")
    _, default_rate, _ = run(capsys, "eval", "--expr", "C2[0]", "--t", "1", "--S", "0")
    assert float(with_rate) == math.exp(0.07)
    assert code == 0 and table.splitlines()[1] == f"1.0,0.0,{math.exp(0.05)!r}"
    assert float(default_rate) == math.exp(0.05)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bachelier_symmetries", "eval",
         "--expr", "C1[0]", "--t", "0", "--S", "2.5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0
    assert proc.stdout == "2.5\n"
