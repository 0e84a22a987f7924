"""Outputs pinned to the bit: ``verify --scope all`` stdout and two tables' digests.

``golden/verify_all.txt`` is ``bachsym verify --scope all`` stdout at the
standard parameter sets. ``golden/tables.txt`` holds one tab-separated line
per table: its --expr, --t-range and --S-range, then the SHA-256 of its
stdout and its trailer line. A change that moves a bit of these outputs
regenerates both files in the same commit, so that its diff shows what moved:

    PYTHONPATH=src python tests/test_golden.py

The bytes were made under CPython 3.10 to 3.13 on Linux x86_64 with glibc
2.36. Another libm may round a last bit differently, so on any other platform
the tests skip and say why; they are not widened into a tolerance.
"""

import contextlib
import hashlib
import io
import itertools
import platform
import sys
from pathlib import Path

import pytest

from bachelier_symmetries.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PLATFORM = ("linux", "x86_64", ("glibc", "2.36"))

pytestmark = pytest.mark.skipif(
    (sys.platform, platform.machine(), platform.libc_ver()) != PLATFORM,
    reason=f"the golden bytes were made on {PLATFORM}; another libm may round differently")


def stdout_of(*argv):
    """(exit code, stdout) of ``bachsym ARGV``, run in-process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def table_line(expr, t_range, S_range):
    """The tables.txt line of a table: its arguments, its stdout's SHA-256 and its trailer."""
    code, out = stdout_of("table", "--expr", expr, "--t-range", t_range, "--S-range", S_range)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return "\t".join((expr, t_range, S_range, digest, out.splitlines()[-1]))


def pinned_tables():
    """The lines of tables.txt, without its '#' comments."""
    lines = (GOLDEN / "tables.txt").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("#")]


def first_difference(new, old):
    """The first line, counted from 1, at which two texts differ, or None."""
    pairs = itertools.zip_longest(new.splitlines(keepends=True), old.splitlines(keepends=True))
    for number, (now, pinned) in enumerate(pairs, start=1):
        if now != pinned:
            return f"line {number}: now {now!r}, pinned {pinned!r}"
    return None


def test_verify_all_stdout_is_pinned():
    code, out = stdout_of("verify", "--scope", "all")
    pinned = (GOLDEN / "verify_all.txt").read_text(encoding="utf-8")
    difference = first_difference(out, pinned)
    assert difference is None, f"verify_all.txt, {difference}"
    assert code == 0


@pytest.mark.parametrize("line", pinned_tables(), ids=lambda line: line.split("\t")[0])
def test_table_digest_and_trailer_are_pinned(line):
    arguments, pinned = line.split("\t")[:3], line.split("\t")[3:]
    assert table_line(*arguments).split("\t")[3:] == pinned


if __name__ == "__main__":
    # rewrite both files from this tree's outputs; the tables keep their arguments
    code, out = stdout_of("verify", "--scope", "all")
    (GOLDEN / "verify_all.txt").write_text(out, encoding="utf-8")
    comments = [line for line in (GOLDEN / "tables.txt").read_text(encoding="utf-8").splitlines()
                if line.startswith("#")]
    rows = [table_line(*line.split("\t")[:3]) for line in pinned_tables()]
    (GOLDEN / "tables.txt").write_text("\n".join(comments + rows) + "\n", encoding="utf-8")
    sys.exit(code)
