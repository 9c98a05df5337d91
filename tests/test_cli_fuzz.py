"""Random command lines through the CLI's own argv grammar, in-process.

Any argv ends in exit 0 or exit 2, never in a traceback.  Exit 2 writes
either one ``usage error:`` line or argparse's own message (the usage
line, then ``su2branch ...: error: ...``), and nothing on stdout.
``--order`` is drawn only up to 1000 or above ``cli.MAX_ORDER``, so no
case expands a long series, and never for ``verify``, which has no depth.
"""

import contextlib
import io
import os
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from su2branch.cli import MAX_ORDER, main
from su2branch.invariants import ORACLES

COMMANDS = ("table", "verify", "branch", "zpoly", "series", "orbits", "mckay", "group")

TYPES = ("A1", "A3", "D4", "E6", "E8", " e8 ", "d5", "A2", "A4", "D3", "E9", "F4", "x", "", "A-1")

#: Integer spellings int() accepts and rejects: signs, spaces, non-ASCII
#: digits, floats, hex, thousands separators.
INT_TEXT = ("-1", "0", "17", "+5", " 3 ", "1e3", "0x10", "3.0", "1,2,3", "", "abc", "١٧", "٣")

NODES = ("0", "1", "3", "9", "-1", "1,0", "2,0", "3,1", "a,b", "1,2,3", "", " 2 ")

OUTS = (os.devnull, os.curdir, os.path.join("no-such-directory", "out.txt"))

ARGPARSE_ERROR = re.compile(r"usage: su2branch.*\nsu2branch( \w+)?: error: .+\n", re.DOTALL)


def _orders():
    small = st.integers(min_value=-3, max_value=1000)
    large = st.integers(min_value=MAX_ORDER + 1, max_value=10**40)
    return st.one_of(small, large).map(str) | st.sampled_from(INT_TEXT)


def _levels():
    return st.one_of(st.integers(min_value=-3, max_value=10**40).map(str), st.sampled_from(INT_TEXT))


OPTIONS = {
    "--type": st.sampled_from(TYPES),
    "--n": _levels(),
    "--oracle": st.sampled_from((*ORACLES, "bogus", "")),
    "--node": st.sampled_from(NODES),
    "--order": _orders(),
    "--out": st.sampled_from(OUTS),
    "--all": st.none(),
    "--json": st.none(),
    "--help": st.none(),
    "--bogus": st.none(),
}


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from((*COMMANDS, "bogus")))]
    if draw(st.booleans()):  # mostly a type, so few cases run all 18
        argv += ["--type", draw(st.sampled_from(TYPES[:7]))]
    flags = sorted(set(OPTIONS) - {"--order"} if argv[0] == "verify" else OPTIONS)
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        value = draw(OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help (0) or its own error (2)
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_any_argv_exits_0_or_2_without_a_traceback(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 0:
        assert err == "", (argv, err)
    elif err.startswith("usage error: "):
        assert err.count("\n") == 1 and out == "", (argv, err)
    else:
        assert ARGPARSE_ERROR.fullmatch(err) and out == "", (argv, err)
