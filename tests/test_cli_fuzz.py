"""Generated command lines over sl(2|1) and sl(2|2), well-formed and not.

Every run must end by ``sys.exit`` with one of the CLI's codes {0, 1, 2, 3},
never with a traceback, and every malformed command line (a usage error
such as an unknown option or a bad or missing value, or a configuration
error such as a negative height or an unwritable ``--json-out``) must exit 3.
"""

import os

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from superdirac.cli import main

WEIGHTS = {
    "1": ["-2,1|1", "0,0|-1", "-1,0|0", "0,0|0"],
    "2": ["-3,1|1,1", "0,0|0,0"],
}
MALFORMED_WEIGHTS = ["1/0,1|1", "a,b|c", "1,2", "", "1,0|1,0,0", None]  # None: omitted
PQ = [[], ["--p", "1", "--q", "1"], ["--p", "1"], ["--p", "2"], ["--q", "2"]]
BAD_PQ = [["--p", "x"], ["--p", "5"], ["--p", "1", "--q", "0"]]
BAD_HEIGHTS = [["--height", "-1"], ["--height", "abc"], ["--height", "1.5"], ["--height"]]
KINDS = {
    "dirac-cohomology": ["simple", "verma"],
    "index": ["simple", "verma"],
    "character": ["simple", "verma", "even-simple", "even-verma"],
}
SUITES = ["square", "cohomology", "kostant", "character", "index", "filtration",
          "branching", "unitarity"]
COMMANDS = ["root-data", "decompose", "dirac-cohomology", "certify-unitarity", "character",
            "index", "verify"]
UNKNOWN = [["--jobs", "1"], ["--bogus"], ["--jobs"]]
# a path whose parent is a regular file, so it can never be written
UNWRITABLE = os.path.join(os.path.abspath(__file__), "x.json")


def _pick(draw, good, bad, one_in):
    """A draw from ``good`` or, one time in ``one_in``, from ``bad``;
    returns the choice and whether it is bad."""
    if draw(st.integers(1, one_in)) == 1:
        return draw(st.sampled_from(bad)), True
    return draw(st.sampled_from(good)), False


@st.composite
def command_lines(draw):
    """An argv list and whether it is malformed (and so must exit 3)."""
    cmd, bad = _pick(draw, COMMANDS, ["nope"], 12)
    n = draw(st.sampled_from(["1", "2"]))
    pq, bad_pq = _pick(draw, PQ, BAD_PQ, 10)
    argv = [cmd, "--m", "2", "--n", n, *pq]
    bad |= bad_pq
    if cmd not in ("root-data", "nope"):
        other = WEIGHTS["2" if n == "1" else "1"]
        weight, bad_weight = _pick(draw, WEIGHTS[n], MALFORMED_WEIGHTS + other, 8)
        height, bad_height = _pick(draw, ["0", "1"], BAD_HEIGHTS, 8)
        argv += [] if weight is None else [f"--weight={weight}"]
        argv += height if bad_height else ["--height", height]
        bad |= bad_weight or bad_height
        if cmd in KINDS and draw(st.booleans()):
            kind, bad_kind = _pick(draw, KINDS[cmd], ["nope"], 8)
            argv += ["--kind", kind]
            bad |= bad_kind
        if cmd == "verify":
            suite, bad_suite = _pick(draw, SUITES, ["nope", None], 10)
            argv += [] if suite is None else ["--suite", suite]
            bad |= bad_suite
        if cmd in ("certify-unitarity", "verify") and draw(st.booleans()):
            argv.append("--expect-unitarizable")
    if draw(st.integers(1, 10)) == 1:
        argv[draw(st.integers(0, len(argv))):0] = draw(st.sampled_from(UNKNOWN))
        bad = True
    if draw(st.integers(1, 10)) == 1:
        argv += ["--json-out", UNWRITABLE]
        bad = True
    return argv, bad


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_cli_exits_with_a_documented_code(case):
    argv, bad = case
    res = CliRunner().invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        argv, res.exception)
    assert res.exit_code in (0, 1, 2, 3), (argv, res.output)
    if bad:
        assert res.exit_code == 3, (argv, res.output)
