"""The certified-grid conformance table: every `verify` suite on a fixed grid
of weights, its exit code and the certification verdict, against a committed
table. Each exit 2 on a certified weight names the ROADMAP item that
explains it, and the test checks the payload shows that reason. A fix
shows as a changed row."""

import pytest

from superdirac import cli
from superdirac.weights import build_root_datum, parse_weight

SL21, SL22, SL23, GL33 = (2, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 2, 1)
C, R = "certified-up-to-N", "refuted-at"

# (group, N, weight) -> (certification verdict, exit codes in `cli.SUITES`
# order: square, cohomology, kostant, character, index, filtration,
# branching, unitarity); an AssertionError exits 2, as in `cli._serve`
SL21_ROWS = {
    "-3,0|-3": (R, "00000020"), "-3,0|-2": (R, "00000020"), "-3,0|-1": (R, "00000020"),
    "-3,0|0": (C, "02000000"), "-3,0|1": (C, "00000000"),
    "-2,0|-3": (R, "00000020"), "-2,0|-2": (R, "00000020"), "-2,0|-1": (R, "00000020"),
    "-2,0|0": (C, "02000000"), "-2,0|1": (C, "00000000"),
    "-1,0|-3": (R, "00000020"), "-1,0|-2": (R, "00000020"), "-1,0|-1": (R, "00000020"),
    "-1,0|0": (C, "02000000"), "-1,0|1": (C, "02000000"),
    "0,0|-3": (R, "00000020"), "0,0|-2": (R, "00000020"), "0,0|-1": (R, "00000020"),
    "0,0|0": (C, "00000000"), "0,0|1": (R, "00000020"),
    **{f"1,0|{c}": (R, "20222020") for c in range(-3, 2)},
    **{f"2,0|{c}": (R, "20222020") for c in range(-3, 2)},
    "3,0|-3": (R, "20222020"), "3,0|-2": (R, "20000020"), "3,0|-1": (R, "20000020"),
    "3,0|0": (R, "20222020"), "3,0|1": (R, "20000020"),
}
TABLE = {
    **{(SL21, 4, w): row for w, row in SL21_ROWS.items()},
    (SL22, 2, "-3,1|1,1"): (C, "00000020"),
    (SL23, 2, "-3,0|1,1,1"): (C, "00000020"),
    (SL23, 2, "-3,0|1,1,0"): (C, "02020020"),
    (GL33, 4, "-2,-2,1|1,1,1"): (C, "02020020"),
    (GL33, 3, "-3,0,0|1,1,1"): (R, "00020020"),
}

# the ROADMAP item behind each exit 2 on a certified weight: (a) `branching`
# beyond sl(2|1), (b) `cohomology` on atypical weights, (c) the `character`
# suite's Kostant variant
ROADMAP_ITEMS = {
    (SL21, 4, "-3,0|0", "cohomology"): "2(b)",
    (SL21, 4, "-2,0|0", "cohomology"): "2(b)",
    (SL21, 4, "-1,0|0", "cohomology"): "2(b)",
    (SL21, 4, "-1,0|1", "cohomology"): "2(b)",
    (SL22, 2, "-3,1|1,1", "branching"): "2(a)",
    (SL23, 2, "-3,0|1,1,1", "branching"): "2(a)",
    (SL23, 2, "-3,0|1,1,0", "cohomology"): "2(b)",
    (SL23, 2, "-3,0|1,1,0", "character"): "2(c)",
    (SL23, 2, "-3,0|1,1,0", "branching"): "2(a)",
    (GL33, 4, "-2,-2,1|1,1,1", "cohomology"): "2(b)",
    (GL33, 4, "-2,-2,1|1,1,1", "character"): "2(c)",
    (GL33, 4, "-2,-2,1|1,1,1", "branching"): "2(a)",
}


def _shows_reason(item, payload):
    """Does the payload of an exit 2 show its ROADMAP item's reason?"""
    if item == "2(a)":
        return payload.get("status") == "fail" and "first_diff" in payload
    if item == "2(b)":
        return payload.get("comparison") == "even-simple-character" and "note" in payload
    return payload.get("kostant_variant") is False and payload.get("dirac_index_variant") is True


@pytest.mark.parametrize("key", list(TABLE), ids=lambda k: f"{k[2]}-N{k[1]}")
def test_every_suite_exits_as_the_conformance_table_says(key):
    group, height, weight = key
    datum = build_root_datum(*group)
    lam = parse_weight(weight, datum.m, datum.n)
    codes, verdicts, reasons = "", set(), {}
    for suite in cli.SUITES:
        try:
            payload, code = cli._run_suite(datum, lam, height, suite)
        except AssertionError:
            payload, code = {}, cli.EXIT_ASSERTION
        codes += str(code)
        verdicts |= {payload[f] for f in ("verdict", "certification") if f in payload}
        if (*key, suite) in ROADMAP_ITEMS:
            reasons[suite] = _shows_reason(ROADMAP_ITEMS[(*key, suite)], payload)
    verdict, expected = TABLE[key]
    assert (verdicts, codes) == ({verdict}, expected)
    failing = {s for s, c in zip(cli.SUITES, codes) if c == str(cli.EXIT_ASSERTION)}
    assert set(reasons) == (failing if verdict == C else set())
    assert all(reasons.values()), reasons
