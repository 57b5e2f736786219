"""Command-line interface: exit codes, JSON schema, determinism, caching."""

import json
import os

import pytest
from click.testing import CliRunner

from superdirac.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


BASE21 = ["--m", "2", "--n", "1", "--p", "1", "--q", "1"]


def test_root_data(runner):
    res = invoke(runner, ["root-data", *BASE21])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["schema"] == 1
    assert len(out["positive_even"]) == 1
    assert len(out["positive_odd"]) == 2
    assert len(out["odd_basis_table"]) == 2
    assert out["rho"] == "0,0|0"


def test_root_data_rejects_small_rank(runner):
    res = invoke(runner, ["root-data", "--m", "1", "--n", "1", "--p", "1", "--q", "0"])
    assert res.exit_code == 3


def test_inadmissible_weight_is_config_error(runner):
    res = invoke(
        runner,
        [
            "verify",
            "--m", "2", "--n", "2", "--p", "1", "--q", "1",
            "--weight", "1,0|1,0",  # nonzero central charge at m = n
            "--height", "2",
            "--suite", "square",
        ],
    )
    assert res.exit_code == 3


def test_verify_square_passes(runner):
    res = invoke(
        runner,
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "square"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["status"] == "pass"
    assert out["scalar_audit"]["all_matched"] is True


def test_verify_cohomology_trivial(runner):
    res = invoke(
        runner,
        ["verify", *BASE21, "--weight", "0,0|0", "--height", "3", "--suite", "cohomology"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["comparison"] == "oscillator-module-character"
    assert out["status"] == "pass"


def test_verify_cohomology_typical_certified(runner):
    res = invoke(
        runner,
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "3", "--suite", "cohomology"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["comparison"] == "even-simple-character"
    assert out["status"] == "pass"


def test_verify_cohomology_atypical_reports_honest_mismatch(runner):
    res = invoke(
        runner,
        ["verify", *BASE21, "--weight", "-1,0|0", "--height", "2", "--suite", "cohomology"],
    )
    assert res.exit_code == 2
    out = json.loads(res.output)
    assert out["status"] == "fail"
    assert "atypical" in out["note"]
    assert out["first_diff"] == "-3/2,3/2|-1"


def test_certify_refutation_is_a_valid_verdict(runner):
    res = invoke(
        runner,
        ["certify-unitarity", *BASE21, "--weight", "0,0|-1", "--height", "2"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verdict"] == "refuted-at"
    assert out["refuted_block"] == "0,1|-2"


def test_expect_unitarizable_flips_exit_code(runner):
    res = invoke(
        runner,
        [
            "certify-unitarity", *BASE21,
            "--weight", "0,0|-1", "--height", "2", "--expect-unitarizable",
        ],
    )
    assert res.exit_code == 1


def test_verify_suites_all_pass_on_certified_weight(runner):
    for suite in ("kostant", "character", "index", "filtration", "branching", "unitarity"):
        res = invoke(
            runner,
            ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", suite],
        )
        assert res.exit_code == 0, (suite, res.output)


def test_output_bytes_deterministic(runner, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        res = invoke(
            runner,
            [
                "verify", *BASE21,
                "--weight", "-2,1|1", "--height", "2", "--suite", "square",
                "--json-out", str(out),
            ],
        )
        assert res.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["root-data", *BASE21],
        ["decompose", "--m", "2", "--n", "2", "--p", "1", "--q", "1",
         "--weight", "-3,1|1,1", "--height", "2"],
        ["dirac-cohomology", *BASE21, "--weight", "-2,1|1", "--height", "2", "--kind", "verma"],
        ["certify-unitarity", *BASE21, "--weight", "0,0|-1", "--height", "2",
         "--expect-unitarizable"],
        ["character", *BASE21, "--weight", "-2,1|1", "--height", "2", "--kind", "even-simple"],
        ["index", *BASE21, "--weight", "-2,1|1", "--height", "2"],
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "square"],
    ],
    ids=["root-data", "decompose", "dirac-cohomology", "certify-unitarity", "character",
         "index", "verify"],
)
def test_cache_roundtrip(runner, tmp_path, args):
    cache = tmp_path / "cache"
    args = [*args, "--cache-dir", str(cache)]
    cold = invoke(runner, args)
    (entry,) = cache.glob("*.json")
    inode = entry.stat().st_ino
    warm = invoke(runner, args)
    assert (warm.exit_code, warm.output) == (cold.exit_code, cold.output)
    # a hit: a store would have replaced the entry by a new file
    assert entry.stat().st_ino == inode


def test_corrupted_cache_entry_recomputes(runner, tmp_path):
    cache = tmp_path / "cache"
    args = [
        "verify", *BASE21,
        "--weight", "-2,1|1", "--height", "2", "--suite", "square",
        "--cache-dir", str(cache),
    ]
    r1 = invoke(runner, args)
    for f in cache.glob("*.json"):
        f.write_text("{ not json")
    r2 = invoke(runner, args)
    assert r2.exit_code == 0
    assert r1.output == r2.output


def test_decompose_and_character_commands(runner):
    res = invoke(
        runner,
        ["decompose", *BASE21, "--weight", "-2,1|1", "--height", "2"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["schema"] == 1
    res2 = invoke(
        runner,
        ["character", *BASE21, "--weight", "-2,1|1", "--height", "2", "--kind", "verma"],
    )
    assert res2.exit_code == 0


def test_index_command(runner):
    res = invoke(
        runner,
        ["index", *BASE21, "--weight", "-2,1|1", "--height", "2"],
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["schema"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ["certify-unitarity", *BASE21, "--weight", "-2,1|1", "--height", "-1"],
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "-1", "--suite", "square"],
        ["certify-unitarity", *BASE21, "--weight", "1/0,1|1", "--height", "2"],
        # the parent of this path is a regular file, so it cannot be written
        ["root-data", *BASE21, "--json-out", os.path.join(__file__, "x.json")],
    ],
    ids=["negative-height-certify", "negative-height-verify", "zero-denominator",
         "unwritable-json-out"],
)
def test_bad_input_is_config_error(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 3
    assert "configuration error" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["dirac-cohomology", *BASE21, "--weight", "-2,1|1", "--height", "2", "--jobs", "1"],
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "abc", "--suite", "square"],
        ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "nope"],
        ["certify-unitarity", *BASE21, "--height", "2"],
    ],
    ids=["jobs", "height-abc", "suite-nope", "missing-weight"],
)
def test_usage_error_is_config_error(runner, args):
    # click's own code for a usage error is 2, which means a failed assertion here
    res = invoke(runner, args)
    assert res.exit_code == 3
    assert "Error:" in res.output


def test_help_exits_0(runner):
    assert invoke(runner, ["--help"]).exit_code == 0
    assert invoke(runner, ["verify", "--help"]).exit_code == 0


def _schema_only(stored: dict) -> dict:
    return {"schema": 1}


def _exit_code(value):
    return lambda stored: {**stored, "exit_code": value}


VERIFY_SQUARE = ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "square"]


@pytest.mark.parametrize(
    "args, corrupt",
    [
        (["certify-unitarity", *BASE21, "--weight", "0,0|-1", "--height", "2",
          "--expect-unitarizable"], _schema_only),
        (VERIFY_SQUARE, _schema_only),
        (["verify", *BASE21, "--weight", "0,0|-1", "--height", "2", "--suite", "unitarity",
          "--expect-unitarizable"], _schema_only),
        # branching fails here (exit 2), so a warm hit must exit 2 as well
        (["decompose", "--m", "2", "--n", "2", "--p", "1", "--q", "1",
          "--weight", "-3,1|1,1", "--height", "2"], _schema_only),
        # an exit code that is not one of the CLI's codes, or a bool, would
        # otherwise reach sys.exit and exit 1 on the warm hit
        (VERIFY_SQUARE, _exit_code("x")),
        (VERIFY_SQUARE, _exit_code(True)),
        (VERIFY_SQUARE, _exit_code(7)),
    ],
    ids=["certify", "verify-square", "verify-unitarity", "decompose-failing",
         "verify-exit-code-str", "verify-exit-code-bool", "verify-exit-code-7"],
)
def test_malformed_cache_entry_is_a_miss(runner, tmp_path, args, corrupt):
    cache = tmp_path / "cache"
    args = [*args, "--cache-dir", str(cache)]
    cold = invoke(runner, args)
    warm = invoke(runner, args)
    assert (warm.exit_code, warm.output) == (cold.exit_code, cold.output)
    (entry,) = cache.glob("*.json")
    bad = corrupt(json.loads(entry.read_text()))
    entry.write_text(json.dumps(bad))
    again = invoke(runner, args)
    assert (again.exit_code, again.output) == (cold.exit_code, cold.output)
    assert json.loads(entry.read_text()) != bad  # stored again


def test_cache_key_depends_on_package_sources(monkeypatch):
    from superdirac import cli

    parts = {"cmd": "root-data", "m": 2, "n": 1, "p": 1, "q": 1}
    before = cli.cache_key(parts)
    assert cli.cache_key(parts) == before
    assert len(cli._source_hash()) == 64
    monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
    assert cli.cache_key(parts) != before
