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
    # the entry is compact JSON of the payload that stdout prints indented
    text = entry.read_text()
    assert "\n" not in text and text == json.dumps(json.loads(text))
    emitted = json.loads(cold.output)
    assert {k: v for k, v in emitted.items() if k not in ("schema", "engine")} == json.loads(text)
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


def _field(key, value):
    return lambda stored: {**stored, key: value}


def _drop(key):
    return lambda stored: {k: v for k, v in stored.items() if k != key}


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
        (VERIFY_SQUARE, _field("exit_code", "x")),
        (VERIFY_SQUARE, _field("exit_code", True)),
        (VERIFY_SQUARE, _field("exit_code", 7)),
        # a field an exit code is read from, with the wrong type: the string
        # "false" is truthy, and a non-string verdict is never "certified"
        (["decompose", "--m", "2", "--n", "2", "--p", "1", "--q", "1",
          "--weight", "-3,1|1,1", "--height", "2"], _field("character_verified", "false")),
        (["certify-unitarity", *BASE21, "--weight", "-2,1|1", "--height", "2",
          "--expect-unitarizable"], _field("verdict", ["certified-up-to-N"])),
        (["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "square",
          "--expect-unitarizable"], _field("certification", 1)),
        # a Dirac suite's entry must hold the certification the flag reads
        (["verify", *BASE21, "--weight", "0,0|-1", "--height", "2", "--suite", "index",
          "--expect-unitarizable"], _drop("certification")),
    ],
    ids=["certify", "verify-square", "verify-unitarity", "decompose-failing",
         "verify-exit-code-str", "verify-exit-code-bool", "verify-exit-code-7",
         "decompose-verified-str", "certify-verdict-list", "verify-certification-int",
         "verify-certification-missing"],
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


def test_a_failed_cache_store_leaves_no_temporary_file(runner, tmp_path, capsys):
    """With the entry's path taken by a directory, `os.replace` fails: the
    store warns on stderr and removes its temporary file, directly and under
    a command, whose exit code and output are those of a run with no cache."""
    from superdirac import cli

    cache = tmp_path / "cache"
    (cache / "k.json").mkdir(parents=True)
    cli.cache_store(str(cache), "k", {"schema": 1})
    assert "warning: cache unwritable" in capsys.readouterr().err
    assert sorted(p.name for p in cache.iterdir()) == ["k.json"]

    args = ["verify", *BASE21, "--weight", "-2,1|1", "--height", "2", "--suite", "square"]
    plain = invoke(runner, args)
    stored = tmp_path / "stored"
    invoke(runner, [*args, "--cache-dir", str(stored)])
    (entry,) = stored.glob("*.json")
    entry.unlink()
    entry.mkdir()
    res = invoke(runner, [*args, "--cache-dir", str(stored)])
    assert res.exit_code == plain.exit_code == 0 and res.stdout == plain.stdout
    assert res.stderr.startswith("warning: cache unwritable (")
    assert sorted(p.name for p in stored.iterdir()) == [entry.name]


def test_cache_key_depends_on_package_sources(monkeypatch):
    from superdirac import cli

    parts = {"cmd": "root-data", "m": 2, "n": 1, "p": 1, "q": 1}
    before = cli.cache_key(parts)
    assert cli.cache_key(parts) == before
    assert len(cli._source_hash()) == 64
    monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
    assert cli.cache_key(parts) != before


@pytest.mark.parametrize(
    "suite, weight, code",
    [
        ("unitarity", "0,0|-1", 1),  # reads "verdict"
        ("square", "0,0|-1", 1),  # the Dirac suites read "certification"
        ("kostant", "0,0|-1", 1),
        ("square", "-2,1|1", 0),
        ("filtration", "0,0|-1", 3),  # no verdict: the flag is a config error
        ("branching", "-2,1|1", 3),
    ],
)
def test_verify_expect_unitarizable(runner, tmp_path, suite, weight, code):
    args = ["verify", *BASE21, "--weight", weight, "--height", "2", "--suite", suite,
            "--cache-dir", str(tmp_path / "cache")]
    cold = invoke(runner, [*args, "--expect-unitarizable"])
    assert cold.exit_code == code
    plain = invoke(runner, args)  # stores the entry when the cold run did not
    assert plain.exit_code in (0, 2)
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    warm = invoke(runner, [*args, "--expect-unitarizable"])
    assert (warm.exit_code, warm.output) == (cold.exit_code, cold.output)
    if code == 3:
        assert "configuration error" in warm.output
    else:
        assert json.loads(warm.output) == json.loads(plain.output)


def test_kostant_suite_builds_the_kostant_report_once(runner, monkeypatch):
    """The suite's own Kostant report is the one the injection check reads."""
    from superdirac import analysis

    calls = []
    original = analysis.kostant_cohomology

    def counted(coll):
        calls.append(coll)
        return original(coll)

    monkeypatch.setattr(analysis, "kostant_cohomology", counted)
    weights = ("-2,1|1", "0,0|-1")
    for weight in weights:
        res = invoke(
            runner,
            ["verify", *BASE21, "--weight", weight, "--height", "2", "--suite", "kostant"],
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["injection"] is True
    assert len(calls) == len(weights)


def test_a_map_that_does_not_commute_with_D_exits_2(runner, monkeypatch):
    """With one entry of D doubled on the first block where D is nonzero,
    some X_D no longer commutes with D: `verify --suite square` exits 2 on
    the commutation assertion and prints no payload."""
    from dataclasses import replace

    from superdirac import dirac
    from superdirac.exactla import SparseRationalMatrix

    real = dirac.assemble_block
    spoiled = []

    def spoiling(module, base, drop, osc, basis):
        block = real(module, base, drop, osc, basis)
        if block.D.entries and not spoiled:
            spoiled.append(block.nu)
            key = min(block.D.entries)
            entries = {**block.D.entries, key: 2 * block.D.entries[key]}
            block = replace(block, D=SparseRationalMatrix(block.dim, block.dim, entries))
        return block

    monkeypatch.setattr(dirac, "assemble_block", spoiling)
    res = invoke(
        runner, ["verify", *BASE21, "--weight", "-2,1|1", "--height", "4", "--suite", "square"]
    )
    assert res.exit_code == 2 and spoiled
    assert res.stdout == ""
    assert res.stderr.startswith("assertion failure: X_D does not commute with D at nu=")


@pytest.mark.parametrize(
    "command",
    [["dirac-cohomology"], ["verify", "--suite", "character"]],
    ids=["dirac-cohomology", "character"],
)
def test_a_compact_map_that_does_not_commute_with_D_exits_2(runner, monkeypatch, command):
    """With one entry of every nonzero compact raising map X_D doubled,
    the k-type tables of H_D (`dirac-cohomology`, and the dirac-index
    variant of the `character` suite) exit 2 on the commutation assertion
    and print no payload, instead of a table read through maps that do not
    commute with D. On sl(2|2) -3,1|1,1 at N=4 the first such map leaves a
    block with classes."""
    from superdirac import dirac, modules
    from superdirac.exactla import SparseRationalMatrix

    real = dirac.diagonal_action_matrix
    spoiled = []

    def spoiling(src, tgt, g):
        x = real(src, tgt, g)
        if x.entries and g in modules.generators(src.module.alg, +1, "compact"):
            spoiled.append(src.nu.text())
            key = min(x.entries)
            x = SparseRationalMatrix(x.rows, x.cols, {**x.entries, key: 2 * x.entries[key]})
        return x

    monkeypatch.setattr(dirac, "diagonal_action_matrix", spoiling)
    sl22 = ["--m", "2", "--n", "2", "--p", "1", "--q", "1"]
    res = invoke(runner, [*command, *sl22, "--weight=-3,1|1,1", "--height", "4"])
    assert res.exit_code == 2 and spoiled
    assert res.stdout == ""
    assert res.stderr == f"assertion failure: X_D does not commute with D at nu={spoiled[0]}\n"
