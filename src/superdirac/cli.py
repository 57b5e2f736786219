"""Command line front end: root-data dumps, module decompositions, Dirac
cohomology, unitarity certification, characters, the Dirac index, and the
theorem verification suites, with a content-addressed JSON result cache.

Exit codes: 0 = all checks concluded (pass or expected refutation),
2 = assertion failure, 3 = configuration error.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import click

from . import __version__, analysis, dirac, modules, oscillator
from .dirac import BlockCollection
from .modules import TruncatedModule
from .oscillator import Oscillator
from .weights import (
    RootDatum,
    Weight,
    atypicality_set,
    build_root_datum,
    parse_weight,
)

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


# ----- configuration ---------------------------------------------------------------
def _datum(m: int, n: int, p: int, q: int) -> RootDatum:
    try:
        return build_root_datum(m, n, p, q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _weight(datum: RootDatum, text: str) -> Weight:
    try:
        w = parse_weight(text, datum.m, datum.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not datum.admissible_highest_weight(w):
        raise ConfigError(
            "weight is not admissible for this datum (central charge constraint)"
        )
    return w


def _emit(payload: dict, json_out: str | None) -> None:
    payload = {"schema": 1, "engine": __version__, **payload}
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text)
    click.echo(text, nl=False)


# ----- cache --------------------------------------------------------------------------
@functools.cache
def _source_hash() -> str:
    """SHA-256 over the package's Python sources, read once per process, so
    an edit that changes a result also changes every cache key."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_key(parts: dict) -> str:
    canonical = json.dumps(
        {"engine": __version__, "source": _source_hash(), **parts}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def cache_lookup(cache_dir: str | None, key: str, required: tuple[str, ...]) -> dict | None:
    """The cached payload, or None (a miss) when it is absent, unreadable, or
    lacks one of the ``required`` keys its command reads or emits."""
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or any(k not in payload for k in required):
        return None
    return payload


def cache_store(cache_dir: str | None, key: str, payload: dict) -> None:
    if not cache_dir:
        return
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError as exc:
        click.echo(f"warning: cache unwritable ({exc}); continuing without cache", err=True)


# ----- parallel assembly -----------------------------------------------------------------
def assemble_all_parallel(module: TruncatedModule, height, jobs: int) -> BlockCollection:
    osc = Oscillator(module.alg)
    height = min(Fraction(height), module.height)
    weights = dirac.diagonal_weights(module, height)
    if jobs <= 1:
        blocks = {nu: dirac.assemble_block(module, nu, osc) for nu in weights}
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(lambda nu: dirac.assemble_block(module, nu, osc), weights)
            )
        # merge in sorted weight order so parallelism never affects output
        blocks = {b.nu: b for b in sorted(results, key=lambda b: weights.index(b.nu))}
    return BlockCollection(module, osc, height, blocks)


# ----- shared options ----------------------------------------------------------------------
def common_options(fn):
    fn = click.option("--m", "m", type=int, required=True)(fn)
    fn = click.option("--n", "n", type=int, required=True)(fn)
    fn = click.option("--p", "p", type=int, default=None)(fn)
    fn = click.option("--q", "q", type=int, default=None)(fn)
    fn = click.option("--json-out", type=click.Path(), default=None)(fn)
    fn = click.option("--cache-dir", type=click.Path(), default=None)(fn)
    fn = click.option("--jobs", type=int, default=1)(fn)
    return fn


def _resolve_pq(m: int, p: int | None, q: int | None) -> tuple[int, int]:
    if p is None and q is None:
        p = m
        q = 0
    elif p is None:
        p = m - q
    elif q is None:
        q = m - p
    return p, q


@click.group()
def main() -> None:
    """Exact Dirac-operator computations for basic Lie superalgebras of type
    A(m|n) with real form su(p,q|n)."""


def _at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise ConfigError(f"{option} must be at least {least}, got {value}")


def _run(fn, jobs: int, height: int = 0) -> None:
    try:
        _at_least("--jobs", jobs, 1)
        _at_least("--height", height, 0)
        code = fn()
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except AssertionError as exc:
        click.echo(f"assertion failure: {exc}", err=True)
        sys.exit(EXIT_ASSERTION)
    sys.exit(code)


@main.command("root-data")
@common_options
def cmd_root_data(m, n, p, q, json_out, cache_dir, jobs):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        key = cache_key({"cmd": "root-data", "m": m, "n": n, "p": pp, "q": qq})
        cached = cache_lookup(cache_dir, key, ("rho", "odd_basis_table"))
        if cached is not None:
            _emit(cached, json_out)
            return EXIT_OK
        payload = {
            "m": m,
            "n": n,
            "p": pp,
            "q": qq,
            "positive_even": [r.weight.text() for r in datum.pos_even],
            "positive_odd": [r.weight.text() for r in datum.pos_odd],
            "positive_compact": [r.weight.text() for r in datum.pos_compact],
            "positive_noncompact": [r.weight.text() for r in datum.pos_noncompact],
            "rho0": datum.rho0.text(),
            "rho1": datum.rho1.text(),
            "rho": datum.rho.text(),
            "rho_c": datum.rho_c.text(),
            "rho_n": datum.rho_n.text(),
            "odd_basis_table": [
                {
                    "index": k + 1,
                    "raising_unit": list(datum.odd_raising[k]),
                    "lowering_unit": list(datum.odd_lowering[k]),
                    "lowering_sign": datum.odd_lowering_sign[k],
                }
                for k in range(datum.mn)
            ],
            "warnings": datum.warnings,
        }
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        return EXIT_OK

    _run(go, jobs)


@main.command("decompose")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
def cmd_decompose(m, n, p, q, json_out, cache_dir, jobs, weight, height):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {"cmd": "decompose", "m": m, "n": n, "p": pp, "q": qq, "w": lam.text(), "N": height}
        )
        cached = cache_lookup(cache_dir, key, ("prediction", "character_verified"))
        if cached is not None:
            _emit(cached, json_out)
            return EXIT_OK if cached["character_verified"] else EXIT_ASSERTION
        ok, diff, pred = analysis.even_decomposition_verify(datum, lam, height)
        payload = {
            "weight": lam.text(),
            "height": height,
            "prediction": pred.to_json(),
            "character_verified": ok,
        }
        if diff is not None:
            payload["first_diff"] = diff.text()
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        return EXIT_OK if ok else EXIT_ASSERTION

    _run(go, jobs, height)


@main.command("dirac-cohomology")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
@click.option("--kind", type=click.Choice(["simple", "verma"]), default="simple")
def cmd_dirac_cohomology(m, n, p, q, json_out, cache_dir, jobs, weight, height, kind):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {
                "cmd": "dirac-cohomology",
                "m": m,
                "n": n,
                "p": pp,
                "q": qq,
                "w": lam.text(),
                "N": height,
                "kind": kind,
            }
        )
        cached = cache_lookup(
            cache_dir, key, ("blocks", "character", "ktypes_plus", "ktypes_minus")
        )
        if cached is not None:
            _emit(cached, json_out)
            return EXIT_OK
        build = (
            modules.simple_truncation if kind == "simple" else modules.verma_truncation
        )
        module = build(datum, lam, height)
        coll = assemble_all_parallel(module, height, jobs)
        report = dirac.dirac_cohomology(coll)
        ktypes_plus = dirac.hd_ktype_table(coll, report, +1)
        ktypes_minus = dirac.hd_ktype_table(coll, report, -1)
        payload = {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            **report.to_json(),
            "character": report.character().to_json(datum),
            "ktypes_plus": _table_json(datum, lam - datum.rho1, ktypes_plus),
            "ktypes_minus": _table_json(datum, lam - datum.rho1, ktypes_minus),
        }
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        return EXIT_OK

    _run(go, jobs, height)


def _table_json(datum: RootDatum, base: Weight, table: dict[Weight, int]) -> list:
    items = sorted(table.items(), key=lambda kv: datum.root_sort_key(base - kv[0]))
    return [[w.text(), mult] for w, mult in items if mult]


@main.command("certify-unitarity")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
@click.option("--expect-unitarizable", is_flag=True, default=False)
def cmd_certify(m, n, p, q, json_out, cache_dir, jobs, weight, height, expect_unitarizable):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {"cmd": "certify", "m": m, "n": n, "p": pp, "q": qq, "w": lam.text(), "N": height}
        )
        cached = cache_lookup(cache_dir, key, ("verdict",))
        if cached is None:
            cert = modules.certify_unitarity(datum, lam, height)
            cached = {"weight": lam.text(), "height": height, **cert.to_json()}
            cache_store(cache_dir, key, cached)
        _emit(cached, json_out)
        if expect_unitarizable and cached["verdict"] != "certified-up-to-N":
            return 1
        return EXIT_OK

    _run(go, jobs, height)


@main.command("character")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
@click.option(
    "--kind",
    type=click.Choice(["simple", "verma", "even-simple", "even-verma"]),
    default="simple",
)
def cmd_character(m, n, p, q, json_out, cache_dir, jobs, weight, height, kind):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {
                "cmd": "character",
                "m": m,
                "n": n,
                "p": pp,
                "q": qq,
                "w": lam.text(),
                "N": height,
                "kind": kind,
            }
        )
        cached = cache_lookup(cache_dir, key, ("character", "ktypes"))
        if cached is not None:
            _emit(cached, json_out)
            return EXIT_OK
        builders = {
            "simple": modules.simple_truncation,
            "verma": modules.verma_truncation,
            "even-simple": modules.even_simple_truncation,
            "even-verma": modules.even_verma_truncation,
        }
        module = builders[kind](datum, lam, height)
        ch = modules.character(module)
        kt = modules.ktype_table(module)
        payload = {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            "character": ch.to_json(datum),
            "ktypes": kt.to_json(datum, lam),
        }
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        return EXIT_OK

    _run(go, jobs, height)


@main.command("index")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
@click.option("--kind", type=click.Choice(["simple", "verma"]), default="simple")
def cmd_index(m, n, p, q, json_out, cache_dir, jobs, weight, height, kind):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {
                "cmd": "index",
                "m": m,
                "n": n,
                "p": pp,
                "q": qq,
                "w": lam.text(),
                "N": height,
                "kind": kind,
            }
        )
        cached = cache_lookup(cache_dir, key, ("index",))
        if cached is not None:
            _emit(cached, json_out)
            return EXIT_OK
        build = (
            modules.simple_truncation if kind == "simple" else modules.verma_truncation
        )
        module = build(datum, lam, height)
        coll = assemble_all_parallel(module, height, jobs)
        idx = dirac.dirac_index(coll)
        payload = {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            "index": _table_json(datum, lam - datum.rho1, idx),
        }
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        return EXIT_OK

    _run(go, jobs, height)


SUITES = (
    "square",
    "cohomology",
    "kostant",
    "character",
    "index",
    "filtration",
    "branching",
    "unitarity",
)


@main.command("verify")
@common_options
@click.option("--weight", required=True)
@click.option("--height", type=int, default=3)
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--expect-unitarizable", is_flag=True, default=False)
def cmd_verify(m, n, p, q, json_out, cache_dir, jobs, weight, height, suite, expect_unitarizable):
    def go():
        pp, qq = _resolve_pq(m, p, q)
        datum = _datum(m, n, pp, qq)
        lam = _weight(datum, weight)
        key = cache_key(
            {
                "cmd": "verify",
                "suite": suite,
                "m": m,
                "n": n,
                "p": pp,
                "q": qq,
                "w": lam.text(),
                "N": height,
            }
        )
        required = ("status", "exit_code") + (("verdict",) if suite == "unitarity" else ())
        cached = cache_lookup(cache_dir, key, required)
        if cached is not None and not _is_exit_code(cached["exit_code"]):
            cached = None
        if cached is not None:
            _emit(cached, json_out)
            code = cached["exit_code"]
            if expect_unitarizable and suite == "unitarity" and cached["verdict"] != "certified-up-to-N":
                return 1
            return code
        payload, code = _run_suite(datum, lam, height, suite, jobs)
        payload["exit_code"] = code
        cache_store(cache_dir, key, payload)
        _emit(payload, json_out)
        if expect_unitarizable and suite == "unitarity" and payload.get("verdict") != "certified-up-to-N":
            return 1
        return code

    _run(go, jobs, height)


def _is_exit_code(value) -> bool:
    # bool is an int subclass, and sys.exit(True) would exit 1
    return type(value) is int and value in (EXIT_OK, 1, EXIT_ASSERTION, EXIT_CONFIG)


def _run_suite(datum: RootDatum, lam: Weight, height: int, suite: str, jobs: int):
    payload: dict = {
        "theorem": suite,
        "weight": lam.text(),
        "truncation": height,
    }
    if suite == "unitarity":
        cert = modules.certify_unitarity(datum, lam, height)
        payload.update(cert.to_json())
        payload["status"] = "pass"
        return payload, EXIT_OK
    if suite == "filtration":
        ok, diff = modules.verma_filtration_check(datum, lam, height)
        payload["status"] = "pass" if ok else "fail"
        if diff is not None:
            payload["first_diff"] = diff.text()
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    if suite == "branching":
        ok, diff, pred = analysis.even_decomposition_verify(datum, lam, height)
        payload["status"] = "pass" if ok else "fail"
        payload["prediction"] = pred.to_json()
        if diff is not None:
            payload["first_diff"] = diff.text()
        return payload, EXIT_OK if ok else EXIT_ASSERTION

    module = modules.simple_truncation(datum, lam, height)
    cert = modules.certify_unitarity(datum, lam, height, module=module)
    payload["certification"] = cert.verdict
    coll = assemble_all_parallel(module, height, jobs)
    if suite == "square":
        report = dirac.dirac_square_audit(coll)
        payload["scalar_audit"] = report.to_json()
        ok = report.all_matched
        payload["status"] = "pass" if ok else "fail"
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    if suite == "cohomology":
        report = dirac.dirac_cohomology(coll)
        payload["blocks"] = report.to_json()["blocks"]
        hd = report.character()
        if lam.is_zero():
            # for the zero weight the truncation parameter is read as the
            # oscillator polynomial degree (degree and height differ once the
            # odd roots have height > 1)
            coll = dirac.assemble_by_degree(module, int(height))
            report = dirac.dirac_cohomology(coll)
            payload["blocks"] = report.to_json()["blocks"]
            hd = report.character()
            osc = coll.osc
            expected: dict[Weight, int] = {}
            for deg in range(int(height) + 1):
                for a in oscillator.monomials_of_degree(datum.mn, deg):
                    w = osc.monomial_weight(a)
                    expected[w] = expected.get(w, 0) + 1
            ok = hd.multiplicities == expected
            payload["comparison"] = "oscillator-module-character"
        elif cert.certified:
            target = lam - datum.rho1
            l0 = modules.even_simple_truncation(datum, target, height)
            ok, diff = modules.characters_equal_to_height(
                datum, hd, modules.character(l0), target, Fraction(height)
            )
            ok = ok and report.hd_minus_total() == 0
            payload["comparison"] = "even-simple-character"
            if diff is not None:
                payload["first_diff"] = diff.text()
            if atypicality_set(datum, lam):
                payload["note"] = (
                    "input weight is atypical: the Dirac kernel is expected to "
                    "acquire extra classes of the form v (x) x^k supported on "
                    "odd directions whose lowering operator annihilates the "
                    "highest weight vector of the simple module; the "
                    "even-simple comparison only characterizes typical inputs"
                )
        else:
            ok = True
            payload["comparison"] = "none (input not certified)"
        payload["status"] = "pass" if ok else "fail"
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    if suite == "kostant":
        kost = analysis.kostant_cohomology(coll)
        ok1 = kost.dd_zero
        ok2, diff = analysis.injection_check(coll)
        payload["dd_zero"] = ok1
        payload["injection"] = ok2
        if diff is not None:
            payload["first_diff"] = diff.text()
        ok = ok1 and ok2
        payload["status"] = "pass" if ok else "fail"
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    if suite == "character":
        oka, diffa = analysis.character_formula_check(coll, "kostant")
        okb, diffb = analysis.character_formula_check(coll, "dirac-index")
        payload["kostant_variant"] = oka
        payload["dirac_index_variant"] = okb
        if diffa is not None:
            payload["first_diff_kostant"] = diffa.text()
        if diffb is not None:
            payload["first_diff_dirac_index"] = diffb.text()
        ok = oka and okb
        payload["status"] = "pass" if ok else "fail"
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    if suite == "index":
        report = dirac.dirac_cohomology(coll)
        idx = dirac.dirac_index(coll)
        ok = idx == report.signed_table()
        payload["status"] = "pass" if ok else "fail"
        payload["index"] = _table_json(datum, lam - datum.rho1, idx)
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    raise ConfigError(f"unknown suite {suite!r}")


if __name__ == "__main__":
    main()
