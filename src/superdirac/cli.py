"""Command line front end: root-data dumps, module decompositions, Dirac
cohomology, unitarity certification, characters, the Dirac index, and the
theorem verification suites, with a content-addressed JSON result cache.

Exit codes: 0 = all checks concluded (pass or expected refutation),
1 = ``--expect-unitarizable`` met a refutation, 2 = assertion failure,
3 = configuration error (including every usage error and an unwritable
``--json-out``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import click

from . import __version__, analysis, dirac, modules
from .weights import (
    RootDatum,
    Weight,
    atypicality_set,
    bounded_exponents,
    build_root_datum,
    parse_weight,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_CODES = (EXIT_OK, EXIT_REFUTED, EXIT_ASSERTION, EXIT_CONFIG)


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


def _resolve_pq(m: int, p: int | None, q: int | None) -> tuple[int, int]:
    if p is None and q is None:
        p = m
        q = 0
    elif p is None:
        p = m - q
    elif q is None:
        q = m - p
    return p, q


# --kind -> builder name in `modules`, looked up on each call so that a wrapper
# installed on the module attribute (as perfbench/tracer.py does) sees the build
BUILDERS = {
    "simple": "simple_truncation",
    "verma": "verma_truncation",
    "even-simple": "even_simple_truncation",
    "even-verma": "even_verma_truncation",
}


def _build_module(kind: str, datum: RootDatum, lam: Weight, height: int):
    return getattr(modules, BUILDERS[kind])(datum, lam, height)


def _emit(payload: dict, json_out: str | None) -> None:
    payload = {"schema": 1, "engine": __version__, **payload}
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if json_out:
        try:
            with open(json_out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --json-out: {exc}") from exc
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


# the payload fields an exit code is read from, and the type each must have
# (bool is an int subclass, and sys.exit(True) would exit 1, hence `type is`)
EXIT_FIELDS = {"exit_code": int, "character_verified": bool, "verdict": str, "certification": str}


def cache_lookup(cache_dir: str | None, key: str, required: tuple[str, ...]) -> dict | None:
    """The cached payload, or None (a miss) when it is absent, unreadable,
    lacks one of the ``required`` keys its command reads or emits, holds one
    of the ``EXIT_FIELDS`` with another type, or holds an ``exit_code`` that
    is not one of the CLI's exit codes."""
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
    if any(k in payload and type(payload[k]) is not t for k, t in EXIT_FIELDS.items()):
        return None
    if payload.get("exit_code", EXIT_OK) not in EXIT_CODES:
        return None
    return payload


def cache_store(cache_dir: str | None, key: str, payload: dict) -> None:
    if not cache_dir:
        return
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))  # one-shot and compact: the C encoder
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError as exc:
        if tmp is not None:  # a failed write or replace leaves no temporary file
            with contextlib.suppress(OSError):
                os.remove(tmp)
        click.echo(f"warning: cache unwritable ({exc}); continuing without cache", err=True)


# ----- the one command path ----------------------------------------------------------
def _serve(
    cmd: str,
    common: dict,
    required: tuple[str, ...],
    compute,
    *,
    weight: str | None = None,
    height: int = 0,
    expect_unitarizable: bool = False,
    verdict: str | None = None,
    exit_code=lambda payload: EXIT_OK,
    **extras,
) -> None:
    """Run one command and exit: resolve p and q, build the datum and (when
    ``weight`` is given) the weight, take the payload from the cache or from
    ``compute(datum, lam)`` (stored on a miss), emit it, and exit with
    ``exit_code(payload)``, or 1 when ``expect_unitarizable`` meets a
    ``payload[verdict]`` other than certified. ``expect_unitarizable`` with no
    ``verdict`` field is a configuration error. Cold runs and warm hits leave
    by this one path. ``extras`` join the cache key."""
    m, n, cache_dir = common["m"], common["n"], common["cache_dir"]
    try:
        if height < 0:
            raise ConfigError(f"--height must be at least 0, got {height}")
        if expect_unitarizable and verdict is None:
            raise ConfigError("--expect-unitarizable needs a result with a unitarity verdict")
        p, q = _resolve_pq(m, common["p"], common["q"])
        datum = _datum(m, n, p, q)
        parts = {"cmd": cmd, "m": m, "n": n, "p": p, "q": q, **extras}
        lam = None
        if weight is not None:
            lam = _weight(datum, weight)
            parts.update(w=lam.text(), N=height)
        key = cache_key(parts)
        payload = cache_lookup(cache_dir, key, required)
        if payload is None:
            payload = compute(datum, lam)
            cache_store(cache_dir, key, payload)
        _emit(payload, common["json_out"])
        code = exit_code(payload)
        if expect_unitarizable and payload[verdict] != "certified-up-to-N":
            code = EXIT_REFUTED
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except AssertionError as exc:
        click.echo(f"assertion failure: {exc}", err=True)
        sys.exit(EXIT_ASSERTION)
    sys.exit(code)


# ----- commands ----------------------------------------------------------------------
class _Main(click.Group):
    """Click exits 2 on a usage error (an unknown option or command, a bad or
    missing value), but 2 means a failed assertion here: usage errors exit 3.
    The group parses its own arguments in ``make_context`` and resolves and
    parses a subcommand in ``invoke``."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CONFIG
            raise


@click.group(cls=_Main)
def main() -> None:
    """Exact Dirac-operator computations for basic Lie superalgebras of type
    A(m|n) with real form su(p,q|n)."""


def common_options(fn):
    fn = click.option("--m", "m", type=int, required=True)(fn)
    fn = click.option("--n", "n", type=int, required=True)(fn)
    fn = click.option("--p", "p", type=int, default=None)(fn)
    fn = click.option("--q", "q", type=int, default=None)(fn)
    fn = click.option("--json-out", type=click.Path(), default=None)(fn)
    fn = click.option("--cache-dir", type=click.Path(), default=None)(fn)
    return fn


def weight_options(fn):
    fn = click.option("--height", type=int, default=3)(fn)
    fn = click.option("--weight", required=True)(fn)
    return fn


@main.command("root-data")
@common_options
def cmd_root_data(**common):
    def compute(datum, _lam):
        return {
            "m": datum.m,
            "n": datum.n,
            "p": datum.p,
            "q": datum.q,
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

    _serve("root-data", common, ("rho", "odd_basis_table"), compute)


@main.command("decompose")
@common_options
@weight_options
def cmd_decompose(weight, height, **common):
    def compute(datum, lam):
        ok, diff, pred = analysis.even_decomposition_verify(datum, lam, height)
        payload = {
            "weight": lam.text(),
            "height": height,
            "prediction": pred.to_json(),
            "character_verified": ok,
        }
        if diff is not None:
            payload["first_diff"] = diff.text()
        return payload

    _serve(
        "decompose", common, ("prediction", "character_verified"), compute,
        weight=weight, height=height,
        exit_code=lambda payload: EXIT_OK if payload["character_verified"] else EXIT_ASSERTION,
    )


@main.command("dirac-cohomology")
@common_options
@weight_options
@click.option("--kind", type=click.Choice(["simple", "verma"]), default="simple")
def cmd_dirac_cohomology(weight, height, kind, **common):
    def compute(datum, lam):
        coll = dirac.assemble_all(_build_module(kind, datum, lam, height), height)
        report = dirac.dirac_cohomology(coll)
        ktypes_plus = dirac.hd_ktype_table(coll, report, +1)
        ktypes_minus = dirac.hd_ktype_table(coll, report, -1)
        return {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            **report.to_json(),
            "character": report.character().to_json(datum),
            "ktypes_plus": modules.table_json(datum, lam - datum.rho1, ktypes_plus),
            "ktypes_minus": modules.table_json(datum, lam - datum.rho1, ktypes_minus),
        }

    _serve(
        "dirac-cohomology", common, ("blocks", "character", "ktypes_plus", "ktypes_minus"),
        compute, weight=weight, height=height, kind=kind,
    )


@main.command("certify-unitarity")
@common_options
@weight_options
@click.option("--expect-unitarizable", is_flag=True, default=False)
def cmd_certify(weight, height, expect_unitarizable, **common):
    def compute(datum, lam):
        cert = modules.certify_unitarity(datum, lam, height)
        return {"weight": lam.text(), "height": height, **cert.to_json()}

    _serve(
        "certify", common, ("verdict",), compute,
        weight=weight, height=height, expect_unitarizable=expect_unitarizable, verdict="verdict",
    )


@main.command("character")
@common_options
@weight_options
@click.option("--kind", type=click.Choice(list(BUILDERS)), default="simple")
def cmd_character(weight, height, kind, **common):
    def compute(datum, lam):
        module = _build_module(kind, datum, lam, height)
        ch = modules.character(module)
        kt = modules.ktype_table(module)
        return {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            "character": ch.to_json(datum),
            "ktypes": modules.table_json(datum, lam, kt),
        }

    _serve(
        "character", common, ("character", "ktypes"), compute,
        weight=weight, height=height, kind=kind,
    )


@main.command("index")
@common_options
@weight_options
@click.option("--kind", type=click.Choice(["simple", "verma"]), default="simple")
def cmd_index(weight, height, kind, **common):
    def compute(datum, lam):
        coll = dirac.assemble_all(_build_module(kind, datum, lam, height), height)
        return {
            "weight": lam.text(),
            "height": height,
            "kind": kind,
            "index": modules.table_json(datum, lam - datum.rho1, dirac.dirac_index(coll)),
        }

    _serve("index", common, ("index",), compute, weight=weight, height=height, kind=kind)


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
# the payload field `--expect-unitarizable` reads for each suite: the verdict
# of `unitarity` and the certification the five Dirac suites record;
# `filtration` and `branching` certify nothing
VERDICT_FIELDS = {
    "unitarity": "verdict",
    **{s: "certification" for s in ("square", "cohomology", "kostant", "character", "index")},
}


@main.command("verify")
@common_options
@weight_options
@click.option("--suite", type=click.Choice(SUITES), required=True)
@click.option("--expect-unitarizable", is_flag=True, default=False)
def cmd_verify(weight, height, suite, expect_unitarizable, **common):
    def compute(datum, lam):
        payload, code = _run_suite(datum, lam, height, suite)
        return {**payload, "exit_code": code}

    verdict = VERDICT_FIELDS.get(suite)
    _serve(
        "verify", common,
        ("status", "exit_code", verdict) if verdict else ("status", "exit_code"),
        compute, weight=weight, height=height, suite=suite,
        expect_unitarizable=expect_unitarizable, verdict=verdict,
        exit_code=lambda payload: payload["exit_code"],
    )


def _run_suite(datum: RootDatum, lam: Weight, height: int, suite: str):
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
    # for the zero weight the `cohomology` suite reads the truncation parameter
    # as the oscillator polynomial degree (degree and height differ once the
    # odd roots have height > 1)
    by_degree = suite == "cohomology" and lam.is_zero()
    if by_degree:
        coll = dirac.assemble_by_degree(module, int(height))
    else:
        coll = dirac.assemble_all(module, height)
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
        if by_degree:
            osc = coll.osc
            expected: dict[Weight, int] = {}
            for a in bounded_exponents([1] * datum.mn, int(height), [None] * datum.mn):
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
        ok2, diff = analysis.injection_check(dirac.dirac_cohomology(coll), kost)
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
        payload["index"] = modules.table_json(datum, lam - datum.rho1, idx)
        return payload, EXIT_OK if ok else EXIT_ASSERTION
    raise ConfigError(f"unknown suite {suite!r}")


if __name__ == "__main__":
    main()
