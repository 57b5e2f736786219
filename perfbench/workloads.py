"""The benchmark's workloads: fixed case lists, per-case time budgets, the
known defects, and how each case is run and reduced to a deterministic
payload whose digest is compared with ``reference.json``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    id: str
    group: tuple[int, int, int, int]  # m, n, p, q
    weight: str
    height: int
    budget_s: float
    suite: str | None = None  # None: library pipeline; else `verify --suite`
    known_defect: str | None = None

    def argv(self, cache_dir: str) -> list[str]:
        m, n, p, q = self.group
        return [
            "verify", "--m", str(m), "--n", str(n), "--p", str(p), "--q", str(q),
            f"--weight={self.weight}", "--height", str(self.height),
            "--suite", self.suite, "--cache-dir", cache_dir,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]

    @property
    def groups(self) -> list[tuple[int, int, int, int]]:
        return sorted({c.group for c in self.cases})


SL21 = (2, 1, 1, 1)
SL22 = (2, 2, 1, 1)
SL23 = (2, 3, 1, 1)
GL33 = (3, 3, 2, 1)

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

KNOWN_DEFECTS = {
    "sl22-branching": "even_decomposition predicts labels that are not compact-dominant; exits 2",
    "sl21-atyp-cohomology": "atypical input compared with the even-simple character; exits 2",
}


def _verify_cases() -> tuple[Case, ...]:
    out = []
    for tag, group, weight, height in (
        ("sl22", SL22, "-3,1|1,1", 3),
        ("sl21-atyp", SL21, "-1,0|0", 6),
    ):
        for suite in SUITES:
            cid = f"{tag}-{suite}"
            budget = 10.0 if suite == "character" else 5.0
            out.append(Case(cid, group, weight, height, budget, suite, KNOWN_DEFECTS.get(cid)))
    return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-sl21",
            "sl(2|1) pipeline at N=8-9, long PBW words: Gram ~30%, assembly ~25%, "
            "square audit ~27%, cohomology ~13% of the time",
            (
                Case("sl21-typ-N9", SL21, "-2,1|1", 9, 10.0),
                Case("sl21-atyp-N8", SL21, "-1,0|0", 8, 5.0),
                Case("sl21-refuted-N8", SL21, "0,0|-1", 8, 6.0),
            ),
        ),
        Workload(
            "wide-sl23",
            "sl(2|3) N=4 and gl(3|3) N=2 pipeline, many odd directions and small "
            "blocks: assembly ~34%, square audit ~27%, Gram ~16%, cohomology ~1%",
            (
                Case("sl23-N4", SL23, "-3,0|1,1,1", 4, 10.0),
                Case("gl33-p2-refuted-N2", GL33, "-3,0,0|1,1,1", 2, 5.0),
            ),
        ),
        Workload(
            "verify-cli",
            "all 8 verify suites through cli.main on sl(2|2) N=3 and sl(2|1) N=6, "
            "cold cache: Gram ~75% (half in compact truncations), two module builds "
            "per Dirac suite",
            _verify_cases(),
        ),
        Workload(
            "character-sl23",
            "verify --suite character on sl(2|3) N=0: compact truncations "
            "dominate time and peak memory",
            (Case("sl23-character-N0", SL23, "-3,0|1,1,1", 0, 30.0, "character"),),
        ),
    )
}


# ----- payloads ----------------------------------------------------------------------
def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_pipeline(case: Case) -> dict:
    """The library pipeline on one highest weight; returns its objects."""
    from superdirac import dirac, modules
    from superdirac.weights import build_root_datum, parse_weight

    m, n, p, q = case.group
    datum = build_root_datum(m, n, p, q)
    lam = parse_weight(case.weight, m, n)
    module = modules.simple_truncation(datum, lam, case.height)
    cert = modules.certify_unitarity(datum, lam, case.height, module=module)
    coll = dirac.assemble_all(module, case.height)
    report = dirac.dirac_cohomology(coll)
    plus = dirac.hd_ktype_table(coll, report, +1)
    minus = dirac.hd_ktype_table(coll, report, -1)
    audit = dirac.dirac_square_audit(coll)
    adjoint = [dirac.anti_selfadjoint_certificate(coll.blocks[nu]) for nu in coll.sorted_weights()]
    return {
        "datum": datum, "lam": lam, "module": module, "cert": cert, "coll": coll,
        "report": report, "plus": plus, "minus": minus, "audit": audit, "adjoint": adjoint,
    }


def pipeline_payload(out: dict) -> dict:
    datum, lam, module = out["datum"], out["lam"], out["module"]
    base = lam - datum.rho1

    def table(t):
        items = sorted(t.items(), key=lambda kv: datum.root_sort_key(base - kv[0]))
        return [[w.text(), mult] for w, mult in items if mult]

    return {
        "module": [module.blocks[nu].to_json() for nu in module.sorted_weights()],
        "certificate": out["cert"].to_json(),
        "dirac_blocks": [b.to_json() for b in (out["coll"].blocks[nu] for nu in out["coll"].sorted_weights())],
        "cohomology": out["report"].to_json(),
        "character": out["report"].character().to_json(datum),
        "ktypes_plus": table(out["plus"]),
        "ktypes_minus": table(out["minus"]),
        "square_audit": out["audit"].to_json(),
        "adjoint": [a.to_json() for a in out["adjoint"]],
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``superdirac <argv>`` in this process; returns (exit code, stdout)."""
    from superdirac import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="superdirac", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_payload(stdout: str) -> dict:
    payload = json.loads(stdout)
    payload.pop("engine", None)  # the version string is not a result
    return payload
