"""Byte-identity gate: the SHA-256 of the CLI's stdout, with its exit code,
for every command, every `verify` suite on four inputs, every suite but
`cohomology` and `index` on sl(2|3) and gl(3|3) (no `character` on
gl(3|3)), the failing `character` suite on two atypical sl(2|3) weights,
one gl(3|3) cohomology case, a highest weight with thirds, a refuted
certification and an atypical decomposition. A refactor that keeps the
output must keep every digest; a change that means to alter the output
re-records the table below.

Re-record with:

    PYTHONPATH=src python tests/test_golden.py

Every case of every benchmark workload is also run here, in process, against
`perfbench/reference.json`, so that a digest break fails the test suite and
not only the benchmark, and every function the benchmark tracer wraps must
resolve in the package.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from superdirac.cli import SUITES, main

SL21 = ["--m", "2", "--n", "1", "--p", "1", "--q", "1"]
SL22 = ["--m", "2", "--n", "2", "--p", "1", "--q", "1"]
SL23 = ["--m", "2", "--n", "3", "--p", "1", "--q", "1"]
GL33 = ["--m", "3", "--n", "3", "--p", "2", "--q", "1"]

VERIFY_INPUTS = {
    "sl21-typical": (SL21, "-2,1|1", "4"),
    "sl21-atypical": (SL21, "-1,0|0", "4"),
    "sl21-half": (SL21, "-3/2,1/2|1/2", "3"),
    "sl22-typical": (SL22, "-3,1|1,1", "2"),
}


THIRDS = ["--weight=-5/3,1|1", "--height", "3"]


def _cases():
    base = ["--weight=-2,1|1", "--height", "4"]
    cases = {
        "root-data": ["root-data", *SL21],
        "decompose": ["decompose", *SL22, "--weight=-3,1|1,1", "--height", "2"],
        "dirac-cohomology": ["dirac-cohomology", *SL21, *base],
        "certify-unitarity": ["certify-unitarity", *SL21, *base],
        "character": ["character", *SL21, *base],
        "index": ["index", *SL21, *base],
        "gl33-cohomology": [
            "dirac-cohomology", *GL33, "--weight=-2,-2,1|1,1,1", "--height", "2",
        ],
        # thirds: every Dirac-block weight is L - rho1 minus an integer vector
        "thirds-cohomology": ["dirac-cohomology", *SL21, *THIRDS],
        "verify-square-sl21-thirds": ["verify", *SL21, *THIRDS, "--suite", "square"],
        # the Kostant differential with p*n < mn: sl(2|3) p=1 and gl(3|3) p=2
        "verify-kostant-sl23": [
            "verify", *SL23, "--weight=-3,0|1,1,1", "--height", "3", "--suite", "kostant",
        ],
        "verify-kostant-gl33": [
            "verify", *GL33, "--weight=-2,-2,1|1,1,1", "--height", "2", "--suite", "kostant",
        ],
        # several even raising generators stack their maps into one kernel
        "verify-square-sl23": [
            "verify", *SL23, "--weight=-3,0|1,1,1", "--height", "3", "--suite", "square",
        ],
        "verify-square-gl33": [
            "verify", *GL33, "--weight=-2,-2,1|1,1,1", "--height", "2", "--suite", "square",
        ],
        "verify-character-sl23": [
            "verify", *SL23, "--weight=-3,0|1,1,1", "--height", "3", "--suite", "character",
        ],
        # the Kostant variant fails on two certified atypical weights (ROADMAP
        # item 2(c)): pinned before the character sum was rebuilt
        "verify-character-sl23-atypical-110": [
            "verify", *SL23, "--weight=-3,0|1,1,0", "--height", "2", "--suite", "character",
        ],
        "verify-character-sl23-atypical-000": [
            "verify", *SL23, "--weight=-1,0|0,0,0", "--height", "2", "--suite", "character",
        ],
        # the odd-subset family: the refuted certification with its audit and
        # witness, and the `atypicality` reason of the branching prediction
        "certify-unitarity-refuted": [
            "certify-unitarity", *SL21, "--weight=0,0|-1", "--height", "2",
        ],
        "decompose-atypical": [
            "decompose", *SL21, "--weight=-1,0|0", "--height", "3",
        ],
    }
    for suite in ("filtration", "branching", "unitarity"):
        for name, group, weight in (
            ("sl23", SL23, "-3,0|1,1,1"), ("gl33", GL33, "-2,-2,1|1,1,1"),
        ):
            cases[f"verify-{suite}-{name}"] = [
                "verify", *group, f"--weight={weight}", "--height", "2", "--suite", suite,
            ]
    for name, (group, weight, height) in VERIFY_INPUTS.items():
        for suite in SUITES:
            cases[f"verify-{suite}-{name}"] = [
                "verify", *group, f"--weight={weight}", "--height", height, "--suite", suite,
            ]
    return cases


CASES = _cases()

# (exit code, SHA-256 of stdout), recorded before the U(g) layer was narrowed;
# the two thirds cases before the engine keyed its weights by integer drops;
# the sl(2|3) and gl(3|3) verify cases before the Dirac block stored d, their
# square suites before the Dirac audits moved to integer kernels; the refuted
# certification, the atypical decomposition and the sl(2|3)/gl(3|3)
# filtration, branching and unitarity suites before the odd subsets were
# enumerated in one place; the two atypical sl(2|3) character suites before
# both character formulas went through one signed sum
DIGESTS = {
    'certify-unitarity': (0, '163dabe4d0d5d387f905c53b84d012614f031307a7b9c4ec06954e75270f4922'),
    'character': (0, 'a9423e2ce009a1fdc9d3ac397b8a867e84ea728bc9e3ef89af794cc2d922977c'),
    'decompose': (2, '7dd6335219fb8518bf147df9a0a0f6ae702557b29a7c8e2b14751050e3225d69'),
    'dirac-cohomology': (0, 'a021a43caa75a337dbf952ba9cb2719f8055cbf06fd951567185a46ef5170dd1'),
    'gl33-cohomology': (0, 'ae4f0b5d5b4cbcb883d85b59cd268ed7c3fb7b99e53f7ecf5b2c3ba95c385edd'),
    'index': (0, 'e5b4c8ca82b134c2e307295020e2f9df6f369df89fec2dd1c3dd35a10800451f'),
    'thirds-cohomology': (0, '5beec494a299085fb9caf6ea77031ee06007baf52855afd9eeed6982566af54c'),
    'root-data': (0, 'c7cf26de4172077949e7c0e53de8f43c04b8f60ab162abcf4976b67b123540f9'),
    'verify-branching-sl21-atypical': (0, 'f4a8b7c825ce853116ba2a99489821dcc8e9224ce26933f600c191600ec7ca09'),
    'verify-branching-sl21-half': (0, '45742e211e2691121a3e3ac4abd9da4972588a4b15be5d9d474b8fa9267055d0'),
    'verify-branching-sl21-typical': (0, '38e2f974a1d05ad518ef026e4e3b8f2c0688d1c7d3bf521f2d98adf0eb87b7e1'),
    'verify-branching-sl22-typical': (2, '7522678890642e729d8f3c9140a8d74097f605a17409d33b12d8e49884918c85'),
    'verify-character-sl21-atypical': (0, '92bf0ad277ff9327179f9efbd54bb5a9ff8ce9bd0c61edd6338ccb021848c4ff'),
    'verify-character-sl21-half': (0, '05e2ed973c485b889792401afdc6d9fd770542cb8826f3966bf2a84af8e0dd58'),
    'verify-character-sl21-typical': (0, '3e35d1031dd998f65204d437654cacb5a5de559e41ec04544a87305f74c5aec3'),
    'verify-character-sl22-typical': (0, '4a1934683ebb3791eecd76a59b3026fdb6746f3ed832a9572b385abe16f4429f'),
    'verify-character-sl23': (0, '5b5a1503badfd82c8a1904f6dc19943e02b95494eb20dea159df7e84a0fe9498'),
    'verify-cohomology-sl21-atypical': (2, '09370cda6abdf9901e1c085305532906be5f9274b7a22dbecf5b181d649e6d19'),
    'verify-cohomology-sl21-half': (0, '915c1786acda60bdbbaca74f74728b17b29fdff36e68df4db16e4b32abdc5713'),
    'verify-cohomology-sl21-typical': (0, '6edbbc6bb1fbf38d7411d90b38e484414ad4ab021961f777223524947f2184c0'),
    'verify-cohomology-sl22-typical': (0, '078c23394fef2b2f5d012d32d4565a1fbab8fe1572e95b2eb46f8f4434a58168'),
    'verify-filtration-sl21-atypical': (0, '19aaef4cd517c08dfead4743f9920e2def970c510a58c89ffeca87b070724a93'),
    'verify-filtration-sl21-half': (0, 'd756e8f81c4596dfcf1f108ee0b418ddc861ff6d66de5607ff945e8041e90a45'),
    'verify-filtration-sl21-typical': (0, '3823aa57445cb51cdce3bdc093698333055870752301729d2182ea7c4a832879'),
    'verify-filtration-sl22-typical': (0, '590c027dc6ab6bcfec88a501f55a66717efc8cf2866049ad3497597ba17e114e'),
    'verify-index-sl21-atypical': (0, 'f66fd6219e21d9d0e4ce9fae39954985741c2ffc9b655113b9e64ba8f0f7bc73'),
    'verify-index-sl21-half': (0, '4b7584207b48cde536e3e85af7ed77079be81276c33157a5ad3885c0f1cbca53'),
    'verify-index-sl21-typical': (0, '71a99bf360b1b2865e1f61230a26560176bbaf88840b0a342cdcf40bad6e3ff1'),
    'verify-index-sl22-typical': (0, '51003199a00805497d75b7ac12cedf9e16cf9aea02da62853b9646eb2ac1d332'),
    'verify-kostant-sl21-atypical': (0, '62f100277b63b366f4a5cfda11cc644a667d0a052e5068021c3bf58889a05d21'),
    'verify-kostant-sl21-half': (0, 'e22815ee63628759affac84d4639dc9ab381d565629b4d6ad0d2f2ad2aeaa12d'),
    'verify-kostant-sl21-typical': (0, '1f086e31c3c9f481148dc836158b0f76da3ea83e31d2292210c28b8bf65c69d2'),
    'verify-kostant-sl22-typical': (0, '3c6a02651e8339706d5406d8c589ca7e4dc0653275f0e7babacec9575ec3aa3a'),
    'verify-kostant-sl23': (0, '40b2459ac513f2e56c63f25115df4a6eb5bd81d61a035d0604e9f9fffa0e4acd'),
    'verify-kostant-gl33': (0, '689246b3d56e82747be9ec910a33e3e3864ef61aba437a3acb00f977a0eb9727'),
    'verify-square-sl21-atypical': (0, 'dac8d5c60ba7e4243244b3c6fb51de979069b06cccc22f07e71f91b5e1bf1fac'),
    'verify-square-sl21-half': (0, '950b6ab3c850d9b39801648eaee451c7fd5feca80c82770274b70f009ae6aad8'),
    'verify-square-sl21-typical': (0, 'b92a93f007dc63dcc430d4db3db146bc231372d89b6edf7cc794f83fcea8ac0a'),
    'verify-square-sl21-thirds': (0, 'b43e4f0c50fec1c89ee24fccdc1add97d4da3fb96f17ba4b41fd6727941385a9'),
    'verify-square-sl23': (0, '60938d544eabb94720134a71ab798af3158e4cc4b8972c906f9fdb7b7e5158cb'),
    'verify-square-gl33': (0, '556909f61b5326ac044f8e00e543ed2bb9346bd47c354382698b99bcaa3d39c0'),
    'verify-square-sl22-typical': (0, '06af7acc872db6d626f80de9a531d1bf577dc45e8eb7aed0f9809d6855119a4d'),
    'verify-unitarity-sl21-atypical': (0, 'e8351cc6858369a55420a4b9c6f6c4957da027fb7f06b1d2a7b194b0969593b4'),
    'verify-unitarity-sl21-half': (0, '2bcbc0d49dca08f585aa1f374390bf9ee67b5684b0f6886c59367566c2ea47b8'),
    'verify-unitarity-sl21-typical': (0, 'cd5f4532a4e422527aebe87a85b1c460da023471a715353d402deb3d23fbd8c2'),
    'verify-unitarity-sl22-typical': (0, '98767e2fe0aa65a580980f061fefd199987ad9cbdfa3dc34499da7905602837b'),
    'certify-unitarity-refuted': (0, 'fe2d6468dab25dae8aa1c5c7d80ee2a0cc6917f6ed74c7ed9580fc79a7c01cfd'),
    'decompose-atypical': (0, '93b563785991e3b16044e79160da9a3b5b7a5888a49c7589569ddcc1202de348'),
    'verify-branching-gl33': (2, '4b75cd72dd1091d0a440a5c114691c0558c0199e2ba7048b7aa62820f5e05b63'),
    'verify-branching-sl23': (2, 'cd2456421706dbcfe77fc39d7d5a94fecdc1eb1170da1977d0a9f2ee16384434'),
    'verify-filtration-gl33': (0, '82a101dd2332844e7b093afb3ed7970329488b7e5be5ac44de558460390830d9'),
    'verify-filtration-sl23': (0, '9f2d87081149d1300591e9e1cc9ef218f9774847e5bd1bdc16a17609710d61fd'),
    'verify-unitarity-gl33': (0, 'feeda8bd79671a6f2d78b99c9f1a7bd86f6673722a9bdf649aca734b9e9435ce'),
    'verify-unitarity-sl23': (0, '4fe8e56271294d4e1753c463a98b6cbaf47ccd60ed65f4f3304fa1aa013867d9'),
    'verify-character-sl23-atypical-110': (2, 'c368d24aa10d584db73387ee0224798630774e76ee2e42c53441a93a213b2ce3'),
    'verify-character-sl23-atypical-000': (2, '20af1b8524629291a157f0195d0ebb3bff9ebf835667b35d8a8f4930cf3d6601'),
}


def run(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    return res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_bytes_are_pinned(name):
    assert run(CASES[name]) == DIGESTS[name]


def test_every_command_and_suite_is_pinned():
    assert set(DIGESTS) == set(CASES)
    commands = {args[0] for args in CASES.values()}
    assert commands == set(main.commands)
    suites = {args[-1] for args in CASES.values() if args[0] == "verify"}
    assert suites == set(SUITES)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WL = _load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
BENCH_CASES = [c for w in WL.WORKLOADS.values() for c in w.cases]


@pytest.mark.parametrize("case", BENCH_CASES, ids=lambda c: c.id)
def test_benchmark_case_matches_reference(case, tmp_path):
    if case.suite is None:
        code, payload = 0, WL.pipeline_payload(WL.run_pipeline(case))
    else:
        code, out = WL.run_cli(case.argv(str(tmp_path)))
        payload = WL.cli_payload(out)
    ref = REFERENCE[case.id]
    assert (code, WL.digest(payload)) == (ref["exit_code"], ref["digest"])


# tracer targets whose functions the package no longer has; the check is a
# subset, so it stays green once a benchmark change drops them from the tracer
STALE_TARGETS = {
    "uea.shapovalov_pairing", "exactla.column_space_coords", "cli.assemble_all_parallel"
}


def test_every_traced_name_resolves(monkeypatch):
    """Every (module, function) the benchmark tracer wraps is a function of
    `superdirac`, apart from the known stale targets, so a rename in the
    package fails here and not only in a traced benchmark run."""
    monkeypatch.setitem(sys.modules, "workloads", WL)  # the tracer's own import
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"superdirac.{mod}"), attr, None))
    }
    assert missing <= STALE_TARGETS


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {run(CASES[name])!r},")
    print("}")
