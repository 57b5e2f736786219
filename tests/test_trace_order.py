"""A traced benchmark pass counts the same work whatever order it runs its
cases in: nothing the program memoizes outlives the case that filled it.

The benchmark worker shuffles the cases of each pass by its seed; a cache
shared across cases (say, one Algebra per root datum, or one Dirac-block
predicate per process) would make the counts of a later case depend on what
ran before it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def _traced_pass(workload, seed, scratch):
    """One traced cold pass of the workload, as the worker prints it."""
    done = subprocess.run(
        [sys.executable, str(WORKER), "pass", workload, str(seed), "0", "1", str(scratch)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    return json.loads(done.stdout.splitlines()[-1])


# per-layer counts the tracer reads off package objects (module blocks and
# their Gram, Dirac blocks and their D): a change of representation must not
# zero one silently
LIVE_COUNTS = ("modules.blocks", "modules.gram_nnz", "dirac.blocks", "dirac.D_nnz")


def _assert_order_free(workload, seeds, tmp_path):
    """Two traced passes in different case orders: every case ok with the
    same digest, equal `trace.counts` and equal span call counts, and the
    `LIVE_COUNTS` nonzero."""
    runs = [_traced_pass(workload, seed, tmp_path / f"seed{seed}") for seed in seeds]
    for r in runs:
        assert all(r["trace"]["counts"][name] for name in LIVE_COUNTS), r["trace"]["counts"]
    orders = [[c["case"] for c in r["cases"]] for r in runs]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])
    for r in runs:
        assert [c["status"] for c in r["cases"]] == ["ok"] * len(r["cases"]), r["cases"]
    digests = [{c["case"]: c["digest"] for c in r["cases"]} for r in runs]
    assert digests[0] == digests[1]
    assert runs[0]["trace"]["counts"] == runs[1]["trace"]["counts"]
    calls = [{name: agg[0] for name, agg in r["trace"]["spans"].items()} for r in runs]
    assert calls[0] == calls[1]


def test_trace_counts_do_not_depend_on_case_order(tmp_path):
    # seeds 1 and 5 run the three cases in the orders c, a, b and c, b, a
    _assert_order_free("deep-sl21", (1, 5), tmp_path)


def test_verify_cli_trace_counts_do_not_depend_on_case_order(tmp_path):
    """The 16 `verify` suites through the CLI, each with a cold result cache."""
    _assert_order_free("verify-cli", (1, 2), tmp_path)
