"""The benchmark's own checks: the exact counts of a traced pass repeat from
one pass to the next (the seed permutes the case order), every case matches
its reference digest, and a case over its budget is recorded as a timeout.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def traced_pass(workload: str, seed: int, scratch: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "pass", workload, str(seed), "0", "1", str(scratch)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["wide-sl23", "verify-cli"])
def test_counts_repeat_and_cases_match_reference(workload, tmp_path):
    first = traced_pass(workload, 1, tmp_path)
    second = traced_pass(workload, 2, tmp_path)
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert set(first["trace"]["counts"]) == set(tracer.COUNT_METRICS)
    calls = {name: agg[0] for name, agg in first["trace"]["spans"].items()}
    assert calls == {name: agg[0] for name, agg in second["trace"]["spans"].items()}
    assert first["trace"]["missing"] == []

    reference = run.load_reference()
    cases = {c.id: c for c in wl.WORKLOADS[workload].cases}
    for res in (first, second):
        assert res["warm_failed"] == []
        for rec in res["cases"]:
            assert run.check_case(cases[rec["case"]], rec, reference[rec["case"]]) == "ok"


def test_case_over_budget_is_a_timeout_and_the_next_case_runs():
    import signal
    import time

    import worker

    case = wl.Case("slow", wl.SL21, "0,0|0", 1, budget_s=0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        status, seconds, result = worker._timed(case, lambda: time.sleep(2))
        assert (status, result) == ("timeout", None)
        assert seconds < 1
        assert worker._timed(case, lambda: 7)[::2] == ("ok", 7)
    finally:
        signal.signal(signal.SIGALRM, previous)
