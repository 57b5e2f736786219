"""One benchmark worker process.

    python3 perfbench/worker.py setup <workload>
        import superdirac, build the workload's root data, print "ready",
        then one JSON line of SETUP_PROBES speed-probe times.
    python3 perfbench/worker.py pass <workload> <seed> <pass-index> <trace 0|1> <scratch-dir>
        one cold pass over the workload's cases, then WARM_REPLAYS warm
        replays of its CLI cases from the result cache; prints one JSON line.

Every case runs under its own time budget (an interval timer); a case over
budget is recorded as a timeout and the pass carries on. A speed probe runs
before and after every case.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

WARM_REPLAYS = 30
SETUP_PROBES = 2
PROBE_ITERS = 6000


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the kind the program
    does: ``Fraction`` arithmetic and dict updates on tuple keys. It touches
    no superdirac code, so its time follows only how fast the machine runs
    Python at that moment; run.py scales the workload's times by it."""
    start = perf_counter()
    acc: dict = {}
    total = Fraction(0)
    for i in range(PROBE_ITERS):
        f = Fraction(i % 13 - 6, i % 17 + 1)
        total += f * f
        key = (i % 251, i % 7)
        acc[key] = acc.get(key, 0) + f
    if total <= 0 or len(acc) != 1757:
        raise AssertionError("speed probe computed a wrong result")
    return perf_counter() - start


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test swallows it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def setup(workload) -> None:
    import superdirac
    from superdirac import analysis, cli, dirac, modules  # noqa: F401  (import cost is set-up)
    from superdirac.weights import build_root_datum

    src = (ROOT / "src").resolve()
    if src not in Path(superdirac.__file__).resolve().parents:
        raise SystemExit(f"superdirac imported from {superdirac.__file__}, not {src}")
    for m, n, p, q in workload.groups:
        build_root_datum(m, n, p, q)


def _timed(case, fn):
    """(status, seconds, result) for fn() under the case budget."""
    signal.setitimer(signal.ITIMER_REAL, case.budget_s)
    start = perf_counter()
    try:
        result = fn()
        status = "ok"
    except CaseTimeout:
        result, status = None, "timeout"
    except Exception as exc:  # a raising case is a failed case, not a failed run
        result, status = None, f"raised {type(exc).__name__}: {exc}"[:300]
    finally:
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, seconds, result


def run_pass(workload, seed: int, index: int, tracer, scratch: Path) -> dict:
    import workloads as wl

    cases = list(workload.cases)
    random.Random(seed * 1000 + index).shuffle(cases)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    span = tracer.span if tracer else (lambda name, fn: fn())
    records = []
    speed = []
    wall = 0.0
    try:
        # cold pass: every case computed; CLI cases miss and store
        for case in cases:
            speed.append(speed_probe())
            if tracer:
                tracer.case = case.id
            if case.suite is None:
                status, seconds, out = _timed(case, lambda: span("case.pipeline", lambda: wl.run_pipeline(case)))
                code = 0
            else:
                status, seconds, out = _timed(case, lambda: span("case.cli", lambda: wl.run_cli(case.argv(cache_dir))))
                code, out = out if out is not None else (None, None)
            wall += seconds
            rec = {"case": case.id, "status": status, "seconds": seconds, "exit_code": code, "digest": None}
            if status == "ok":
                try:
                    payload = wl.pipeline_payload(out) if case.suite is None else wl.cli_payload(out)
                    rec["digest"] = wl.digest(payload)
                except (ValueError, KeyError, TypeError) as exc:
                    rec["status"] = f"bad payload: {exc}"[:300]
            records.append(rec)
        speed.append(speed_probe())
        # warm replays: every CLI case answered from the cache
        if tracer:
            tracer.warm = True
            tracer.case = "warm"
        stored = [(c, r) for c, r in zip(cases, records) if r["digest"] and c.suite]
        warm_times = []
        warm_bad = []
        for _ in range(WARM_REPLAYS if stored else 0):
            start = perf_counter()
            outs = [wl.run_cli(case.argv(cache_dir)) for case, _rec in stored]
            warm_times.append(perf_counter() - start)
            for (case, rec), (code, out) in zip(stored, outs):
                try:
                    ok = code == rec["exit_code"] and wl.digest(wl.cli_payload(out)) == rec["digest"]
                except (ValueError, KeyError, TypeError):
                    ok = False
                if not ok:
                    warm_bad.append(case.id)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result = {
        "wall_s": wall,
        "speed": speed,
        "warm_times": warm_times,
        "warm_attempted": WARM_REPLAYS * len(stored),
        "warm_failed": warm_bad,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": records,
    }
    if tracer:
        agg = tracer.aggregate()
        result["trace"] = {
            "spans": agg,
            "counts": tracer.counts(agg),
            "missing": tracer.missing,
        }
        tracer.dump(scratch / f"spans-{workload.name}-seed{seed}-pass{index}.json")
    return result


def main(argv: list[str]) -> int:
    import workloads as wl

    mode, name = argv[0], argv[1]
    workload = wl.WORKLOADS[name]
    if mode == "setup":
        setup(workload)
        print("ready", flush=True)
        print(json.dumps([speed_probe() for _ in range(SETUP_PROBES)]), flush=True)
        return 0
    seed, index, trace, scratch = int(argv[2]), int(argv[3]), argv[4] == "1", Path(argv[5])
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if trace:
        import superdirac.cli  # noqa: F401  (load every module before wrapping)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.case = "setup"
    setup(workload)
    os.makedirs(scratch, exist_ok=True)
    print(json.dumps(run_pass(workload, seed, index, tracer, scratch)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
