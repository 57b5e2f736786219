"""superdirac benchmark driver.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from the repository root; the program is imported from ``src``. Every
pass runs in a fresh worker process (``worker.py``), one process at a time,
so each pass starts cold and its peak memory is its own. Cases are checked
against ``reference.json``. A summary goes to stdout, and the last line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
(spans are written to ``.perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench"
SETUP_PROBES = 9  # at least this many, two before each pass so they span the run
# Reported times are scaled to a machine on which one speed probe
# (worker.speed_probe) takes PROBE_REF_S; the probe's median in the run
# gives the scale.
PROBE_REF_S = 0.05
SLACK_S = 15.0
DEADLINE_S = 165.0  # a run must end within 180 s, whatever its cases do

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


PER_LAYER = [*tracer.SPAN_METRICS, *tracer.COUNT_METRICS, "cli.warm_replay_s", "trace_overhead_frac"]


# ----- worker processes ----------------------------------------------------------------
def _worker(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def setup_seconds(workload) -> tuple[float, list[float]]:
    """Worker start until superdirac is imported and the root data is built,
    and the speed probes the worker ran after that."""
    start = perf_counter()
    proc = _worker("setup", workload.name)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed: {err.strip()[-2000:]}")
    return elapsed, json.loads(out)


def run_pass(workload, seed: int, index: int, traced: bool, scratch: Path, budget: float) -> dict:
    budget = max(1.0, min(budget, sum(c.budget_s for c in workload.cases) + SLACK_S))
    proc = _worker("pass", workload.name, str(seed), str(index), "1" if traced else "0", str(scratch))
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        # the worker died: every case of the pass is a failed case
        why = f"worker exited {proc.returncode}: {err.strip()[-300:]}"
        return {
            "wall_s": None, "speed": [], "warm_times": [], "warm_attempted": 0, "warm_failed": [],
            "peak_rss_mb": None,
            "cases": [{"case": c.id, "status": why, "seconds": None, "exit_code": None,
                       "digest": None} for c in workload.cases],
        }


# ----- checking ------------------------------------------------------------------------
def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_case(case, rec: dict, ref: dict | None) -> str:
    """ok, changed (a known defect that no longer matches), or a failure reason."""
    if rec["status"] != "ok":
        return rec["status"]
    if ref is None:
        return "no reference"
    if rec["digest"] == ref["digest"] and rec["exit_code"] == ref["exit_code"]:
        return "ok"
    if case.known_defect:
        return "changed"
    return f"mismatch: exit {rec['exit_code']} (reference {ref['exit_code']}), digest differs"


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _min(values):
    values = [v for v in values if v is not None]
    return min(values) if values else None


# ----- one workload --------------------------------------------------------------------
def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    scratch = SCRATCH / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    setups: list[float] = []
    probes: list[float] = []
    plain, traced = [], []
    start = perf_counter()
    deadline = start + DEADLINE_S
    while True:
        group_start = perf_counter()
        for _ in range(2):
            elapsed, speed = setup_seconds(workload)
            setups.append(elapsed)
            probes += speed
        plain.append(run_pass(workload, seed, len(plain) + len(traced), False, scratch,
                              deadline - perf_counter()))
        if trace:
            traced.append(run_pass(workload, seed, len(plain) + len(traced), True, scratch,
                                   deadline - perf_counter()))
        took = perf_counter() - group_start
        if perf_counter() - start + took > seconds:
            break
    while len(setups) < SETUP_PROBES:
        elapsed, speed = setup_seconds(workload)
        setups.append(elapsed)
        probes += speed
    for res in plain + traced:
        probes += res["speed"]
    if not trace:
        shutil.rmtree(scratch, ignore_errors=True)  # held only the caches

    cases = {c.id: c for c in workload.cases}
    attempted = failed = 0
    failures: list[str] = []
    defects: dict[str, set] = {}
    for res in plain + traced:
        attempted += len(res["cases"]) + res["warm_attempted"]
        failed += len(res["warm_failed"])
        failures += [f"{cid}: warm replay differs from the cold result" for cid in res["warm_failed"]]
        for rec in res["cases"]:
            case = cases[rec["case"]]
            verdict = check_case(case, rec, reference.get(case.id))
            if case.known_defect and verdict in ("ok", "changed"):
                defects.setdefault(case.id, set()).add((verdict, rec["exit_code"]))
            elif verdict != "ok":
                failed += 1
                failures.append(f"{case.id}: {verdict}")

    # Timings are medians over the run, scaled by the speed probe: on a
    # shared machine other tenants slow all Python code for seconds to
    # minutes at a time, and the probe, timed between the cases and after
    # each set-up, slows with it. wall_s adds up each case's median cold run.
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in plain],
        "warm_s": [_median(r["warm_times"]) for r in plain],
    }
    scale = PROBE_REF_S / statistics.median(probes)
    raw = {
        "setup_s": _median(setups),
        "wall_s": median_case_sum(plain),
        "warm_s": _median(samples["warm_s"]),
    }
    e2e = {name: None if value is None else value * scale for name, value in raw.items()}
    if e2e["warm_s"] is None:  # no CLI cases, nothing replayed
        e2e["warm_s"] = 0.0
    e2e["peak_rss_mb"] = _median(r["peak_rss_mb"] for r in plain)
    summary = {
        "workload": workload.name,
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": samples,
        "raw": raw,
        "probes": probes,
        "scale": scale,
        "e2e": e2e,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "defects": defects,
        "unstable": [],
        "missing": [],
    }
    if trace:
        summary["per_layer"] = per_layer(traced, raw["wall_s"], summary)
        summary["per_layer"]["cli.warm_replay_s"] = e2e["warm_s"]
    return summary


def median_case_sum(passes: list[dict]) -> float | None:
    seconds: dict[str, list[float]] = {}
    for res in passes:
        for rec in res["cases"]:
            if rec["status"] == "ok":
                seconds.setdefault(rec["case"], []).append(rec["seconds"])
    if not passes or len(seconds) < len(passes[0]["cases"]):
        return None
    return sum(statistics.median(v) for v in seconds.values())


def per_layer(traced: list[dict], untraced_wall: float | None, summary: dict) -> dict:
    usable = [r for r in traced if "trace" in r]
    if not usable:
        summary["failed"] += 1
        summary["failures"].append("no traced pass completed")
        return {}
    out = {}
    for metric, (span, field) in tracer.SPAN_METRICS.items():
        col = ["calls", "total", "self"].index(field)
        values = [r["trace"]["spans"].get(span, [0, 0.0, 0.0])[col] for r in usable]
        if field == "calls" and len(set(values)) > 1:
            summary["unstable"].append(f"{metric}: {values}")
        out[metric] = _min(values)
    for metric in tracer.COUNT_METRICS:
        values = [r["trace"]["counts"][metric] for r in usable]
        if len(set(values)) > 1:
            summary["unstable"].append(f"{metric}: {values}")
        out[metric] = values[0]
    traced_wall = median_case_sum(usable)
    out["trace_overhead_frac"] = (
        traced_wall / untraced_wall - 1 if traced_wall and untraced_wall else 0.0
    )
    summary["missing"] = sorted({m for r in usable for m in r["trace"]["missing"]})
    return out


# ----- output --------------------------------------------------------------------------
def print_summary(s: dict) -> None:
    e = s["e2e"]
    frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"== {s['workload']}: {s['passes']} untraced pass(es), {s['traced_passes']} traced")

    def line(name, value, unit, note):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14}{shown:>14} {unit:<6} {note}")

    probe = statistics.median(s["probes"])
    print(f"  speed probe: median {probe:.6g} s of {len(s['probes'])}, so times are scaled "
          f"by {s['scale']:.4g} (to {PROBE_REF_S} s per probe)")
    for name, what in (
        ("setup_s", "worker starts"),
        ("wall_s", "cold passes (sum of each case's median)"),
        ("warm_s", "passes' median warm replay"),
    ):
        values = s["samples"][name]
        if s["raw"][name] is None:
            line(name, None, "s", "no CLI cases to replay")
            continue
        line(name, e[name], "s", f"scaled median of {len(values)} {what}; unscaled {s['raw'][name]:.6g}")
    line("peak_rss_mb", e["peak_rss_mb"], "MB", "median worker ru_maxrss")
    line("failed_frac", frac, "ratio", f"{s['failed']} of {s['attempted']} case runs failed")
    for cid, seen in sorted(s["defects"].items()):
        shown = ", ".join(f"exit {code} ({verdict})" for verdict, code in sorted(seen))
        print(f"  known defect {cid}: {shown}")
    for f in s["failures"][:20]:
        print(f"  FAILED {f}")
    for u in s["unstable"]:
        print(f"  UNSTABLE count {u}")
    if "per_layer" in s:
        print("  per-layer (fastest traced pass for times):")
        for name, value in s["per_layer"].items():
            print(f"    {name:<42}{value:>14.6g} {_unit(name)}")
        print("  out of reach of the wrappers:")
        for name in s["missing"]:
            print(f"    {name}: not found in the package")
        for name, why in tracer.UNREACHABLE.items():
            print(f"    {name}: {why}")


def result_line(s: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": s["per_layer"].get(name, 0), "unit": _unit(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": s["e2e"][name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = s["failed"] == 0 and not s["unstable"] and all(
        m["value"] is not None for m in metrics.values()
    )
    return {"correct": correct, "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}


def record_reference() -> int:
    reference = {}
    scratch = SCRATCH / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    for workload in wl.WORKLOADS.values():
        res = run_pass(workload, 0, 0, False, scratch, DEADLINE_S)
        for rec in res["cases"]:
            if rec["status"] != "ok":
                print(f"{rec['case']}: {rec['status']}", file=sys.stderr)
                return 1
            reference[rec["case"]] = {"digest": rec["digest"], "exit_code": rec["exit_code"]}
            print(f"{rec['case']}: exit {rec['exit_code']} {rec['seconds']:.2f} s")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "superdirac" / "__init__.py").is_file():
        print(f"error: no superdirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        s = run_workload(wl.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
        print_summary(s)
        print(json.dumps(result_line(s, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
