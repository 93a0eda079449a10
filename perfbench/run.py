"""End-to-end scenario benchmark with a layer-attributed traced run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fanout_store [--seed 0]
        [--seconds 40] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload

Each workload is a registered open-loop scenario (see ``workloads.py``);
one run covers a *round* of its scenario seeds. The run starts a fresh
process that makes passes over the round for ``--seconds`` and times
``ScenarioRun.run()``; between passes it times set-up (``import repro``,
build the worlds, schedule the arrivals) in further fresh processes. With
``--trace 1`` a third of that time goes to untraced passes and the rest to
traced ones, which charge host time exclusively to the program's layers and
write a Chrome trace-event file under ``perfbench/out/``.

Every run is checked: schema-valid scorecards whose ``ok`` is true, the
accounting identity, no dead battery, canonical scorecards, counters and
latency samples identical on every pass (traced ones included), and the
archetype's golden scorecard at seed 0. The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: ``attempted``
counts the checked scenario runs and ``failed`` those in a workload with a
failed check. The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import NAMED_LAYERS  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, MOVES, PER_LAYER, WORKLOADS,
)

#: Hard limit on one worker process, well inside the 180 s run limit.
WORKER_TIMEOUT_S = 150.0
#: A p99 needs at least ten samples beyond it.
MIN_OK = 1000


def middle_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    On a shared host the run-to-run noise is broad rather than a few
    outliers, so averaging the middle half is steadier than the median,
    while the trimmed quarters still drop stray slow runs."""
    ordered = sorted(values)
    k = len(ordered) // 4
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def round_time(passes: List[List[Dict[str, Any]]],
               value: Callable[[Dict[str, Any]], float]) -> float:
    """A round's time: the middle mean of each scenario seed's runs over
    the passes, summed over the seeds."""
    by_seed: Dict[int, List[float]] = {}
    for one_pass in passes:
        for run in one_pass:
            by_seed.setdefault(run["seed"], []).append(value(run))
    return sum(middle_mean(v) for v in by_seed.values())


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def worker(*args: str, timeout: float = WORKER_TIMEOUT_S) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["repro_file"]).resolve().parent.parent != ROOT / "src":
        raise BenchError(f"imported repro from {out['repro_file']}, "
                         f"not from {ROOT / 'src'}")
    return out


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[Dict[str, Any], List[str], int]:
    """Returns (report, failed checks, scenario runs checked)."""
    measured = worker("measure", name, str(seed), str(seconds),
                      "1" if trace else "0")
    passes, traced = measured["passes"], measured["traced"]
    setups = measured["setups"]
    failures = check(measured, trace)
    runs = 1 + sum(len(p) for p in passes + traced)  # + the golden run

    rnd = measured["round"]
    arrivals, ok = rnd["arrivals"], rnd["ok"]
    latency = rnd["latency"]
    # Host times are scaled to the reference host's speed (reference.py).
    speed = REFERENCE_S / middle_mean(measured["reference"])
    wall = round_time(passes, lambda r: r["wall_s"])
    setup = middle_mean([s["import_s"] + s["build_s"] for s in setups])
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "round": rnd, "measured": measured,
        "host_wall_s": wall,
    }
    report["e2e"] = {
        "wall_s": wall * speed,
        "setup_s": setup * speed,
        "peak_rss_mb": measured["peak_rss_mb"],
        "sim_p50_latency_s": latency["p50"],
        "sim_p99_latency_s": latency["p99"],
        "goodput_per_sim_s": ok / rnd["horizon_s"],
        "slo_met_share": rnd["ok_within_slo"] / arrivals,
        "answered_share": (ok + rnd["refused"]) / arrivals,
        "sim_energy_per_ok_j": rnd["energy_j"] / ok,
    }
    unanswered = rnd["failed"] + rnd["pending"]
    report["notes"] = {
        "wall_s": f"host {wall:.4f} s x speed {speed:.4f}; middle mean of "
                  f"{len(passes)} passes: " + " ".join(
                      f"{sum(r['wall_s'] for r in p):.3f}" for p in passes),
        "setup_s": f"host {setup:.4f} s x speed {speed:.4f}; middle mean "
                   f"of {len(setups)} fresh processes",
        "sim_p99_latency_s": f"{latency['count']} OK samples, "
                             f"{latency['beyond_p99']} beyond p99",
        "slo_met_share": "slo_miss_share "
                         f"{1 - rnd['ok_within_slo'] / arrivals:.6f}",
        "answered_share": f"failed_share {unanswered / arrivals:.6f} = "
                          f"({rnd['failed']} failed + {rnd['pending']} "
                          f"pending) / {arrivals}",
    }
    if trace:
        report["layers"] = layer_metrics(report, setups, traced)
    return report, failures, runs


def check(measured: Dict[str, Any], trace: bool) -> List[str]:
    failures: List[str] = []
    golden = measured["golden"]
    if not golden["ok"]:
        failures.append(f"golden scorecard mismatch: {golden['detail']}")
    first = {r["seed"]: r for r in measured["passes"][0]}
    for number, one_pass in enumerate(measured["passes"] + measured["traced"]):
        for run in one_pass:
            where = f"pass {number}, scenario seed {run['seed']}"
            failures += [f"{where}: {p}" for p in run["problems"]]
            for key in ("digest", "counters", "latencies_digest"):
                if run[key] != first[run["seed"]][key]:
                    failures.append(f"{where}: {key} differs from pass 0")
    if measured["round"]["ok"] < MIN_OK:
        failures.append(f"only {measured['round']['ok']} OK requests; "
                        f"the p99 needs {MIN_OK}")
    if trace:
        by_seed: Dict[int, Dict[str, Any]] = {}
        for one_pass in measured["traced"]:
            for run in one_pass:
                counts = {k: run[k] for k in ("layer_spans", "sends",
                                              "sent_bytes", "match_calls",
                                              "match_hits")}
                if by_seed.setdefault(run["seed"], counts) != counts:
                    failures.append(f"traced counts of scenario seed "
                                    f"{run['seed']} differ between passes")
        failures += validate_trace(measured["trace_file"])
    return failures


def validate_trace(relpath: str) -> List[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", "--validate", relpath],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"trace validation of {relpath} timed out"]
    if proc.returncode != 0:
        return [f"trace {relpath} rejected: {proc.stderr.strip()[:500]}"]
    return []


def layer_metrics(report: Dict[str, Any], setups: List[Dict[str, Any]],
                  traced: List[List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Per-layer values: times are round times over the traced passes
    (see :func:`round_time`); counts are totals over the round."""

    def self_time(layer: str) -> float:
        return round_time(traced,
                          lambda r: r["layer_self_s"].get(layer, 0.0))

    first = traced[0]

    def spans(layer: str) -> int:
        return sum(r["layer_spans"].get(layer, 0) for r in first)

    counters = report["round"]["counters"]
    untraced_wall = report["host_wall_s"]
    traced_wall = round_time(traced, lambda r: r["wall_s"])
    unattributed = round_time(traced, lambda r: r["wall_s"] - sum(
        r["layer_self_s"].get(layer, 0.0) for layer in NAMED_LAYERS))
    match_calls = sum(r["match_calls"] for r in first)
    requests = counters["replication.requests"]
    retries = (counters["replication.client_failovers"]
               + counters["replication.client_redirects"]
               + counters["replication.client_rejections"])
    values: Dict[str, float] = {
        "netsim.self_s": self_time("netsim"),
        "netsim.events_per_host_s": counters["netsim.events"] / untraced_wall,
        "interop.encode.calls": spans("interop.encode"),
        "interop.encode.self_s": self_time("interop.encode"),
        "interop.decode.calls": spans("interop.decode"),
        "interop.decode.self_s": self_time("interop.decode"),
        "interop.size.calls": spans("interop.size"),
        "interop.size.self_s": self_time("interop.size"),
        "transport.self_s": self_time("transport"),
        "transport.sends": sum(r["sends"] for r in first),
        "transport.sent_bytes": sum(r["sent_bytes"] for r in first),
        "tuplespace.self_s": self_time("tuplespace"),
        "tuplespace.match_calls": match_calls,
        "tuplespace.match_hit_ratio": (
            sum(r["match_hits"] for r in first) / match_calls
            if match_calls else 0.0),
        "rpc.self_s": self_time("rpc"),
        "qos.admission.self_s": self_time("qos.admission"),
        "replication.self_s": self_time("replication"),
        "replication.attempts_per_request": (
            (requests + retries) / requests if requests else 0.0),
        "recovery.self_s": self_time("recovery"),
        "workloads.self_s": self_time("workloads"),
        "setup.import_s": middle_mean([s["import_s"] for s in setups]),
        "setup.build_s": middle_mean([s["build_s"] for s in setups]),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": unattributed,
    }
    for metric in PER_LAYER:
        if metric.name not in values:
            values[metric.name] = counters[metric.name]
    layers = {layer for r in first for layer in r["layer_self_s"]}
    table = sorted(((layer, self_time(layer), spans(layer))
                    for layer in layers), key=lambda row: -row[1])
    return {"values": values, "table": table, "traced_wall": traced_wall,
            "traced_passes": len(traced)}


def fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(report: Dict[str, Any], trace: bool) -> None:
    name = report["workload"]
    w = WORKLOADS[name]
    rnd = report["round"]
    seeds = report["measured"]["scenario_seeds"]
    print(f"== {name}: {w.scenario}, chaos mix {w.chaos_mix or 'none'}, "
          f"horizon {w.horizon_s:g} sim_s, scenario seeds "
          f"{seeds[0]}..{seeds[-1]} (run seed {report['seed']})")
    print(f"   arrivals {rnd['arrivals']}  ok {rnd['ok']}  refused "
          f"{rnd['refused']}  failed {rnd['failed']}  pending "
          f"{rnd['pending']}")
    if not trace:
        for metric in END_TO_END:
            value = report["e2e"][metric.name]
            note = report["notes"].get(metric.name, "")
            print(f"   {metric.name:<20} {fmt(value):>12} {metric.unit:<10}"
                  f" {metric.better:<6} {note}")
        return
    layers = report["layers"]
    tw = layers["traced_wall"]
    print(f"   traced wall {tw:.4f} s ({layers['traced_passes']} "
          f"passes), untraced {report['host_wall_s']:.4f} s")
    print(f"   {'layer':<16} {'self_s':>10} {'share':>8} {'spans':>10}")
    for layer, self_s, spans in layers["table"]:
        print(f"   {layer:<16} {self_s:>10.4f} {self_s / tw:>8.1%} "
              f"{spans:>10}")
    values = layers["values"]
    print(f"   attributed to named layers: "
          f"{1 - values['trace.unattributed_s'] / tw:.2%}")
    measured = report["measured"]
    print(f"   trace file {measured['trace_file']} "
          f"({measured['trace_spans_written']} spans)")
    for metric in PER_LAYER:
        print(f"   {metric.name:<34} {fmt(values[metric.name]):>14} "
              f"{metric.unit:<8} -> {MOVES[metric.name]}")


def metric_block(report: Dict[str, Any], trace: bool,
                 prefix: str = "") -> Dict[str, Any]:
    values = report["layers"]["values"] if trace else report["e2e"]
    return {f"{prefix}{m.name}": {"value": values[m.name], "unit": m.unit}
            for m in (PER_LAYER if trace else END_TO_END)}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="run seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured host seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    failures: List[str] = []
    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    for name in names:
        try:
            report, problems, runs = run_workload(name, args.seed,
                                                  args.seconds, trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_report(report, trace)
        attempted += runs
        # Runs of a workload are checked against each other, so one failed
        # check fails all of them.
        failed += runs if problems else 0
        failures += [f"{name}: {p}" for p in problems]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(metric_block(report, trace, prefix))
    for problem in failures:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
