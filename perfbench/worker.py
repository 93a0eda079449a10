"""One fresh benchmark process: set-up timing or measured passes.

Started by :mod:`run`; puts the checkout's ``src`` first on ``sys.path``
and prints exactly one JSON object on its last stdout line. Modes::

    worker.py setup   WORKLOAD SEED       # time import + world builds
    worker.py measure WORKLOAD SEED SECONDS TRACE
    worker.py paired  WORKLOAD SCENARIO_SEED PAIRS FACTOR TRACE

A run of a workload covers a *round*: the workload's scenario at each of
its ``seeds_per_run`` scenario seeds. ``measure`` first checks the
archetype's golden scorecard, then makes passes over the round until about
SECONDS have gone (with TRACE=1, a third untraced and the rest traced).
Between the untraced passes it times ``SETUP_PROCESSES`` fresh ``setup``
processes and the host's speed (see ``reference.py``), so that set-up,
passes and speed sample the machine at the same times.
Each scenario run reports its canonical scorecard digest, its public
counters and a digest of its OK-latency samples, so the orchestrator can
check that every pass repeats the first exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_sample  # noqa: E402
from workloads import GOLDEN_HORIZON_S, GOLDEN_SEED, WORKLOADS  # noqa: E402

#: Spans written to the Chrome trace file (a prefix in start order).
MAX_TRACE_SPANS = 50_000
#: Fresh processes timed for ``setup_s`` in one run.
SETUP_PROCESSES = 15
#: Reference-work samples taken after each untraced pass.
REFERENCE_SAMPLES = 5


class _Samples:
    """Stands in for the runner's latency histogram and keeps every OK
    latency, so percentiles are exact rather than bucket edges."""

    def __init__(self, histogram: Any):
        self._histogram = histogram
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)
        self._histogram.observe(value)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._histogram, attr)


class SizeSlowdown:
    """A planted regression, made from outside the program: while ``on``,
    ``BinaryCodec.encoded_size`` spins after each call until it has taken
    ``factor`` times as long. The wrapper stays installed while ``off`` so
    that planted and baseline repetitions differ only by the spin."""

    def __init__(self, factor: float):
        from repro.interop.codec import BinaryCodec

        self.factor = factor
        self.on = True
        self.calls = 0
        original = BinaryCodec.encoded_size
        perf = time.perf_counter
        plant = self

        def encoded_size(codec, value):
            plant.calls += 1
            if not plant.on:
                return original(codec, value)
            t0 = perf()
            result = original(codec, value)
            until = t0 + (perf() - t0) * plant.factor
            while perf() < until:
                pass
            return result

        BinaryCodec.encoded_size = encoded_size


def _spec(workload_name: str, scenario_seed: int):
    from repro.workloads import parse_spec

    workload = WORKLOADS[workload_name]
    return parse_spec(workload.scenario, scenario_seed,
                      horizon_s=workload.horizon_s,
                      chaos_mix=workload.chaos_mix)


def golden_check(workload_name: str) -> Dict[str, Any]:
    """The fault-free scenario at seed 0 and the default horizon must
    reproduce its checked-in golden scorecard byte for byte."""
    from repro.workloads import run_scenario

    workload = WORKLOADS[workload_name]
    path = (ROOT / "tests" / "golden"
            / f"{workload.archetype}__{workload.traffic}__seed{GOLDEN_SEED}"
              ".json")
    card = run_scenario(workload.scenario, GOLDEN_SEED,
                        horizon_s=GOLDEN_HORIZON_S)
    rendered = (json.dumps(card, sort_keys=True, indent=2) + "\n").encode()
    try:
        expected = path.read_bytes()
    except OSError as exc:
        return {"ok": False, "detail": f"cannot read {path.name}: {exc}"}
    return {"ok": rendered == expected, "detail": path.name}


def public_counters(run: Any) -> Dict[str, float]:
    """Deterministic counters the program already exposes."""
    from repro.obs.metrics import get_registry

    arch = run.archetype
    medium = arch.network.medium
    registry = get_registry()
    counters: Dict[str, float] = {
        "netsim.events": run.sim.events_processed,
        "netsim.transmissions": medium.transmissions,
        "netsim.deliveries": medium.deliveries,
        "netsim.bytes_transmitted": medium.bytes_transmitted,
        "netsim.drops": (medium.drops_loss + medium.drops_partitioned
                         + medium.drops_dead + medium.drops_faulted),
        "netsim.drops_dead": medium.drops_dead,
        "interop.encode_skipped": registry.counter_total(
            "codec.encode_skipped"),
        "transport.frames_passthrough": registry.counter_total(
            "transport.frames.passthrough"),
        "replication.log_appends": registry.counter_total("repl.log.appends"),
        "replication.commits": registry.counter_total("repl.log.commits"),
        "replication.catchups": registry.counter_total("repl.log.catchups"),
        "replication.election_rounds": registry.counter_total(
            "repl.election.rounds"),
        "replication.requests": 0, "tuplespace.ops": 0,
        "tuplespace.stored": 0, "rpc.calls_served": 0,
        "qos.admission.admitted": 0, "qos.admission.rejected": 0,
        "replication.client_failovers": 0, "replication.client_redirects": 0,
        "replication.client_rejections": 0,
    }
    server = getattr(arch, "server", None)
    if hasattr(server, "outs"):  # tuple space
        counters["tuplespace.ops"] = server.outs + server.reads + server.takes
        counters["tuplespace.stored"] = len(server)
    if hasattr(server, "calls_served"):  # RPC
        counters["rpc.calls_served"] = server.calls_served
    for admission in getattr(arch, "admissions", {}).values():
        counters["qos.admission.admitted"] += admission.admitted
        counters["qos.admission.rejected"] += admission.rejected
    client = getattr(arch, "client", None)
    if hasattr(client, "stats"):  # replica-group client
        stats = client.stats()
        counters["replication.requests"] = run.issued
        counters["replication.client_failovers"] = stats["failovers"]
        counters["replication.client_redirects"] = stats["redirects"]
        counters["replication.client_rejections"] = stats["rejections"]
    return counters


def card_problems(card: Dict[str, Any], latencies: List[float],
                  counters: Dict[str, float]) -> List[str]:
    from repro.workloads import validate_scorecard

    problems = validate_scorecard(card)
    if problems:
        return problems
    if not card["ok"]:
        problems.append("scorecard ok is false: " + "; ".join(
            card["archetype_detail"].get("consistency_violations", [])))
    drops = card["drops"]
    settled = (card["goodput"]["ok"] + drops["failed"] + drops["refused"]
               + drops["pending"])
    if settled != card["offered"]["arrivals"]:
        problems.append(f"accounting: ok+failed+refused+pending {settled} "
                        f"!= arrivals {card['offered']['arrivals']}")
    if not len(latencies) == card["latency"]["count"] \
            == card["goodput"]["ok"]:
        problems.append("OK-latency samples differ from the OK count")
    if counters["netsim.drops_dead"]:
        problems.append("a battery died during the run")
    return problems


def one_run(workload_name: str, scenario_seed: int,
            tracer: Any = None) -> Dict[str, Any]:
    """Build the world (untimed), then time ``ScenarioRun.run()``."""
    from repro.workloads import ScenarioRun, canonical_bytes

    gc.collect()
    run = ScenarioRun(_spec(workload_name, scenario_seed))
    samples = _Samples(run.latency)
    run.latency = samples
    if tracer is not None:
        tracer.reset()
    started = time.perf_counter()
    card = run.run()
    wall_s = time.perf_counter() - started
    latencies = sorted(samples.values)
    counters = public_counters(run)
    target = run.archetype.slo_target_s
    return {
        "seed": scenario_seed,
        "wall_s": wall_s,
        "card": card,
        "latencies": latencies,
        "ok_within_slo": sum(1 for v in latencies if v <= target),
        "digest": hashlib.sha256(canonical_bytes(card)).hexdigest(),
        "latencies_digest": hashlib.sha256(
            json.dumps(latencies).encode()).hexdigest(),
        "counters": counters,
        "problems": card_problems(card, latencies, counters),
    }


def pooled(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Round totals, with latency percentiles over every OK sample."""
    latencies = sorted(v for r in runs for v in r["latencies"])
    n = len(latencies)
    rank99 = max(1, math.ceil(0.99 * n))
    cards = [r["card"] for r in runs]

    def total(section: str, field: str) -> float:
        return sum(c[section][field] for c in cards)

    counters: Dict[str, float] = {}
    for r in runs:
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {
        "arrivals": total("offered", "arrivals"),
        "ok": total("goodput", "ok"),
        "refused": total("drops", "refused"),
        "failed": total("drops", "failed"),
        "pending": total("drops", "pending"),
        "energy_j": total("energy", "consumed"),
        "horizon_s": sum(c["horizon_s"] for c in cards),
        "ok_within_slo": sum(r["ok_within_slo"] for r in runs),
        "latency": {
            "count": n,
            "p50": latencies[max(1, math.ceil(0.5 * n)) - 1] if n else 0.0,
            "p99": latencies[rank99 - 1] if n else 0.0,
            "beyond_p99": n - rank99,
        },
        "counters": counters,
    }


def _public(run: Dict[str, Any]) -> Dict[str, Any]:
    """What the orchestrator needs from a run (no samples, no card)."""
    return {k: v for k, v in run.items() if k not in ("card", "latencies")}


def _passes(seeds: List[int], seconds: float, min_passes: int, body,
            after=lambda fraction: None) -> List[List[Dict[str, Any]]]:
    """Passes over the round until another one would likely end past
    ``seconds`` (but at least ``min_passes``). ``after`` is called after
    each pass with the share of ``seconds`` gone, and its time counts."""
    passes: List[List[Dict[str, Any]]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append([body(seed) for seed in seeds])
        after((time.perf_counter() - start) / seconds)


def time_setup(workload_name: str, seed: int) -> Dict[str, float]:
    """One fresh ``setup`` process (bytecode is already cached, as it is
    for a user's second run)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup",
         workload_name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload_name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    import repro.workloads  # noqa: F401  (registers the scenarios)

    seeds = WORKLOADS[workload_name].scenario_seeds(seed)
    golden = golden_check(workload_name)
    # Only the first pass keeps its scorecards and samples, so the peak
    # memory does not grow with the number of passes a fast host fits in.
    first_pass: List[Dict[str, Any]] = []

    def untraced_run(scenario_seed: int) -> Dict[str, Any]:
        run = one_run(workload_name, scenario_seed)
        if len(first_pass) < len(seeds):
            first_pass.append(run)
        return _public(run)

    setups: List[Dict[str, float]] = []
    reference: List[float] = []

    def between_passes(fraction: float) -> None:
        while len(setups) < min(1.0, fraction) * SETUP_PROCESSES:
            setups.append(time_setup(workload_name, seed))
        reference.extend(reference_sample()
                         for _ in range(REFERENCE_SAMPLES))

    untraced_budget = seconds / 3 if trace else seconds
    passes = _passes(seeds, untraced_budget, 1 if trace else 3,
                     untraced_run, between_passes)
    between_passes(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result: Dict[str, Any] = {
        "golden": golden,
        "setups": setups,
        "reference": reference,
        "scenario_seeds": seeds,
        "peak_rss_mb": peak_rss_mb,
        "round": pooled(first_pass),
        "passes": passes,
        "traced": [],
    }
    if not trace:
        return result

    from layertrace import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        def traced_run(scenario_seed: int) -> Dict[str, Any]:
            run = _public(one_run(workload_name, scenario_seed, tracer))
            run["layer_self_s"] = tracer.layer_self_s()
            run["layer_spans"] = tracer.layer_spans()
            run["sends"] = tracer.sends
            run["sent_bytes"] = tracer.sent_bytes
            run["match_calls"] = tracer.match_calls
            run["match_hits"] = tracer.match_hits
            return run

        traced = _passes(seeds, seconds - untraced_budget, 1, traced_run)
        out = (ROOT / "perfbench" / "out"
               / f"{workload_name}-seed{seed}.trace.json")
        written = tracer.write_chrome_trace(
            out, f"perfbench {workload_name} seed {seed}", MAX_TRACE_SPANS)
    finally:
        tracer.uninstall()
    result["traced"] = traced
    result["trace_file"] = str(out.relative_to(ROOT))
    result["trace_spans_written"] = written
    return result


def paired(workload_name: str, scenario_seed: int, pairs: int,
           factor: float, trace: bool) -> Dict[str, Any]:
    """Alternate baseline and planted runs in one process, flipping the
    order every pair, so slow drifts of machine speed hit both sides."""
    import repro.workloads  # noqa: F401

    plant = SizeSlowdown(factor)
    tracer: Optional[Any] = None
    if trace:
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    rows: List[Dict[str, Any]] = []
    try:
        for i in range(pairs):
            row: Dict[str, Any] = {}
            for planted in ((False, True) if i % 2 == 0 else (True, False)):
                plant.on = planted
                plant.calls = 0
                run = one_run(workload_name, scenario_seed, tracer)
                side = {"wall_s": run["wall_s"], "size_calls": plant.calls,
                        "digest": run["digest"]}
                if tracer is not None:
                    side["layer_self_s"] = tracer.layer_self_s()
                row["planted" if planted else "baseline"] = side
            rows.append(row)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"pairs": rows}


def setup(workload_name: str, seed: int) -> Dict[str, Any]:
    """``import repro``, then build each world of the round and schedule
    its arrivals, up to its first event."""
    t0 = time.perf_counter()
    import repro.workloads  # noqa: F401
    t1 = time.perf_counter()
    from repro.workloads import ScenarioRun

    for scenario_seed in WORKLOADS[workload_name].scenario_seeds(seed):
        ScenarioRun(_spec(workload_name, scenario_seed))
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1}


def main(argv: List[str]) -> int:
    mode = argv[0]
    sys.path.insert(0, str(ROOT / "src"))
    out: Dict[str, Any]
    if mode == "setup":
        out = setup(argv[1], int(argv[2]))
    elif mode == "measure":
        out = measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    elif mode == "paired":
        out = paired(argv[1], int(argv[2]), int(argv[3]), float(argv[4]),
                     argv[5] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import repro

    out["repro_file"] = repro.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
