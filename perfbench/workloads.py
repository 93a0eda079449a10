"""The benchmark's workloads, metric catalogue and layer predictions.

The catalogue (workload names and reasons, metric names, units, direction
and bounds) is read from ``BENCHMARK.json`` at the repository root; this
module adds only what that file cannot hold: each workload's scenario,
chaos mix, horizon and round size, and the end-to-end metric each
per-layer metric is predicted to move. It has no dependency on ``repro``,
so the orchestrator (:mod:`run`) can validate its arguments before anything
from the system under test is imported.

Every workload is an open-loop registered scenario: the traffic model
pre-schedules every arrival in virtual time before the first event, so the
generator can never run late, and the horizon is part of the workload's
definition. The seed is the only input that varies between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: Run seed when ``--seed`` is not given.
DEFAULT_SEED = 0
#: Seed of the reference scorecards in ``tests/golden`` and the horizon
#: they were recorded at (the runner's default).
GOLDEN_SEED = 0
GOLDEN_HORIZON_S = 24.0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    chaos_mix: Optional[str]
    horizon_s: float
    #: Scenario seeds pooled into one run (a "round"): run seed ``n``
    #: covers scenario seeds ``n * seeds_per_run`` onwards.
    seeds_per_run: int

    def scenario_seeds(self, seed: int) -> List[int]:
        first = seed * self.seeds_per_run
        return list(range(first, first + self.seeds_per_run))

    @property
    def archetype(self) -> str:
        return self.scenario.split(":", 1)[0]

    @property
    def traffic(self) -> str:
        return self.scenario.split(":", 1)[1]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanout_store",
            scenario="chat_fanout:flash_crowd",
            chaos_mix=None,
            horizon_s=300.0,
            seeds_per_run=1,
        ),
        Workload(
            name="ledger_partition",
            scenario="telemetry_ledger:flash_crowd",
            chaos_mix="partition",
            horizon_s=100.0,
            # Whether the two partition windows overlap (quorum lost) is a
            # coin flip per scenario seed, so one seed's p99 is 1 s or 10 s;
            # pooling 16 seeds per run makes the sim metrics repeatable.
            seeds_per_run=16,
        ),
        Workload(
            name="api_shed",
            scenario="api_rpc:flash_crowd",
            chaos_mix=None,
            horizon_s=2400.0,
            seeds_per_run=1,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may get
    #: worse; per-layer metrics have none.
    bound: Optional[float] = None


#: What a user of the simulator sees (definitions in README.md). "Host"
#: metrics are real time spent by the simulator; "sim" metrics are virtual
#: time of the modelled system (unit ``sim_s``) and a pure function of
#: (workload, seed).
END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(**m) for m in SPEC["end_to_end"])
#: Per-layer metrics from the traced run and the public counters.
PER_LAYER: Tuple[Metric, ...] = tuple(Metric(**m) for m in SPEC["per_layer"])

#: The end-to-end metric and workload(s) each per-layer metric is
#: predicted to move. On every other workload the prediction is "no
#: change".
MOVES: Dict[str, str] = {
    "netsim.self_s":
        "wall_s on all three, most on ledger_partition, least on fanout_store",
    "netsim.events": "wall_s on ledger_partition",
    "netsim.events_per_host_s":
        "wall_s on all three (lower event counts also lower it)",
    "netsim.transmissions": "wall_s on ledger_partition",
    "netsim.deliveries": "wall_s on ledger_partition",
    "netsim.bytes_transmitted": "wall_s on ledger_partition",
    "netsim.drops": "answered_share and sim_p99_latency_s on ledger_partition",
    "interop.encode.calls": "wall_s on api_shed and fanout_store",
    "interop.encode.self_s": "wall_s on api_shed and fanout_store",
    "interop.decode.calls": "wall_s on api_shed and fanout_store",
    "interop.decode.self_s": "wall_s on api_shed and fanout_store",
    "interop.size.calls": "wall_s on ledger_partition only",
    "interop.size.self_s": "wall_s on ledger_partition only",
    "interop.encode_skipped": "wall_s on ledger_partition",
    "transport.self_s": "wall_s on all three, most on ledger_partition",
    "transport.sends": "wall_s on all three, most on ledger_partition",
    "transport.sent_bytes": "wall_s on all three, most on ledger_partition",
    "transport.frames_passthrough": "wall_s on ledger_partition",
    "tuplespace.self_s": "wall_s on fanout_store only",
    "tuplespace.ops": "wall_s on fanout_store only",
    "tuplespace.stored": "wall_s on fanout_store only",
    "tuplespace.match_calls": "wall_s on fanout_store only",
    "tuplespace.match_hit_ratio": "wall_s on fanout_store only",
    "rpc.self_s": "wall_s and sim_p99_latency_s on api_shed",
    "rpc.calls_served": "wall_s and sim_p99_latency_s on api_shed",
    "qos.admission.self_s": "slo_met_share and wall_s on api_shed",
    "qos.admission.admitted": "slo_met_share and wall_s on api_shed",
    "qos.admission.rejected": "slo_met_share and wall_s on api_shed",
    "replication.self_s":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.log_appends":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.commits":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.catchups":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.election_rounds":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.client_failovers":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.client_redirects":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.client_rejections":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "replication.attempts_per_request":
        "wall_s, answered_share and sim_p99_latency_s on ledger_partition",
    "recovery.self_s": "wall_s on ledger_partition",
    "workloads.self_s": "wall_s on api_shed",
    "setup.import_s": "setup_s on all three",
    "setup.build_s": "setup_s, most on api_shed",
    "trace.overhead_s": "none (cost of the traced run)",
    "trace.unattributed_s": "none (traced time outside every named layer)",
}

if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS) \
        or set(MOVES) != {m.name for m in PER_LAYER}:
    raise RuntimeError("BENCHMARK.json and perfbench/workloads.py disagree")
