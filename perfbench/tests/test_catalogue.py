"""The metric catalogue and the tracer's layer names."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layertrace import layer_of_module  # noqa: E402
from workloads import END_TO_END  # noqa: E402


def test_setup_s_has_the_largest_bound():
    bounds = {m.name: m.bound for m in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_of_module():
    assert layer_of_module("repro.netsim.medium") == "netsim"
    assert layer_of_module("repro.transactions.tuplespace") == "tuplespace"
    assert layer_of_module("repro.transactions.rpc") == "rpc"
    assert layer_of_module("repro.transactions.messaging") == "transactions"
    assert layer_of_module("heapq") == "other"
