"""Planted-regression self-test: does the benchmark see a 1.3x slower layer?

From outside the program, ``BinaryCodec.encoded_size`` is made 1.3 times
slower (see ``worker.SizeSlowdown``). Baseline and planted repetitions
alternate inside one process, with the order flipped every pair, so slow
drifts in machine speed hit both sides alike. Only ``ledger_partition``
calls ``encoded_size``; the other two workloads must not move.

Run from the root of the repository (takes a few minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import worker  # noqa: E402
from workloads import END_TO_END  # noqa: E402

FACTOR = 1.3
WALL_BOUND = next(m.bound for m in END_TO_END if m.name == "wall_s")
#: A metric flags the plant when a fair coin would make the planted side
#: the worse one in that many pairs with a probability below this.
SIGNIFICANCE = 0.01

pytestmark = pytest.mark.slow


def _pairs(workload: str, pairs: int, trace: bool):
    out = worker("paired", workload, "0", str(pairs), str(FACTOR),
                 "1" if trace else "0")
    rows = out["pairs"]
    for row in rows:  # the plant changes timing, never behaviour
        assert row["planted"]["digest"] == row["baseline"]["digest"]
    return rows


def _flagged(baseline, planted):
    """One-sided sign test on pairs: the planted side is worse in more
    pairs than chance allows, and worse in the median pair."""
    n = len(baseline)
    wins = sum(p > b for b, p in zip(baseline, planted))
    p_value = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n
    gap = statistics.median((p - b) / b for b, p in zip(baseline, planted))
    return p_value < SIGNIFICANCE and gap > 0


def test_sign_test_needs_a_clear_majority():
    assert _flagged([1.0] * 20, [1.1] * 16 + [0.9] * 4)
    assert not _flagged([1.0] * 20, [1.1] * 14 + [0.9] * 6)
    assert not _flagged([1.0] * 10, [1.0] * 10)


def test_size_self_s_flags_plant_on_ledger_partition():
    rows = _pairs("ledger_partition", 20, trace=True)
    assert all(r["planted"]["size_calls"] > 0 for r in rows)

    def self_s(side, layer):
        return side["layer_self_s"][layer]

    base = [self_s(r["baseline"], "interop.size") for r in rows]
    plant = [self_s(r["planted"], "interop.size") for r in rows]
    assert _flagged(base, plant), (base, plant)
    # Exclusive attribution keeps the extra time in the planted layer.
    for layer in ("netsim", "replication", "transport"):
        b = statistics.median(self_s(r["baseline"], layer) for r in rows)
        p = statistics.median(self_s(r["planted"], layer) for r in rows)
        assert abs(p - b) <= WALL_BOUND * b, (layer, b, p)


def test_wall_s_flags_plant_on_ledger_partition():
    rows = _pairs("ledger_partition", 40, trace=False)
    base = [r["baseline"]["wall_s"] for r in rows]
    plant = [r["planted"]["wall_s"] for r in rows]
    assert _flagged(base, plant), (base, plant)


@pytest.mark.parametrize("workload", ["fanout_store", "api_shed"])
def test_plant_is_invisible_where_encoded_size_never_runs(workload):
    rows = _pairs(workload, 5, trace=False)
    assert all(r[side]["size_calls"] == 0
               for r in rows for side in ("baseline", "planted"))
    base = statistics.median(r["baseline"]["wall_s"] for r in rows)
    plant = statistics.median(r["planted"]["wall_s"] for r in rows)
    assert plant - base <= WALL_BOUND * base, (base, plant)
