"""The replicated primary-kill simtest world (repro.simtest.replicated)."""

import pytest

from repro.simtest import __main__ as simtest_cli
from repro.simtest.replicated import (
    FAILOVER_BOUND_S,
    PRIMARY,
    ReplicatedWorld,
    run_failover,
)
from repro.workloads.scorecard import canonical_bytes

pytestmark = pytest.mark.simtest


class TestPrimaryKill:
    def test_run_is_clean_and_failover_is_bounded(self):
        scorecard = run_failover(0)
        assert scorecard["ok"], scorecard["divergences"]
        failover = scorecard["failover"]
        assert failover["new_primary"] not in (None, PRIMARY)
        assert failover["latency_s"] is not None
        assert failover["latency_s"] <= FAILOVER_BOUND_S
        # The deposed primary recovered, was fenced, and adopted the term.
        assert failover["terms"][PRIMARY] >= 2

    def test_histories_are_checked_and_acked_transfers_applied(self):
        scorecard = run_failover(1)
        assert scorecard["ok"], scorecard["divergences"]
        assert scorecard["stats"]["lin_objects"] >= 3
        assert scorecard["stats"]["lin_aborted"] == 0 \
            if "lin_aborted" in scorecard["stats"] else True
        # acked-is-applied: the end-state machine holds every acked txid.
        assert scorecard["ledger"]["applied"] >= scorecard["ledger"]["acked"]
        balances = scorecard["ledger"]["balances"]
        assert sum(balances.values()) == 4000

    def test_quiet_run_without_crash_stays_clean(self):
        world = ReplicatedWorld(3, crash_primary=False)
        result = world.run()
        assert result.ok, result.divergences
        scorecard = world.scorecard(result)
        assert scorecard["failover"]["new_primary"] is None
        assert all(t == 1 for t in scorecard["failover"]["terms"].values())


class TestDeterminism:
    def test_reruns_are_byte_identical(self):
        first = canonical_bytes(run_failover(2))
        second = canonical_bytes(run_failover(2))
        assert first == second

    def test_different_seeds_differ(self):
        assert canonical_bytes(run_failover(0)) != \
            canonical_bytes(run_failover(1))


class TestCli:
    def test_failover_subcommand_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "failover.json"
        code = simtest_cli.main(
            ["failover", "--runs", "2", "--json", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "zero divergences" in capsys.readouterr().out
