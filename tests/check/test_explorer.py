"""The bounded explorer: deterministic counts, pruning, truncation."""

import json

import pytest

from repro.check import CheckConfig, Explorer
from repro.cli import main
from repro.core.registry import protocol_names


def explore(depth=8, **config_kwargs):
    config_kwargs.setdefault("protocol", "dynamic")
    config_kwargs.setdefault("n_sites", 3)
    config_kwargs.setdefault("updates", 1)
    return Explorer(config=CheckConfig(**config_kwargs), depth=depth).run()


class TestDeterministicCounts:
    def test_state_and_transition_counts_are_pinned(self):
        # These exact numbers are the determinism contract: any change to
        # the harness, the action alphabet, or the pruning machinery that
        # shifts them is a semantic change and must be reviewed as such.
        result = explore()
        assert result.ok
        assert result.violation is None
        assert (result.states, result.transitions) == (384, 506)

    def test_rerun_is_bit_identical(self):
        first, second = explore(), explore()
        assert first.to_dict() == second.to_dict()

    def test_voting_and_dynamic_agree_without_faults(self):
        # With no crashes or partitions the two protocols make identical
        # quorum decisions, so the reachable graphs coincide.
        dynamic = explore()
        voting = explore(protocol="voting")
        assert (voting.states, voting.transitions) == (
            dynamic.states,
            dynamic.transitions,
        )


class TestPruning:
    def test_sleep_sets_and_cache_both_fire(self):
        result = explore(updates=2, depth=6)
        assert result.sleep_pruned > 0
        assert result.cache_pruned > 0

    def test_depth_bound_cuts_the_frontier(self):
        shallow = explore(depth=4)
        assert shallow.frontier_cutoffs > 0
        assert shallow.states < explore().states


class TestTruncation:
    def test_max_states_flags_the_run(self):
        result = Explorer(
            config=CheckConfig(protocol="dynamic", n_sites=3, updates=1),
            depth=8,
            max_states=50,
        ).run()
        assert result.truncated
        assert not result.ok
        assert result.states <= 51

    def test_faulty_configs_still_terminate(self):
        result = explore(crashes=1, depth=6)
        assert result.violation is None
        assert result.states > 0


def counts(result):
    return (
        result.states,
        result.transitions,
        result.sleep_pruned,
        result.cache_pruned,
        result.frontier_cutoffs,
        result.quiescent_states,
    )


class TestPinnedCountTuples:
    # (states, transitions, sleep_pruned, cache_pruned, frontier_cutoffs,
    # quiescent_states), captured before the explorer learned to skip
    # children it already knows are pruned.  Skipping work must not move
    # a single tally: the walk order and every pruning decision are the
    # same, so any drift here means the memo changed what was explored.
    FAULT_FREE = dict.fromkeys(
        (
            "voting",
            "dynamic",
            "dynamic-linear",
            "hybrid",
            "generalized-hybrid",
            "modified-hybrid",
            "optimal-candidate",
            "primary-site-voting",
        ),
        (531, 1187, 558, 384, 480, 0),
    ) | {"primary-copy": (523, 1185, 556, 392, 472, 0)}

    def test_every_protocol_is_pinned(self):
        assert sorted(self.FAULT_FREE) == sorted(protocol_names())

    @pytest.mark.parametrize("protocol", sorted(FAULT_FREE))
    def test_fault_free(self, protocol):
        result = explore(depth=6, protocol=protocol, updates=2)
        assert result.ok
        assert counts(result) == self.FAULT_FREE[protocol]

    def test_crash_and_recovery(self):
        result = explore(depth=6, crashes=1, recoveries=1)
        assert result.ok
        assert counts(result) == (1062, 1895, 496, 565, 863, 0)

    def test_link_cut_and_heal(self):
        result = explore(depth=7, link_cuts=1, link_heals=1)
        assert result.ok
        assert counts(result) == (605, 1686, 238, 974, 369, 0)

    def test_quick_fork_bug_is_found_at_the_same_point(self, capsys):
        code = main(
            ["check", "--quick", "--protocol", "dynamic", "--inject-fork-bug", "--json"]
        )
        assert code == 1
        (report,) = json.loads(capsys.readouterr().out)["results"]
        assert report["violation"]["oracle"] == "participants-only"
        assert report["schedule_length"] == 10
        assert (
            report["states"],
            report["transitions"],
            report["sleep_pruned"],
            report["cache_pruned"],
            report["frontier_cutoffs"],
            report["quiescent_states"],
        ) == (119, 135, 93, 13, 75, 0)
