"""Regression: the checker rediscovers the PR-1 fork bug on demand.

The original coordinator applied a committed update at every up site,
including sites outside the durably-logged participant set P(run) --
the fork scenario of Section III.  The fix is the participants guard in
``Node._on_decision_reply``; ``CheckConfig.disable_participants_guard``
(a test-only switch) re-opens the hole so this test can prove the
checker would have caught it: a mutual-exclusion counterexample at n=3
within the quick preset's depth bound, minimized and replayable.
"""

import pytest

from repro.check import (
    CheckConfig,
    CheckHarness,
    CrashSite,
    Deliver,
    FireTimer,
    RecoverSite,
    SubmitOp,
    minimize,
    replay_schedule,
    run_schedule,
    schedule_to_jsonl,
)
from repro.check.explorer import Explorer
from repro.check.oracles import default_oracle_names
from repro.check.runner import QUICK_DEPTH, quick_config


def test_fork_bug_found_within_quick_depth():
    config = quick_config("dynamic", inject_fork_bug=True)
    result = Explorer(config=config, depth=QUICK_DEPTH).run()
    assert result.violation is not None, (
        "the seeded fork bug escaped the quick-preset exploration"
    )
    assert result.violation.oracle == "participants-only"

    schedule, violation = minimize(
        config, result.schedule, default_oracle_names()
    )
    # The minimal trace: one submission, then the delivery/timer race
    # that commits in a two-site quorum yet installs at the third site.
    assert len(schedule) <= QUICK_DEPTH
    assert isinstance(schedule[0], SubmitOp)
    assert any(
        isinstance(action, Deliver)
        and action.message_type == "DecisionReply"
        for action in schedule
    )

    document = schedule_to_jsonl(schedule, violation, config)
    replayed, replayed_config = replay_schedule(document)
    assert replayed is not None
    assert replayed.oracle == "participants-only"
    assert replayed_config.disable_participants_guard


def test_guard_in_place_is_clean_at_the_same_depth():
    # Sanity half of the regression: with the real guard, the identical
    # exploration finds nothing (otherwise the test above proves little).
    config = quick_config("dynamic")
    result = Explorer(
        config=config, depth=8, oracles=("participants-only",)
    ).run()
    assert result.violation is None


def crash_fork_schedule(distinguished):
    """Known defect, minimized by ``repro check --protocol dynamic
    --updates 1 --crashes 1 --recoveries 1 --depth 11``.

    B votes for run 1 and A commits u1 with P={A,B}; B then crashes, and
    ``Node.on_failure`` wipes its in-doubt record, so after recovery B's
    Make_Current run forms a {B,C} quorum that never heard of u1 and
    commits version 1 again.  ``distinguished`` is the DS field the
    protocol carries in its initial metadata (part of the reply payload).
    """
    reply = repr((("metadata", (0, 3, distinguished)),))
    return (
        SubmitOp(0, "A"),
        Deliver("A", "B", "VoteRequest", 1, "()"),
        Deliver("B", "A", "VoteReply", 1, reply),
        FireTimer("vote-window", 1, "A"),
        CrashSite("B"),
        RecoverSite("B"),
        Deliver("B", "C", "VoteRequest", 1000, "()"),
        Deliver("C", "B", "VoteReply", 1000, reply),
        FireTimer("vote-window", 1000, "B"),
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Node.on_failure forgets in-doubt prepares: a crashed voter "
    "re-votes after recovery and version 1 is committed twice",
)
@pytest.mark.parametrize(
    ("protocol", "distinguished"),
    [("dynamic", ()), ("voting", ()), ("hybrid", ("A", "B", "C"))],
)
def test_crashed_voter_remembers_its_prepare(protocol, distinguished):
    config = CheckConfig(protocol=protocol, updates=1, crashes=1, recoveries=1)
    violation = run_schedule(
        CheckHarness(config),
        crash_fork_schedule(distinguished),
        default_oracle_names(),
    )
    assert violation is None, violation.describe()
