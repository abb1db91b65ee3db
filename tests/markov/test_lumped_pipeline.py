"""The lump-then-solve pipeline: representative-BFS derivation, exactly.

:func:`derive_lumped_chain` builds the lumped chain directly from one
representative configuration per block, never expanding the 2^n
site-labelled space.  Soundness is pinned by equality against the
two-step reference (``lump_chain(derive_chain(...), signature)``) for
every registered signature, and the default ``availability`` pipeline
must be indistinguishable from the hand-built chains it replaced -- which
the runtime must never build.
"""

from fractions import Fraction

import pytest

from repro.analysis import collect_results
from repro.analysis.sensitivity import (
    traditional_availability,
    traditional_availability_grid,
)
from repro.cli import main
from repro.core import make_protocol
from repro.errors import AnalysisError, ChainError, ReproError
from repro.markov import (
    LUMP_SIGNATURES,
    availability,
    chain_for,
    chains,
    class_signature,
    derive_chain,
    derive_lumped_chain,
    lump_chain,
    mean_time_to_blocking,
    signature_for,
    transient_availability,
)
from repro.markov.availability import _chain
from repro.obs.metrics import MetricsRegistry, use
from repro.reassignment import (
    GroupConsensus,
    KeepVotes,
    WitnessVotingProtocol,
)
from repro.types import site_names

from .test_lumping import assert_same_chain


#: The dynamic family: chain protocols without a closed form.
CHAIN_PROTOCOLS = (
    "dynamic",
    "dynamic-linear",
    "hybrid",
    "modified-hybrid",
    "optimal-candidate",
)

#: Availability at ratio 1.0 of the small instances the derivation
#: handles; every other (protocol, n) below 3 has no chain.
SMALL_N_VALUES = {
    ("dynamic", 2): 0.25,
    ("dynamic-linear", 1): 0.5,
    ("dynamic-linear", 2): 0.375,
    ("modified-hybrid", 1): 0.5,
    ("optimal-candidate", 2): 0.25,
}


@pytest.fixture(autouse=True)
def _fresh_chain_cache():
    _chain.cache_clear()
    yield
    _chain.cache_clear()


class TestRepresentativeDerivation:
    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_lump_of_full_chain(self, protocol, n):
        """One-representative BFS == derive the 2^n chain, then lump it."""
        signature = LUMP_SIGNATURES[protocol]
        direct = derive_lumped_chain(
            make_protocol(protocol, site_names(n)), signature
        )
        reference = lump_chain(
            derive_chain(make_protocol(protocol, site_names(n))), signature
        )
        assert_same_chain(direct, reference)

    @pytest.mark.parametrize("witnesses", [1, 2])
    @pytest.mark.parametrize("policy", [KeepVotes, GroupConsensus])
    def test_class_signature_witness_chains(self, witnesses, policy):
        sites = site_names(5)
        witness_sites = sites[5 - witnesses:]
        classes = {
            site: ("witness" if site in witness_sites else "copy")
            for site in sites
        }
        signature = class_signature(classes)
        direct = derive_lumped_chain(
            WitnessVotingProtocol(sites, witness_sites, policy()), signature
        )
        reference = lump_chain(
            derive_chain(WitnessVotingProtocol(sites, witness_sites, policy())),
            signature,
        )
        assert_same_chain(direct, reference)

    def test_block_budget_enforced(self):
        with pytest.raises(ChainError, match="exceeds 3 blocks"):
            derive_lumped_chain(
                make_protocol("dynamic", site_names(5)),
                LUMP_SIGNATURES["dynamic"],
                max_blocks=3,
            )

    def test_custom_name(self):
        chain = derive_lumped_chain(
            make_protocol("voting", site_names(3)),
            LUMP_SIGNATURES["voting"],
            name="my-chain",
        )
        assert chain.name == "my-chain"

    def test_build_telemetry(self):
        registry = MetricsRegistry()
        with use(registry):
            chain = derive_lumped_chain(
                make_protocol("dynamic", site_names(4)),
                LUMP_SIGNATURES["dynamic"],
            )
        snapshot = registry.snapshot()
        assert snapshot["markov.build.lumped.chains"]["value"] == 1
        assert snapshot["markov.build.lumped.states"]["value"] == chain.size
        assert snapshot["markov.build.lumped.arcs"]["value"] > 0

    def test_site_labelled_telemetry(self):
        registry = MetricsRegistry()
        with use(registry):
            chain = derive_chain(make_protocol("voting", site_names(3)))
        snapshot = registry.snapshot()
        assert snapshot["markov.build.site_labelled.chains"]["value"] == 1
        assert snapshot["markov.build.site_labelled.states"]["value"] == chain.size


class TestDefaultPipeline:
    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 5])
    def test_availability_matches_hand_built(self, protocol, n):
        """Lumped-vs-unlumped: the public value must not move."""
        hand = chain_for(protocol, n)
        for ratio in (0.3, 1.0, 2.0, 8.0):
            assert availability(protocol, n, ratio) == pytest.approx(
                hand.availability(ratio), abs=1e-12
            ), (protocol, n, ratio)

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    def test_chain_is_lumped(self, protocol):
        chain = _chain(protocol, 5)
        assert chain.name == f"lumped:{protocol}[n=5]"

    def test_unsignatured_protocol_raises(self):
        assert signature_for("primary-copy") is None
        with pytest.raises(AnalysisError, match="'primary-copy'"):
            _chain("primary-copy", 5)

    @pytest.mark.parametrize("protocol", CHAIN_PROTOCOLS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_n(self, protocol, n):
        """Sizes the derivation handles keep their values; the rest raise
        one AnalysisError naming the protocol and n."""
        expected = SMALL_N_VALUES.get((protocol, n))
        if expected is not None:
            assert availability(protocol, n, 1.0) == pytest.approx(
                expected, abs=1e-12
            )
            return
        with pytest.raises(AnalysisError, match=f"'{protocol}' at n={n}") as info:
            availability(protocol, n, 1.0)
        assert isinstance(info.value.__cause__, ReproError)

    def test_large_n_stays_small(self):
        chain = _chain("dynamic", 25)
        assert chain.size == 72  # vs 2^25+ site-labelled states
        pi = chain.steady_state(1.0)
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_exact_arithmetic_through_lumped_chain(self):
        """Fraction elimination stays affordable and exact at n=25."""
        chain = _chain("dynamic", 25)
        exact = chain.availability_exact(Fraction(2))
        assert isinstance(exact, Fraction) and 0 < exact < 1
        assert availability("dynamic", 25, 2.0) == pytest.approx(
            float(exact), abs=1e-12
        )


def _traditional(chain, ratio):
    pi = chain.steady_state(ratio)
    return sum(p for state, p in pi.items() if chain.weight(state) > 0)


class TestHandBuiltParity:
    """Every measure the runtime computes from a chain matches the
    hand-built chains, which stay only as the oracle."""

    TIMES = (0.0, 0.5, 2.0, 10.0)

    @pytest.mark.parametrize("protocol", sorted(LUMP_SIGNATURES))
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_measures_match_hand_built(self, protocol, n):
        hand = chain_for(protocol, n)
        lumped = _chain(protocol, n)
        ratios = (0.5, 1.0, 4.0)
        grid = traditional_availability_grid(protocol, n, ratios)
        for ratio, from_grid in zip(ratios, grid):
            expected = _traditional(hand, ratio)
            assert traditional_availability(protocol, n, ratio) == pytest.approx(
                expected, abs=1e-12
            ), (protocol, n, ratio)
            assert from_grid == pytest.approx(expected, abs=1e-12)
            assert transient_availability(
                lumped, ratio, self.TIMES
            ) == pytest.approx(
                transient_availability(hand, ratio, self.TIMES), abs=1e-12
            )
            assert mean_time_to_blocking(lumped, ratio) == pytest.approx(
                mean_time_to_blocking(hand, ratio), abs=1e-12
            )

    def test_runtime_never_builds_a_hand_built_chain(self, monkeypatch, capsys):
        monkeypatch.setattr(chains, "CHAIN_BUILDERS", {})
        with pytest.raises(ChainError):
            chain_for("hybrid", 5)
        assert availability("hybrid", 5, 1.0) > 0
        assert len(traditional_availability_grid("dynamic", 5, [0.5, 2.0])) == 2
        results = collect_results(n_values=(3, 4))
        assert set(results["mean_time_to_blocking"]) == {
            "voting",
            "dynamic",
            "dynamic-linear",
            "hybrid",
        }
        assert main(["transient", "--protocol", "hybrid", "-n", "5"]) == 0
        assert "mean time to first blocking" in capsys.readouterr().out
        assert traditional_availability("primary-site-voting", 4, 1.0) > 0
        assert main(["transient", "--protocol", "primary-site-voting", "-n", "4"]) == 0
        assert "mean time to first blocking" in capsys.readouterr().out

    def test_transient_without_a_chain_is_a_usage_error(self, capsys):
        assert main(["transient", "--protocol", "primary-copy", "-n", "3"]) == 2
        assert "'primary-copy'" in capsys.readouterr().err
