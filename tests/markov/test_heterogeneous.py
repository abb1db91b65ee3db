"""Unit tests for the heterogeneous-rate analysis."""

import random

import pytest

from repro.core import make_protocol
from repro.errors import ChainError
from repro.markov import (
    SPARSE_THRESHOLD,
    availability,
    heterogeneous_availability,
    heterogeneous_steady_state,
)
from repro.obs.metrics import MetricsRegistry, use
from repro.sim import (
    AvailabilityAccumulator,
    FailureRepairSampler,
    PerSiteRates,
    Rates,
    StochasticReplicaSystem,
)
from repro.types import site_names


def uniform(sites, value):
    return dict.fromkeys(sites, value)


class TestReductionToHomogeneous:
    # n=4 site-labelled chains (49-113 states) solve dense under "auto",
    # n=5 ones (176-526 states) sparse.
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize(
        "name",
        [
            "voting",
            "primary-site-voting",
            "dynamic",
            "dynamic-linear",
            "hybrid",
            "modified-hybrid",
            "optimal-candidate",
        ],
    )
    def test_uniform_rates_match_the_chains(self, name, n):
        protocol = make_protocol(name, site_names(n))
        for ratio in (0.5, 2.0):
            value = heterogeneous_availability(
                protocol,
                uniform(protocol.sites, 1.0),
                uniform(protocol.sites, ratio),
            )
            assert value == pytest.approx(availability(name, n, ratio), abs=1e-10)

    def test_scale_invariance(self):
        # Only the ratio matters: doubling both rates changes nothing.
        protocol = make_protocol("hybrid", site_names(4))
        a = heterogeneous_availability(
            protocol, uniform(protocol.sites, 1.0), uniform(protocol.sites, 2.0)
        )
        b = heterogeneous_availability(
            protocol, uniform(protocol.sites, 3.0), uniform(protocol.sites, 6.0)
        )
        assert a == pytest.approx(b, abs=1e-12)


class TestSolvers:
    @pytest.mark.parametrize(
        "name", ["voting", "dynamic-linear", "hybrid", "modified-hybrid"]
    )
    def test_sparse_matches_dense(self, name):
        sites = site_names(5)
        protocol = make_protocol(name, sites)
        failures = {site: 1.0 + 0.3 * i for i, site in enumerate(sites)}
        repairs = {site: 2.5 - 0.2 * i for i, site in enumerate(sites)}
        dense = heterogeneous_steady_state(
            protocol, failures, repairs, solver="dense"
        )
        sparse = heterogeneous_steady_state(
            protocol, failures, repairs, solver="sparse"
        )
        assert dense.keys() == sparse.keys()
        for config, p in dense.items():
            assert sparse[config] == pytest.approx(p, abs=1e-12)

    def test_forced_dense_past_threshold_is_counted(self):
        protocol = make_protocol("voting", site_names(5))  # 176 states
        sites = protocol.sites
        registry = MetricsRegistry()
        with use(registry):
            pi = heterogeneous_steady_state(
                protocol, uniform(sites, 1.0), uniform(sites, 2.0), solver="dense"
            )
        assert len(pi) > SPARSE_THRESHOLD
        snapshot = registry.snapshot()
        assert snapshot["markov.solve.dense_oversize"]["value"] == 1
        assert snapshot["markov.solve.numeric"]["value"] == 1

    def test_forced_dense_past_materialize_limit_raises(self, monkeypatch):
        # hybrid at n=7 has 6,924 site-labelled states: the dense system
        # would be two 383 MB matrices, so the guard must fire before the
        # rates are even assembled.
        def unreachable(*args, **kwargs):
            raise AssertionError("assembled a system past the dense cap")

        monkeypatch.setattr("repro.markov.heterogeneous._rated_arcs", unreachable)
        monkeypatch.setattr("repro.markov.heterogeneous._solve_balance", unreachable)
        protocol = make_protocol("hybrid", site_names(7))
        sites = protocol.sites
        with pytest.raises(ChainError, match="6924 states; dense"):
            heterogeneous_steady_state(
                protocol, uniform(sites, 1.0), uniform(sites, 2.0), solver="dense"
            )


class TestAsymmetry:
    def test_flaky_site_reduces_availability(self):
        protocol = make_protocol("hybrid", site_names(4))
        base = heterogeneous_availability(
            protocol, uniform(protocol.sites, 1.0), uniform(protocol.sites, 2.0)
        )
        flaky = heterogeneous_availability(
            protocol,
            dict(uniform(protocol.sites, 1.0), A=8.0),
            uniform(protocol.sites, 2.0),
        )
        assert flaky < base

    def test_fast_repair_site_increases_availability(self):
        protocol = make_protocol("dynamic", site_names(4))
        base = heterogeneous_availability(
            protocol, uniform(protocol.sites, 1.0), uniform(protocol.sites, 2.0)
        )
        golden = heterogeneous_availability(
            protocol,
            uniform(protocol.sites, 1.0),
            dict(uniform(protocol.sites, 2.0), A=10.0),
        )
        assert golden > base

    def test_missing_rates_rejected(self):
        protocol = make_protocol("hybrid", site_names(3))
        with pytest.raises(ChainError):
            heterogeneous_availability(protocol, {"A": 1.0}, {"A": 1.0})

    def test_nonpositive_rates_rejected(self):
        protocol = make_protocol("hybrid", site_names(3))
        with pytest.raises(ChainError):
            heterogeneous_availability(
                protocol,
                uniform(protocol.sites, 0.0),
                uniform(protocol.sites, 1.0),
            )

    def test_montecarlo_cross_check(self):
        # The site-labelled chain vs a heterogeneous simulation run.
        sites = site_names(3)
        protocol = make_protocol("dynamic", sites)
        fail = {"A": 2.0, "B": 1.0, "C": 1.0}
        repair = {"A": 2.0, "B": 3.0, "C": 3.0}
        analytic = heterogeneous_availability(protocol, fail, repair)
        per_site = PerSiteRates(fail, repair)
        system = StochasticReplicaSystem(protocol, per_site, random.Random(5))
        estimate = AvailabilityAccumulator(system).run(60_000)
        assert estimate == pytest.approx(analytic, abs=0.02)


class TestPerSiteRates:
    def test_homogeneous_constructor(self):
        rates = PerSiteRates.homogeneous(site_names(2), Rates(1.0, 3.0))
        assert rates.failure == {"A": 1.0, "B": 1.0}
        assert rates.up_probability("A") == 0.75

    def test_sampler_respects_per_site_rates(self):
        # With an enormous failure rate at A, A is down most of the time.
        rates = PerSiteRates(
            {"A": 50.0, "B": 1.0}, {"A": 1.0, "B": 1.0}
        )
        sampler = FailureRepairSampler(site_names(2), rates, random.Random(3))
        down_a = 0.0
        last = 0.0
        for _ in range(20_000):
            a_up = "A" in sampler.up
            event = sampler.next_event()
            if not a_up:
                down_a += event.time - last
            last = event.time
        # P(A down) should be about 50/51.
        assert down_a / last == pytest.approx(50 / 51, abs=0.03)
