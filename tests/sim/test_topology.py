"""Unit tests for the failing topology and partition computation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Topology
from repro.types import site_names


class TestBasics:
    def test_complete_graph_by_default(self):
        topo = Topology(site_names(4))
        assert len(topo.links) == 6

    def test_explicit_links(self):
        topo = Topology("ABC", links=[("A", "B"), ("B", "C")])
        assert topo.link_is_up("A", "B")
        assert not topo.link_is_up("A", "C")  # no physical link

    def test_self_link_rejected(self):
        with pytest.raises(SimulationError):
            Topology("AB", links=[("A", "A")])

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(SimulationError):
            Topology("AB", links=[("A", "Z")])


class TestSiteFailures:
    def test_fail_and_repair(self):
        topo = Topology(site_names(3))
        topo.fail_site("B")
        assert not topo.is_up("B")
        assert topo.up_sites() == frozenset("AC")
        topo.repair_site("B")
        assert topo.is_up("B")

    def test_double_fail_rejected(self):
        topo = Topology(site_names(3))
        topo.fail_site("B")
        with pytest.raises(SimulationError):
            topo.fail_site("B")

    def test_double_repair_rejected(self):
        topo = Topology(site_names(3))
        with pytest.raises(SimulationError):
            topo.repair_site("B")

    def test_unknown_site_rejected(self):
        topo = Topology(site_names(3))
        with pytest.raises(SimulationError):
            topo.fail_site("Z")


class TestPartitions:
    def test_healthy_network_is_one_partition(self):
        topo = Topology(site_names(5))
        assert topo.partitions() == (frozenset("ABCDE"),)

    def test_site_failure_shrinks_the_partition(self):
        topo = Topology(site_names(5))
        topo.fail_site("C")
        assert topo.partitions() == (frozenset("ABDE"),)

    def test_link_failures_split_partitions(self):
        topo = Topology(site_names(4))
        for a in "AB":
            for b in "CD":
                topo.fail_link(a, b)
        parts = topo.partitions()
        assert set(parts) == {frozenset("AB"), frozenset("CD")}

    def test_partitions_sorted_largest_first(self):
        topo = Topology(site_names(5))
        topo.set_partitions([{"A"}, {"B", "C", "D"}])
        parts = topo.partitions()
        assert parts[0] == frozenset("BCD")
        assert parts[1] == frozenset("A")

    def test_partition_of(self):
        topo = Topology(site_names(4))
        topo.set_partitions([{"A", "B"}, {"C"}])
        assert topo.partition_of("A") == frozenset("AB")
        assert topo.partition_of("C") == frozenset("C")
        assert topo.partition_of("D") is None  # down

    def test_chain_topology_partitions(self):
        # A - B - C: failing B separates A and C.
        topo = Topology("ABC", links=[("A", "B"), ("B", "C")])
        topo.fail_site("B")
        assert set(topo.partitions()) == {frozenset("A"), frozenset("C")}


class TestSetPartitions:
    def test_set_partitions_downs_unlisted_sites(self):
        topo = Topology(site_names(5))
        topo.set_partitions([{"A", "B"}, {"D", "E"}])
        assert not topo.is_up("C")
        assert set(topo.partitions()) == {frozenset("AB"), frozenset("DE")}

    def test_overlapping_groups_rejected(self):
        topo = Topology(site_names(3))
        with pytest.raises(SimulationError):
            topo.set_partitions([{"A", "B"}, {"B", "C"}])

    def test_unknown_sites_rejected(self):
        topo = Topology(site_names(3))
        with pytest.raises(SimulationError):
            topo.set_partitions([{"Z"}])

    def test_successive_layouts(self):
        topo = Topology(site_names(5))
        topo.set_partitions([{"A", "B", "C"}, {"D", "E"}])
        topo.set_partitions([{"A", "B", "C", "D", "E"}])
        assert topo.partitions() == (frozenset("ABCDE"),)


SITES = site_names(5)
EDGES = list(itertools.combinations(SITES, 2))

mutations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["fail_site", "repair_site"]), st.sampled_from(SITES)
        ),
        st.tuples(
            st.sampled_from(["fail_link", "repair_link"]), st.sampled_from(EDGES)
        ),
        st.tuples(
            st.just("set_partitions"),
            st.lists(st.integers(min_value=-1, max_value=2), min_size=5, max_size=5),
        ),
    ),
    max_size=25,
)


def rebuilt(topo, links):
    """A fresh topology brought into the same up/down state as ``topo``."""
    fresh = Topology(SITES, links=links)
    for site in SITES:
        if not topo.is_up(site):
            fresh.fail_site(site)
    for a, b in fresh.links:
        if not topo.link_is_up(a, b):
            fresh.fail_link(a, b)
    return fresh


class TestPartitionCache:
    @given(
        links=st.one_of(st.none(), st.lists(st.sampled_from(EDGES), unique=True)),
        ops=mutations,
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_partitions_match_a_fresh_topology(self, links, ops):
        # Reading partitions between mutations fills the cache; every
        # mutator must clear it, or a later read returns a stale layout.
        topo = Topology(SITES, links=links)
        for name, argument in ops:
            try:
                if name == "set_partitions":
                    groups = [
                        [s for s, g in zip(SITES, argument) if g == index]
                        for index in range(3)
                    ]
                    topo.set_partitions(groups)
                elif name in ("fail_link", "repair_link"):
                    getattr(topo, name)(*argument)
                else:
                    getattr(topo, name)(argument)
            except SimulationError:
                continue  # already in that state, or no such link
            fresh = rebuilt(topo, links)
            assert topo.partitions() == fresh.partitions()
            for site in SITES:
                assert topo.partition_of(site) == fresh.partition_of(site)
