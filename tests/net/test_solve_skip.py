"""Differential tests: skipped reallocations vs a full progressive fill.

A reallocation skips the waterfill when every flow it added sits alone on
both its NICs, or when every NIC a completion touched is left empty.  The
fabric below checks, after *every* reallocation of add, batch-add and
multi-completion schedules, that each rate and the armed wake-up are
``repr``-identical to what a from-scratch full solve of the live table
gives, and that a skip touches no solve or reuse counter.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Fabric
from repro.sim import Environment

BANDWIDTH = 100.0


class CheckedFabric(Fabric):
    """A fabric that audits every reallocation against a full solve."""

    def _reallocate(self, dirty, added=None, removed=None):
        record_live = self._reuse is not None
        before = dataclasses.replace(self.stats)
        super()._reallocate(dirty, added=added, removed=removed)
        after = self.stats
        if after.solves_skipped != before.solves_skipped:
            assert after.solves_skipped == before.solves_skipped + 1
            assert not record_live
            assert self.switch_bandwidth is None
            assert self._reuse is None
            for field in (
                "solves_full",
                "solves_restricted",
                "reuse_hits",
                "reuse_fallbacks",
            ):
                assert getattr(after, field) == getattr(before, field)
        self._check_index()
        self._check_against_full_solve()

    def _check_index(self):
        expected: dict[int, list[int]] = {}
        for flow in self._flows.values():
            for key in (flow.src, self.num_nodes + flow.dst):
                expected.setdefault(key, []).append(flow.fid)
        actual = {
            key: sorted(group) for key, group in self._by_resource.items()
        }
        assert actual == expected

    def _check_against_full_solve(self):
        reference = Fabric(
            Environment(),
            num_nodes=self.num_nodes,
            link_bandwidth=self.link_bandwidth,
            latency=self.latency,
            switch_bandwidth=self.switch_bandwidth,
        )
        for fid, flow in self._flows.items():
            reference._flows[fid] = dataclasses.replace(flow)
        reference._waterfill()
        reference._schedule_wakeup()
        for fid, flow in self._flows.items():
            assert repr(flow.rate) == repr(reference._flows[fid].rate), fid
        if reference._waker is None:
            assert self._waker is None
        else:
            assert repr(self._waker.delay) == repr(reference._waker.delay)


def _run(num_nodes, ops, switch=None, reuse_cutoff=None):
    """Play ``(start, requests)`` ops; returns the fabric's stats."""
    env = Environment()
    fabric = CheckedFabric(
        env,
        num_nodes=num_nodes,
        link_bandwidth=BANDWIDTH,
        latency=1e-4,
        switch_bandwidth=switch,
    )
    if reuse_cutoff is not None:
        fabric.reuse_cutoff = reuse_cutoff
    finished: list[int] = []

    def op(index, start, requests):
        if start:
            yield env.timeout(start)
        if len(requests) == 1:
            yield fabric.transfer(*requests[0])
        else:
            yield env.all_of(fabric.transfer_many(requests))
        finished.append(index)

    for index, (start, requests) in enumerate(ops):
        env.process(op(index, start, requests))
    env.run()
    assert sorted(finished) == list(range(len(ops)))
    assert fabric._flows == {}
    assert fabric._by_resource == {}
    return fabric.stats


@st.composite
def schedules(draw):
    """2–8 nodes; batches of 1–4 requests.  Sizes and start times come
    from small sets, so equal flows often finish together (multi-flow
    completions) and isolated pairs are common."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    request = st.tuples(node, node, st.sampled_from([50.0, 100.0, 400.0]))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                st.lists(request, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return num_nodes, ops


@pytest.mark.parametrize("switch", [None, 350.0])
@pytest.mark.parametrize("reuse_cutoff", [None, 1])
@given(schedule=schedules())
@settings(max_examples=40, deadline=None)
def test_every_reallocation_matches_full_solve(schedule, switch, reuse_cutoff):
    """``reuse_cutoff=1`` keeps a cascade record live after every full
    solve; an aggregate switch couples every flow.  Neither may skip."""
    num_nodes, ops = schedule
    stats = _run(num_nodes, ops, switch=switch, reuse_cutoff=reuse_cutoff)
    if switch is not None:
        assert stats.solves_skipped == 0


def test_isolated_pairs_never_solve():
    """Disjoint pairs, each alone on its NICs: every add and every
    completion skips, so no waterfill runs at all."""
    ops = [
        (0.0, [(0, 1, 100.0)]),
        (0.5, [(2, 3, 200.0)]),
        (1.0, [(4, 5, 300.0), (6, 7, 300.0)]),
    ]
    stats = _run(8, ops)
    # Three add calls, three completion instants (the last two flows
    # finish together).
    assert stats.solves_skipped == 6
    assert stats.solves_full == 0
    assert stats.solves_restricted == 0
    assert stats.flows_completed == 4


def test_shared_nic_is_solved():
    """A second flow on a busy NIC needs a solve; when the first flow
    completes, the survivor's NICs are not empty, so that needs one too."""
    ops = [(0.0, [(0, 1, 100.0)]), (0.5, [(0, 2, 300.0)])]
    stats = _run(3, ops)
    # Skipped: the first add and the last completion.
    assert stats.solves_skipped == 2
    assert stats.solves_full == 2


def test_switch_fabric_never_skips():
    ops = [(0.0, [(0, 1, 100.0)]), (0.5, [(2, 3, 200.0)])]
    stats = _run(4, ops, switch=350.0)
    assert stats.solves_skipped == 0
    assert stats.solves_full == 4


def test_live_record_takes_the_reuse_path():
    """With a cascade record live, an isolated add rides the reuse proof
    (which keeps the record current) instead of skipping."""
    ops = [
        (0.0, [(0, 1, 400.0), (2, 1, 400.0)]),
        (0.5, [(3, 4, 50.0)]),
    ]
    stats = _run(5, ops, reuse_cutoff=1)
    assert stats.reuse_hits >= 2  # the isolated add and its completion
    assert stats.solves_skipped == 0
