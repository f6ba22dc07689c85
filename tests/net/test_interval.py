"""The analytic rounding contract: integer conservation, no bias.

Every analytic loss layer routes its expected interval loss through
:func:`stochastic_round` and :func:`split_loss_bytes`; these tests pin
the two properties the reconciliation identity depends on — byte
conservation holds on *integers*, and the rounding is unbiased.
"""

from __future__ import annotations

import random

import pytest

from repro.net.interval import (
    IntervalFlow,
    split_loss_bytes,
    stochastic_round,
)
from repro.net.packet import Direction


class TestStochasticRound:
    def test_integers_pass_through(self):
        assert stochastic_round(7.0, 0.0) == 7
        assert stochastic_round(7.0, 0.999) == 7
        assert stochastic_round(0.0, 0.5) == 0

    def test_fraction_thresholds_on_the_draw(self):
        # u < frac rounds up, u >= frac rounds down.
        assert stochastic_round(3.25, 0.24) == 4
        assert stochastic_round(3.25, 0.25) == 3
        assert stochastic_round(3.25, 0.26) == 3

    def test_unbiased_in_expectation(self):
        rng = random.Random(7)
        value = 12.37
        n = 20_000
        mean = sum(
            stochastic_round(value, rng.random()) for _ in range(n)
        ) / n
        assert mean == pytest.approx(value, abs=0.02)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            stochastic_round(-0.1, 0.5)
        with pytest.raises(ValueError):
            stochastic_round(1.0, 1.0)
        with pytest.raises(ValueError):
            stochastic_round(1.0, -0.01)


class TestSplitLossBytes:
    def test_endpoints(self):
        assert split_loss_bytes(10, 14_400, 0) == 0
        assert split_loss_bytes(10, 14_400, 10) == 14_400

    def test_pro_rata_rounds_to_nearest(self):
        assert split_loss_bytes(4, 1000, 1) == 250
        assert split_loss_bytes(3, 1000, 1) == 333
        assert split_loss_bytes(3, 1000, 2) == 667

    def test_positivity_clamps_both_sides(self):
        # Every lost packet and every survivor carries >= 1 byte.
        for packets in (2, 5, 17):
            for size in range(packets, 4 * packets):
                for lost in range(packets + 1):
                    lost_bytes = split_loss_bytes(packets, size, lost)
                    assert lost_bytes >= lost
                    assert size - lost_bytes >= packets - lost

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            split_loss_bytes(0, 0, 0)
        with pytest.raises(ValueError):
            split_loss_bytes(5, 100, 6)
        with pytest.raises(ValueError):
            split_loss_bytes(5, 100, -1)


def make_flow(packets=10, size=14_400, direction=Direction.DOWNLINK):
    return IntervalFlow(
        packets=packets, bytes=size, flow="app", direction=direction
    )


class TestIntervalFlow:
    def test_empty_is_merge_identity(self):
        flow = make_flow()
        empty = IntervalFlow.empty("app", Direction.DOWNLINK)
        assert empty.is_empty
        assert flow.merge(empty) == flow

    def test_merge_adds_and_guards_identity(self):
        a, b = make_flow(3, 4000), make_flow(5, 6000)
        merged = a.merge(b)
        assert (merged.packets, merged.bytes) == (8, 10_000)
        with pytest.raises(ValueError):
            a.merge(make_flow(direction=Direction.UPLINK))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_flow(packets=0, size=1)
        with pytest.raises(ValueError):
            make_flow(packets=5, size=4)
        with pytest.raises(ValueError):
            make_flow(packets=-1, size=0)

    def test_drop_conserves_bytes_exactly(self):
        flow = make_flow(7, 9_871)
        for lost in range(8):
            survivors, lost_bytes = flow.drop(lost)
            assert survivors.bytes + lost_bytes == flow.bytes
            assert survivors.packets + lost == flow.packets

    def test_expected_drop_follows_the_draw_contract(self):
        flow = make_flow(100, 144_000)
        # E[lost] = 25.5: the draw decides which integer.
        survivors, lost, lost_bytes = flow.expected_drop(0.255, 0.4)
        assert lost == 26
        assert survivors.packets == 74
        assert survivors.bytes + lost_bytes == flow.bytes
        survivors, lost, _ = flow.expected_drop(0.255, 0.6)
        assert lost == 25

    def test_expected_drop_clamps_to_population(self):
        flow = make_flow(3, 4200)
        survivors, lost, lost_bytes = flow.expected_drop(1.0, 0.0)
        assert lost == 3
        assert survivors.is_empty
        assert lost_bytes == 4200

    def test_take_splits_like_a_block(self):
        flow = make_flow(10, 14_000)
        head, rest = flow.take(4)
        assert head.packets == 4
        assert rest.packets == 6
        assert head.bytes + rest.bytes == flow.bytes
        head, rest = flow.take(99)
        assert head == flow
        assert rest.is_empty


def corrupt(flow, **fields):
    """A flow whose fields were overwritten past validation (frozen
    dataclasses only resist ordinary assignment)."""
    for name, value in fields.items():
        object.__setattr__(flow, name, value)
    return flow


class TestDerivedFlowsStayValidated:
    """``merge``, ``drop`` and ``take`` build their results directly;
    every result still passes ``__post_init__`` validation."""

    def test_merge_rejects_an_invalid_sum(self):
        bad = corrupt(make_flow(2, 2000), bytes=1)
        with pytest.raises(ValueError, match="need >= 1 byte"):
            make_flow(3, 3).merge(bad)

    def test_drop_rejects_an_invalid_survivor(self):
        bad = corrupt(make_flow(4, 4000), bytes=2)
        with pytest.raises(ValueError, match="need >= 1 byte"):
            bad.drop(1)

    def test_drop_rejects_out_of_range_losses(self):
        flow = make_flow(4, 4000)
        with pytest.raises(ValueError):
            flow.drop(5)
        with pytest.raises(ValueError):
            flow.drop(-1)

    def test_take_rejects_an_invalid_split(self):
        bad = corrupt(make_flow(4, 4000), bytes=2)
        with pytest.raises(ValueError, match="need >= 1 byte"):
            bad.take(2)

    def test_derived_flows_keep_metadata(self):
        flow = IntervalFlow(
            packets=10, bytes=14_000, flow="vr", direction=Direction.UPLINK,
            qci=7,
        )
        survivors, _ = flow.drop(3)
        head, rest = flow.take(4)
        for derived in (survivors, head, rest, flow.merge(flow)):
            assert (derived.flow, derived.direction, derived.qci) == (
                "vr", Direction.UPLINK, 7,
            )
