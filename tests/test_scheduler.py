"""Horizon scheduling, portfolio aggregation, and the enumeration oracle."""

import random

import pytest

from hvdcarb import (
    AlignmentError,
    BiasPolicy,
    CapacityProfile,
    Direction,
    Interconnector,
    Network,
    PriceSeries,
    Region,
    extrapolate_annual,
    lp_oracle,
    schedule_link,
    schedule_portfolio,
)
from conftest import random_link_instance


@pytest.fixture
def celtic_hour(celtic):
    a = PriceSeries("ireland", ((1, 100.0),))
    b = PriceSeries("france", ((1, 50.0),))
    return a, b, celtic


class TestScheduleLink:
    def test_celtic_single_hour(self, celtic_hour):
        a, b, link = celtic_hour
        schedule = schedule_link(a, b, link)
        assert schedule.interconnector_id == "celtic"
        assert schedule.total_profit == 30975.0
        (d,) = schedule.decisions
        assert d.direction is Direction.B_TO_A
        assert d.quantity_mw == 700.0

    def test_equal_prices_idle_everywhere(self):
        a = PriceSeries("a", ((1, 80.0), (2, 90.0), (3, 100.0)))
        b = PriceSeries("b", ((1, 80.0), (2, 90.0), (3, 100.0)))
        link = Interconnector("ab", "a", "b", 500.0, 0.01)
        schedule = schedule_link(a, b, link)
        assert schedule.total_profit == 0.0
        assert all(d.direction is Direction.IDLE for d in schedule.decisions)

    def test_three_step_hand_computed(self):
        a = PriceSeries("a", ((1, 100.0), (2, 80.0), (3, 100.0)))
        b = PriceSeries("b", ((1, 50.0), (2, 80.0), (3, 120.0)))
        link = Interconnector("ab", "a", "b", 100.0, 0.1)
        caps = CapacityProfile("ab", ((1, 100.0), (2, 100.0), (3, 50.0)))
        schedule = schedule_link(a, b, link, caps)
        profits = [d.profit for d in schedule.decisions]
        assert profits == [4000.0, 0.0, 400.0]
        assert schedule.total_profit == 4400.0
        # brute-force corner search per step
        for (t, p_a), (_, p_b), d in zip(a.steps, b.steps, schedule.decisions):
            x_max = dict(caps.steps)[t]
            best = max(
                p_b * 0.9 * x_max - p_a * x_max,
                p_a * 0.9 * x_max - p_b * x_max,
                0.0,
            )
            assert d.profit == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_swapping_series_args_is_endpoint_relative(self, celtic_hour):
        a, b, link = celtic_hour
        assert schedule_link(a, b, link) == schedule_link(b, a, link)

    def test_capacity_caps_dispatch(self, celtic_hour):
        a, b, link = celtic_hour
        capped = schedule_link(a, b, link, CapacityProfile("celtic", ((1, 100.0),)))
        assert capped.decisions[0].quantity_mw == 100.0
        assert capped.total_profit == pytest.approx(44.25 * 100, rel=1e-12)

    def test_horizon_mismatch_lists_missing(self, celtic_hour):
        a, _, link = celtic_hour
        b = PriceSeries("france", ((1, 50.0), (2, 55.0)))
        with pytest.raises(AlignmentError) as err:
            schedule_link(a, b, link)
        assert "missing timesteps [2]" in str(err.value)
        # the default capacity profile follows series a, so both lag
        assert err.value.missing == {
            "prices 'ireland'": (2,),
            "capacity 'celtic'": (2,),
        }

    def test_long_shifted_horizon_lists_missing(self, celtic):
        # 20 000 steps, one series a step later: the check must stay linear
        n = 20_000
        a = PriceSeries("ireland", tuple((t, 100.0) for t in range(n)))
        b = PriceSeries("france", tuple((t, 50.0) for t in range(1, n + 1)))
        with pytest.raises(AlignmentError) as err:
            schedule_link(a, b, celtic)
        assert list(err.value.missing.items()) == [
            ("prices 'ireland'", (n,)),
            ("prices 'france'", (0,)),
            ("capacity 'celtic'", (n,)),
        ]

    def test_same_timesteps_in_different_order_rejected(self, celtic):
        a = PriceSeries("ireland", ((1, 100.0), (2, 100.0)))
        b = PriceSeries("france", ((2, 50.0), (1, 50.0)))
        with pytest.raises(AlignmentError, match="different order") as err:
            schedule_link(a, b, celtic)
        assert err.value.missing == {}

    @pytest.mark.parametrize("timesteps", [(2, 1), (1, 1)])
    def test_non_increasing_horizon_rejected(self, celtic, timesteps):
        a = PriceSeries("ireland", tuple((t, 100.0) for t in timesteps))
        b = PriceSeries("france", tuple((t, 50.0) for t in timesteps))
        with pytest.raises(AlignmentError, match="strictly increasing"):
            schedule_link(a, b, celtic)

    def test_wrong_regions_rejected(self, celtic_hour):
        a, _, link = celtic_hour
        with pytest.raises(ValueError, match="endpoints"):
            schedule_link(a, PriceSeries("wales", ((1, 75.0),)), link)

    def test_non_positive_duration_rejected(self, celtic_hour):
        a, b, link = celtic_hour
        with pytest.raises(ValueError):
            schedule_link(a, b, link, duration_h=0.0)

    def test_duration_scales_profit(self, celtic_hour):
        a, b, link = celtic_hour
        half = schedule_link(a, b, link, duration_h=0.5)
        assert half.total_profit == pytest.approx(30975.0 / 2, rel=1e-12)


class TestScheduleProperties:
    def test_bang_bang_certificate(self):
        rng = random.Random(17)
        for _ in range(200):
            a, b, link, caps, bias = random_link_instance(rng, max_steps=20)
            schedule = schedule_link(a, b, link, caps, bias)
            assert schedule.total_profit == sum(d.profit for d in schedule.decisions)
            caps_by_t = dict(caps.steps)
            for d in schedule.decisions:
                x_max = caps_by_t[d.timestep]
                assert d.quantity_mw in (0.0, x_max)
                if x_max > 0:
                    assert (d.quantity_mw == x_max) == (d.marginal_value > 0)

    def test_reversing_the_horizon_reverses_decisions(self):
        rng = random.Random(23)
        a, b, link, caps, bias = random_link_instance(rng, max_steps=30)
        forward = schedule_link(a, b, link, caps, bias)
        T = len(a.steps)
        rev = lambda steps: tuple(
            (t, v) for t, (_, v) in zip(range(1, T + 1), reversed(steps))
        )
        backward = schedule_link(
            PriceSeries("a", rev(a.steps)),
            PriceSeries("b", rev(b.steps)),
            link,
            CapacityProfile("ln", rev(caps.steps)),
            bias,
        )
        for d_fwd, d_bwd in zip(forward.decisions, reversed(backward.decisions)):
            assert d_fwd.quantity_mw == d_bwd.quantity_mw
            assert d_fwd.marginal_value == d_bwd.marginal_value
            assert d_fwd.profit == d_bwd.profit
        assert backward.total_profit == pytest.approx(
            forward.total_profit, rel=1e-9, abs=1e-9
        )

    def test_scaling_capacity_scales_profit(self):
        rng = random.Random(29)
        a, b, link, caps, bias = random_link_instance(rng, max_steps=30)
        base = schedule_link(a, b, link, caps, bias)
        for k in (0.0, 0.5, 3.0):
            scaled_caps = CapacityProfile("ln", tuple((t, k * v) for t, v in caps.steps))
            scaled = schedule_link(a, b, link, scaled_caps, bias)
            assert scaled.total_profit == pytest.approx(
                k * base.total_profit, rel=1e-9, abs=1e-9
            )

    def test_raising_bias_never_helps_and_shrinks_activity(self):
        rng = random.Random(31)
        a, b, link, caps, _ = random_link_instance(rng, max_steps=50)
        previous_total = float("inf")
        previous_active = None
        for r_b in (0.0, 5.0, 10.0, 20.0, 40.0):
            schedule = schedule_link(a, b, link, caps, BiasPolicy(r_b))
            active = {d.timestep for d in schedule.decisions if d.quantity_mw > 0}
            assert schedule.total_profit <= previous_total
            if previous_active is not None:
                assert active <= previous_active
            previous_total = schedule.total_profit
            previous_active = active


class TestLpOracle:
    def test_agrees_on_celtic_hour(self, celtic_hour):
        a, b, link = celtic_hour
        assert lp_oracle(a, b, link) == schedule_link(a, b, link)
        assert lp_oracle(a, b, link).total_profit == 30975.0

    def test_agrees_on_flat_prices(self):
        a = PriceSeries("a", ((1, 60.0), (2, 60.0)))
        b = PriceSeries("b", ((1, 60.0), (2, 60.0)))
        link = Interconnector("ab", "a", "b", 400.0, 0.05)
        assert lp_oracle(a, b, link) == schedule_link(a, b, link)
        assert lp_oracle(a, b, link).total_profit == 0.0

    def test_agrees_on_random_instances(self):
        rng = random.Random(97)
        for _ in range(250):
            a, b, link, caps, bias = random_link_instance(rng, max_steps=25)
            assert lp_oracle(a, b, link, caps, bias) == schedule_link(
                a, b, link, caps, bias
            )

    def test_refuses_huge_horizons(self):
        steps = tuple((t, 10.0) for t in range(10_001))
        a = PriceSeries("a", steps)
        b = PriceSeries("b", steps)
        link = Interconnector("ab", "a", "b", 10.0, 0.0)
        with pytest.raises(ValueError, match="limited"):
            lp_oracle(a, b, link)


class TestPortfolio:
    def test_case_study_grand_total(self, bundle):
        result = schedule_portfolio(bundle.network)
        assert [s.interconnector_id for s in result.schedules] == [
            "celtic",
            "ewi",
            "greenlink",
            "moyle",
        ]
        assert result.grand_total == 63289.0
        assert result.annualized == 554411640.0

    def test_empty_network(self):
        result = schedule_portfolio(Network())
        assert result.grand_total == 0.0
        assert result.annualized == 0.0
        assert result.schedules == ()

    def test_duplicating_a_link_doubles_its_contribution(self, bundle):
        net = bundle.network
        celtic = net.link("celtic")
        twin = Interconnector(
            "celtic2", celtic.endpoint_a, celtic.endpoint_b, celtic.capacity_mw,
            celtic.loss_fraction,
        )
        doubled = Network(net.regions, net.interconnectors + (twin,), net.price_series)
        result = schedule_portfolio(doubled)
        assert result.grand_total == 63289.0 + 30975.0

    def test_missing_prices_annotated_with_link(self, bundle):
        net = Network(bundle.network.regions, bundle.network.interconnectors, ())
        with pytest.raises(KeyError, match="celtic"):
            schedule_portfolio(net)

    def test_alignment_error_annotated_with_link(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 10.0, 0.0),),
            (PriceSeries("a", ((1, 1.0),)), PriceSeries("b", ((1, 1.0), (2, 2.0)))),
        )
        with pytest.raises(AlignmentError, match="link 'ab'"):
            schedule_portfolio(net)

    def test_multi_hour_annualization_uses_mean_hourly_profit(self):
        # two identical hours: same mean hourly profit as the one-hour study
        a = PriceSeries("ireland", ((1, 100.0), (2, 100.0)))
        b = PriceSeries("france", ((1, 50.0), (2, 50.0)))
        net = Network(
            (Region("ireland"), Region("france")),
            (Interconnector("celtic", "ireland", "france", 700.0, 0.0575),),
            (a, b),
        )
        result = schedule_portfolio(net)
        assert result.grand_total == 2 * 30975.0
        assert result.annualized == 30975.0 * 8760


class TestExtrapolateAnnual:
    def test_reported_total(self):
        assert extrapolate_annual(61414) == 537_986_640
        assert extrapolate_annual(61414) > 525_000_000

    def test_zero(self):
        assert extrapolate_annual(0) == 0

    def test_computed_total(self):
        assert extrapolate_annual(63289) == 554_411_640

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_annual(-1.0)
