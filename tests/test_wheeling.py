"""Three-area wheeling: gates, profits, feasibility, oracles."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvdcarb import (
    CapacityError,
    Interconnector,
    WheelingChain,
    WheelScenario,
    evaluate_wheel,
    wheel_gates_123,
    wheel_gates_321,
    wheel_profit_123,
    wheel_profit_321,
)

positive_prices = st.floats(min_value=0.1, max_value=200)
losses = st.floats(min_value=0, max_value=0.2)
BAD_DURATIONS = [
    (math.nan, "duration_h must be > 0, got nan"),
    (0.0, "duration_h must be > 0, got 0.0"),
    (-1.0, "duration_h must be > 0, got -1.0"),
    (math.inf, "duration_h must be finite, got inf"),
]


def make_chain(r1=0.02, r2=0.02, c=0.01, cap1=1000.0, cap2=1000.0):
    return WheelingChain(
        "one",
        "two",
        "three",
        Interconnector("l12", "one", "two", cap1, r1),
        Interconnector("l23", "two", "three", cap2, r2),
        c,
    )


def forwarding_oracle(p1, p2, p3, r1, r2, c):
    """Scenario feasibility by shipping one MWh leg by leg.

    Each hand-off must add value on its own: the energy surviving a leg,
    valued at the leg's destination, must beat what it cost to buy.
    """
    first_leg = 1.0 * (1 - r1)  # one -> two over l12
    second_leg = 1.0 * (1 - c) * (1 - r2)  # two -> three, transit then l23
    s123 = p2 * first_leg > p1 and p3 * second_leg > p2
    first_leg_back = 1.0 * (1 - r2)  # three -> two over l23
    second_leg_back = 1.0 * (1 - c) * (1 - r1)  # two -> one, transit then l12
    s321 = p2 * first_leg_back > p3 and p1 * second_leg_back > p2
    return s123, s321


class TestGates123:
    def test_rising_price_chain_is_feasible(self):
        gate_a, gate_b = wheel_gates_123(50, 75, 100, 0.02, 0.02, 0.01)
        assert gate_a == pytest.approx(22.02, rel=1e-9)
        assert gate_b == pytest.approx(23.5, rel=1e-9)
        assert gate_a > 0 and gate_b > 0

    def test_flat_lossless_chain_is_not(self):
        assert wheel_gates_123(80, 80, 80, 0, 0, 0) == (0.0, 0.0)

    def test_falling_price_chain_is_not(self):
        gate_a, gate_b = wheel_gates_123(100, 75, 50, 0.02, 0.02, 0.01)
        assert gate_a < 0 and gate_b < 0

    def test_bad_loss_rejected(self):
        with pytest.raises(ValueError):
            wheel_gates_123(1, 1, 1, 1.0, 0, 0)

    @pytest.mark.parametrize(
        "gates, prices, message",
        [
            (wheel_gates_123, (math.nan, 1, 1), "origin price nan, transit price 1, "
             "destination price 1"),
            (wheel_gates_123, (1, 1e308, -1e308), "origin price 1, transit price 1e+308, "
             "destination price -1e+308"),
            # the mirror names the prices along its own path
            (wheel_gates_321, (1, 2, math.inf), "origin price inf, transit price 2, "
             "destination price 1"),
        ],
        ids=["nan-origin", "overflow", "mirrored"],
    )
    def test_gate_that_is_not_finite_rejected(self, gates, prices, message):
        with pytest.raises(ValueError) as err:
            gates(*prices, 0, 0, 0)
        assert str(err.value) == f"wheeling gates are not finite: {message}"


class TestProfit123:
    def test_rising_chain_profit(self):
        assert wheel_profit_123(50, 100, 0.02, 0.02, 0.01, 100, 1) == pytest.approx(
            4507.96, rel=1e-9
        )

    def test_flat_lossless_chain_earns_nothing(self):
        assert wheel_profit_123(80, 80, 0, 0, 0, 250, 1) == 0.0

    def test_raw_value_goes_negative_on_falling_chain(self):
        assert wheel_profit_123(100, 50, 0.02, 0.02, 0.01, 100, 1) == -5246.02

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError):
            wheel_profit_123(50, 100, 0.02, 0.02, 0.01, -1)

    @pytest.mark.parametrize(
        "profit, p1, p3, message",
        [
            (wheel_profit_123, -1e308, 1e308, "origin price -1e+308, destination price 1e+308"),
            (wheel_profit_321, 1e308, -1e308, "origin price -1e+308, destination price 1e+308"),
            (wheel_profit_123, math.nan, 1.0, "origin price nan, destination price 1.0"),
        ],
        ids=["overflow", "mirrored-overflow", "nan-origin"],
    )
    def test_profit_that_is_not_finite_rejected(self, profit, p1, p3, message):
        with pytest.raises(ValueError) as err:
            profit(p1, p3, 0.0, 0.0, 0.0, 10.0)
        assert str(err.value) == f"wheeling profit is not finite: {message}"

    @pytest.mark.parametrize("profit", [wheel_profit_123, wheel_profit_321])
    @pytest.mark.parametrize("duration_h, message", BAD_DURATIONS)
    def test_bad_duration_rejected(self, profit, duration_h, message):
        # a negative duration used to flip the sign of a losing wheel
        with pytest.raises(ValueError, match=message):
            profit(100, 50, 0, 0, 0, 10, duration_h)


class TestScenario321Mirrors:
    def test_mirrored_rising_chain(self):
        gate_a, gate_b = wheel_gates_321(100, 75, 50, 0.02, 0.02, 0.01)
        assert gate_a == pytest.approx(22.02, rel=1e-9)
        assert gate_b == pytest.approx(23.5, rel=1e-9)
        assert wheel_profit_321(100, 50, 0.02, 0.02, 0.01, 100, 1) == pytest.approx(
            4507.96, rel=1e-9
        )

    def test_mirrored_infeasible(self):
        gate_a, gate_b = wheel_gates_321(50, 75, 100, 0.02, 0.02, 0.01)
        assert gate_a < 0 and gate_b < 0

    def test_flat_lossless(self):
        assert wheel_gates_321(80, 80, 80, 0, 0, 0) == (0.0, 0.0)


class TestEvaluateWheel:
    def test_rising_chain_feasible_one_way_only(self):
        s123, s321 = evaluate_wheel(make_chain(), 50, 75, 100, 100)
        assert s123.scenario is WheelScenario.S123
        assert s123.feasible and not s321.feasible
        assert s123.dispatched_mw == 100.0
        assert s123.profit == pytest.approx(4507.96, rel=1e-9)
        assert s321.dispatched_mw == 0.0 and s321.profit == 0.0

    def test_flat_prices_infeasible_both_ways(self):
        s123, s321 = evaluate_wheel(make_chain(), 80, 80, 80, 100)
        assert not s123.feasible and not s321.feasible

    def test_second_leg_capacity_binds_post_loss(self):
        # 100 MW injected arrives at the second leg as 100*(1-r1)*(1-c)
        chain = make_chain(cap2=97.0)
        with pytest.raises(CapacityError) as err:
            evaluate_wheel(chain, 50, 75, 100, 100)
        assert err.value.binding_link == "l23"
        # under the post-loss flow it fits
        ok_chain = make_chain(cap2=97.1)
        s123, _ = evaluate_wheel(ok_chain, 50, 75, 100, 100)
        assert s123.feasible

    def test_first_leg_capacity_binds_at_injection(self):
        with pytest.raises(CapacityError) as err:
            evaluate_wheel(make_chain(cap1=99.0), 50, 75, 100, 100)
        assert err.value.binding_link == "l12"

    def test_infeasible_scenario_skips_capacity_check(self):
        # flat prices: nothing dispatches, so tiny caps are irrelevant
        s123, s321 = evaluate_wheel(make_chain(cap1=1.0, cap2=1.0), 80, 80, 80, 100)
        assert not s123.feasible and not s321.feasible

    def test_negative_request_rejected(self):
        with pytest.raises(ValueError):
            evaluate_wheel(make_chain(), 50, 75, 100, -1)

    @pytest.mark.parametrize(
        "prices, message",
        [
            ((50, math.nan, 100), "wheeling gates are not finite"),
            ((-1e308, 1e300, 1e308), "wheeling profit is not finite"),  # feasible, overflows
        ],
        ids=["nan-price", "overflow"],
    )
    def test_value_that_is_not_finite_rejected(self, prices, message):
        with pytest.raises(ValueError, match=message):
            evaluate_wheel(make_chain(0.0, 0.0, 0.0), *prices, 10.0)

    @pytest.mark.parametrize("duration_h, message", BAD_DURATIONS)
    def test_bad_duration_rejected(self, duration_h, message):
        with pytest.raises(ValueError, match=message):
            evaluate_wheel(make_chain(), 50, 75, 100, 100, duration_h)

    def test_chain_must_connect(self):
        far = Interconnector("far", "four", "five", 100.0, 0.0)
        with pytest.raises(ValueError, match="does not connect"):
            WheelingChain("one", "two", "three", far, far, 0.0)

    def test_second_link_must_join_the_transit_and_destination_areas(self):
        # a first link that joins areas 1 and 2 leaves the second link's test to fail
        first = Interconnector("l12", "one", "two", 100.0, 0.0)
        stray = Interconnector("l13", "one", "three", 100.0, 0.0)
        with pytest.raises(ValueError) as err:
            WheelingChain("one", "two", "three", first, stray, 0.0)
        assert str(err.value) == "link 'l13' does not connect 'two' and 'three'"

    @pytest.mark.parametrize(
        "cap1, cap2, r2, leg",
        [
            (math.nan, 1000.0, 0.02, "l12"),
            (1000.0, math.inf, 0.02, "l23"),
            (-1.0, 1000.0, 0.02, "l12"),
            (1000.0, 1000.0, 1.0, "l23"),
            (math.nan, math.nan, 0.02, "l12"),  # the first link's, first
        ],
    )
    def test_link_with_violations_rejected(self, cap1, cap2, r2, leg):
        # a NaN cap binds nothing (flow > nan is False): the chain must refuse it
        link12 = Interconnector("l12", "one", "two", cap1, 0.02)
        link23 = Interconnector("l23", "two", "three", cap2, r2)
        first = (link12.violations() or link23.violations())[0]
        assert f"'{leg}'" in first
        with pytest.raises(ValueError) as err:
            WheelingChain("one", "two", "three", link12, link23, 0.01)
        assert str(err.value) == first

    def test_transit_loss_range(self):
        link12 = Interconnector("l12", "one", "two", 100.0, 0.0)
        link23 = Interconnector("l23", "two", "three", 100.0, 0.0)
        with pytest.raises(ValueError):
            WheelingChain("one", "two", "three", link12, link23, 1.0)

    def test_mirror_symmetry(self):
        chain = make_chain(r1=0.03, r2=0.07, c=0.02)
        reversed_chain = WheelingChain(
            "three", "two", "one", chain.link23, chain.link12, chain.transit_loss_c
        )
        for p1, p2, p3 in [(50, 75, 100), (100, 75, 50), (60, 90, 70), (80, 80, 80)]:
            s123, s321 = evaluate_wheel(chain, p1, p2, p3, 10)
            m123, m321 = evaluate_wheel(reversed_chain, p3, p2, p1, 10)
            assert m123.gate_values == s321.gate_values
            assert m123.feasible == s321.feasible
            assert m123.profit == s321.profit
            assert m321.gate_values == s123.gate_values
            assert m321.feasible == s123.feasible
            assert m321.profit == s123.profit

    @given(
        p1=st.floats(min_value=-50, max_value=200),
        p2=st.floats(min_value=-50, max_value=200),
        p3=st.floats(min_value=-50, max_value=200),
        r1=losses,
        r2=losses,
        c=losses,
        x=st.floats(min_value=0, max_value=500),
    )
    def test_mirror_symmetry_for_any_chain(self, p1, p2, p3, r1, r2, c, x):
        chain = make_chain(r1=r1, r2=r2, c=c)
        reversed_chain = WheelingChain("three", "two", "one", chain.link23, chain.link12, c)
        s123, s321 = evaluate_wheel(chain, p1, p2, p3, x)
        m123, m321 = evaluate_wheel(reversed_chain, p3, p2, p1, x)
        # The reversed chain multiplies its losses in the other order. Each
        # of the five roundings after that moves by at most a few ulps of
        # max(|p1|, |p3|) * x, so 16 of them bound the profit difference; the
        # 1 EUR/MWh floor covers products that underflow.
        tolerance = 16 * math.ulp(max(abs(p1), abs(p3), 1.0) * x)
        for mirrored, original in ((m123, s321), (m321, s123)):
            assert mirrored.gate_values == original.gate_values
            assert mirrored.feasible == original.feasible
            assert mirrored.dispatched_mw == original.dispatched_mw
            assert abs(mirrored.profit - original.profit) <= tolerance


class TestWheelingProperties:
    @given(
        p1=positive_prices,
        p2=positive_prices,
        p3=positive_prices,
        r1=losses,
        r2=losses,
        c=losses,
    )
    def test_never_feasible_both_ways_for_positive_prices(self, p1, p2, p3, r1, r2, c):
        # negative prices can make losing power profitable in both
        # directions at once; positive prices cannot
        g123 = wheel_gates_123(p1, p2, p3, r1, r2, c)
        g321 = wheel_gates_321(p1, p2, p3, r1, r2, c)
        feasible_123 = g123[0] > 0 and g123[1] > 0
        feasible_321 = g321[0] > 0 and g321[1] > 0
        assert not (feasible_123 and feasible_321)

    @given(
        p1=positive_prices,
        p2=positive_prices,
        p3=positive_prices,
        x=st.floats(min_value=0, max_value=500),
    )
    def test_lossless_case_reduces_to_monotone_chain(self, p1, p2, p3, x):
        gate_a, gate_b = wheel_gates_123(p1, p2, p3, 0, 0, 0)
        assert (gate_a > 0 and gate_b > 0) == (p3 > p2 > p1)
        assert wheel_profit_123(p1, p3, 0, 0, 0, x) == (p3 - p1) * x

    @given(
        p1=st.floats(min_value=-50, max_value=200),
        p2=st.floats(min_value=-50, max_value=200),
        p3=st.floats(min_value=-50, max_value=200),
        r1=losses,
        r2=losses,
        c=losses,
        x=st.floats(min_value=0, max_value=500),
    )
    def test_321_forms_are_mirrored_123_forms(self, p1, p2, p3, r1, r2, c, x):
        # gates mirror prices and losses; the profit mirrors only the prices
        assert wheel_gates_321(p1, p2, p3, r1, r2, c) == wheel_gates_123(
            p3, p2, p1, r2, r1, c
        )
        assert wheel_profit_321(p1, p3, r1, r2, c, x) == wheel_profit_123(
            p3, p1, r1, r2, c, x
        )

    def test_feasibility_matches_forwarding_oracle(self):
        rng = random.Random(4040)
        for _ in range(10_000):
            p1, p2, p3 = (rng.uniform(-50, 200) for _ in range(3))
            r1, r2, c = (rng.uniform(0, 0.2) for _ in range(3))
            g123 = wheel_gates_123(p1, p2, p3, r1, r2, c)
            g321 = wheel_gates_321(p1, p2, p3, r1, r2, c)
            want_123, want_321 = forwarding_oracle(p1, p2, p3, r1, r2, c)
            assert (g123[0] > 0 and g123[1] > 0) == want_123
            assert (g321[0] > 0 and g321[1] > 0) == want_321

    def test_feasible_gates_imply_positive_profit(self):
        rng = random.Random(5050)
        checked = 0
        for _ in range(10_000):
            p1, p2, p3 = (rng.uniform(-50, 200) for _ in range(3))
            r1, r2, c = (rng.uniform(0, 0.2) for _ in range(3))
            g123 = wheel_gates_123(p1, p2, p3, r1, r2, c)
            if g123[0] > 0 and g123[1] > 0:
                assert wheel_profit_123(p1, p3, r1, r2, c, 1.0) > 0
                checked += 1
            g321 = wheel_gates_321(p1, p2, p3, r1, r2, c)
            if g321[0] > 0 and g321[1] > 0:
                assert wheel_profit_321(p1, p3, r1, r2, c, 1.0) > 0
                checked += 1
        assert checked > 100  # the sample actually exercises feasible cases

    def test_profit_strictly_decreasing_in_each_loss(self):
        base = dict(r1=0.02, r2=0.02, c=0.01)
        reference = wheel_profit_123(50, 100, x=100.0, **base)
        for key in base:
            worse = dict(base, **{key: base[key] + 0.05})
            assert wheel_profit_123(50, 100, x=100.0, **worse) < reference
