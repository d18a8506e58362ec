"""Horizon scheduling, portfolio aggregation, and the enumeration oracle."""

import copy
import dataclasses
import functools
import math
import operator
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdcarb import (
    AlignmentError,
    BiasPolicy,
    CapacityProfile,
    Direction,
    FlowDecision,
    Interconnector,
    Network,
    PriceSeries,
    Region,
    Schedule,
    extrapolate_annual,
    lp_oracle,
    optimal_flow,
    schedule_link,
    schedule_portfolio,
    validate_network,
    write_report,
)
from hvdcarb import scheduler
from conftest import DISJOINT_YEARS, one_link_network, random_link_instance


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

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    def test_another_links_profile_rejected(self, celtic_hour, solver):
        a, b, link = celtic_hour
        moyle = CapacityProfile("moyle", ((1, 100.0),))
        with pytest.raises(ValueError) as err:
            solver(a, b, link, moyle)
        assert str(err.value) == "capacity profile 'moyle' does not belong to link 'celtic'"

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    @pytest.mark.parametrize(
        "p_a, p_b, message",
        [
            # one step's profit overflows: the per-step rule's error
            (
                [100.0, 8.98e307], [50.0, -8.98e307],
                "profit at t=2 is not finite: p_a=8.98e+307, p_b=-8.98e+307, "
                "x_max=100.0, duration_h=1.0",
            ),
            # every step's profit is finite, their sum is not
            ([5e305, 5e305], [-5e305, -5e305], "link 'ln': total profit is not finite"),
        ],
        ids=["a-step", "the-total"],
    )
    def test_overflowing_profit_rejected(self, solver, p_a, p_b, message):
        with pytest.raises(ValueError) as err:
            solver(*link_problem(p_a, p_b))
        assert str(err.value) == message

    def test_non_positive_duration_rejected(self, celtic_hour):
        a, b, link = celtic_hour
        with pytest.raises(ValueError):
            schedule_link(a, b, link, duration_h=0.0)

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    def test_infinite_duration_rejected(self, celtic_hour, solver):
        a, b, link = celtic_hour
        with pytest.raises(ValueError, match="duration_h must be finite, got inf"):
            solver(a, b, link, duration_h=math.inf)

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("region", ["ireland", "france"])
    def test_non_finite_price_rejected(self, celtic, solver, bad, region):
        steps = {
            "ireland": ((1, 100.0), (2, 90.0), (3, 80.0)),
            "france": ((1, 50.0), (2, 60.0), (3, 70.0)),
        }
        steps[region] = steps[region][:1] + ((2, bad),) + steps[region][2:]
        a = PriceSeries("ireland", steps["ireland"])
        b = PriceSeries("france", steps["france"])
        # the per-step rule's error at the same step, and no other
        with pytest.raises(ValueError) as want:
            optimal_flow(
                a.price_at(2), b.price_at(2), celtic.loss_fraction, celtic.capacity_mw,
                timestep=2,
            )
        assert str(want.value).startswith("price spread at t=2 is not finite")
        with pytest.raises(ValueError) as got:
            solver(a, b, celtic)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    @pytest.mark.parametrize("capacity", [None, (700.0, 0.0, 700.0)])
    def test_overflowing_spread_rejected(self, celtic, solver, capacity):
        a = PriceSeries("ireland", ((1, 100.0), (2, 1e308), (3, 1e308)))
        b = PriceSeries("france", ((1, 50.0), (2, -1e308), (3, -1e308)))
        if capacity is not None:
            capacity = CapacityProfile("celtic", tuple(zip((1, 2, 3), capacity)))
        with pytest.raises(
            ValueError, match=r"price spread at t=2 is not finite: p_a=1e\+308, p_b=-1e\+308"
        ):
            solver(a, b, celtic, capacity)

    def test_a_range_bound_that_overflows_leaves_the_steps_to_decide(self):
        # high_a - low_b = 1e308 - -1e308 overflows, yet no step's spread does
        problem = link_problem([1e308, 0.0], [0.0, -1e308], rated=0.5)
        got, want = schedule_link(*problem), lp_oracle(*problem)
        assert got.total_profit == 1e308 and got.quantities == (0.5, 0.5)
        assert repr(got) == repr(want)

    def test_total_is_summed_left_to_right(self):
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives 1e16 + 2
        a = PriceSeries("a", ((1, 1e16), (2, 1.0), (3, 1.0)))
        b = PriceSeries("b", ((1, 0.0), (2, 0.0), (3, 0.0)))
        link = Interconnector("ab", "a", "b", 1.0, 0.0)
        schedule = schedule_link(a, b, link)
        assert schedule.profits == (1e16, 1.0, 1.0)
        assert schedule.total_profit == 1e16

    @given(st.lists(st.floats()))
    @example([1.7976931348623157e308, 6e291, 6e291])  # compensation overflows
    def test_a_finite_sum_has_only_finite_terms(self, values):
        # _prepare trusts a finite sum() of a column, whichever summation
        # the interpreter's sum() uses
        if math.isfinite(sum(values)):
            assert all(map(math.isfinite, values))

    def test_empty_horizon_total_is_a_float(self, celtic):
        schedule = schedule_link(PriceSeries("ireland", ()), PriceSeries("france", ()), celtic)
        assert repr(schedule.total_profit) == "0.0"
        assert schedule.decisions == ()

    def test_duration_scales_profit(self, celtic_hour):
        a, b, link = celtic_hour
        half = schedule_link(a, b, link, duration_h=0.5)
        assert half.total_profit == pytest.approx(30975.0 / 2, rel=1e-12)


class TestScheduleColumns:
    def test_constructor_round_trips(self):
        rng = random.Random(41)
        a, b, link, caps, bias = random_link_instance(rng, max_steps=30)
        schedule = schedule_link(a, b, link, caps, bias)
        rebuilt = Schedule(
            schedule.interconnector_id,
            *zip(*(dataclasses.astuple(d) for d in schedule.decisions)),
            schedule.total_profit,
        )
        assert rebuilt == schedule
        assert schedule.timesteps == a.timesteps
        assert [d.profit for d in schedule.decisions] == list(schedule.profits)

    def test_columns_of_different_length_rejected(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            Schedule("ab", (1, 2), (Direction.IDLE,), (0.0,), (0.0,), (0.0,), 0.0)


def per_step_schedule(prices_a, prices_b, link, capacity=None, bias=None, duration_h=1.0):
    """Reference for the column core: one validated optimal_flow per step."""
    if prices_a.region_id != link.endpoint_a:
        prices_a, prices_b = prices_b, prices_a
    if capacity is None:
        capacity = CapacityProfile(link.id, ((t, link.capacity_mw) for t in prices_a.timesteps))
    r_b = (bias or BiasPolicy()).r_b
    decisions = [
        optimal_flow(p_a, p_b, link.loss_fraction, x_max, r_b, duration_h, t)
        for (t, p_a), (_, p_b), (_, x_max) in zip(
            prices_a.steps, prices_b.steps, capacity.steps
        )
    ]
    columns = tuple(zip(*map(dataclasses.astuple, decisions))) or ((),) * 5
    total = functools.reduce(operator.add, columns[-1], 0.0)
    if not math.isfinite(total):  # no step overflows, yet their sum does
        raise ValueError(f"link '{link.id}': total profit is not finite")
    return Schedule(link.id, *columns, total)


def link_problem(p_a, p_b, r=0.0, caps=None, bias=None, duration_h=1.0, rated=100.0):
    """Argument tuple of schedule_link for a horizon starting at t=1."""
    timesteps = range(1, len(p_a) + 1)
    a = PriceSeries("a", tuple(zip(timesteps, p_a)))
    b = PriceSeries("b", tuple(zip(timesteps, p_b)))
    capacity = None if caps is None else CapacityProfile("ln", tuple(zip(timesteps, caps)))
    return a, b, Interconnector("ln", "a", "b", rated, r), capacity, bias, duration_h


# Few distinct prices, so that equal prices (ties, lambda == 0) and margins
# equal to the bias come up often; +-1e308 overflow the spread, and a price
# that is not finite is the per-step rule's to reject.
_step_prices = st.one_of(
    st.sampled_from([-20.0, -0.0, 0.0, 50.0, 100.0]),
    st.floats(-500, 500),
    st.sampled_from([1e308, -1e308]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_capacities = st.one_of(
    st.sampled_from([0.0, -0.0, 700.0, -1.0, math.nan, math.inf]),
    st.floats(0, 2000),
)
_losses = st.one_of(
    st.sampled_from([0.0, 0.0575, 0.5]),
    st.floats(0, 0.999),
    st.sampled_from([-0.1, 1.0, math.nan]),
)
# BiasPolicy rejects a bad r_b; a duck-typed bias still reaches the rule.
_biases = st.one_of(
    st.none(),
    st.sampled_from([0.0, 5.0, 50.0]).map(BiasPolicy),
    st.floats(0, 100).map(BiasPolicy),
    st.sampled_from([-1.0, math.nan, math.inf]).map(lambda r_b: SimpleNamespace(r_b=r_b)),
)


@st.composite
def link_problems(draw):
    n = draw(st.integers(0, 12))
    p_a = [draw(_step_prices) for _ in range(n)]
    p_b = [draw(_step_prices) for _ in range(n)]
    caps = [draw(_capacities) for _ in range(n)] if draw(st.booleans()) else None
    a, b, link, capacity, bias, duration_h = link_problem(
        p_a,
        p_b,
        draw(_losses),
        caps,
        draw(_biases),
        draw(st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 1e3)),
        draw(_capacities),
    )
    if draw(st.booleans()):
        a, b = b, a
    return a, b, link, capacity, bias, duration_h


def per_step_cases(test):
    """Hypothesis setup shared by the per-step tests of both solvers."""
    for problem in (
        link_problem([-20.0], [-20.0], r=0.5),  # tie: delivers into a
        link_problem([-0.0, 50.0], [0.0, -0.0], r=-0.0),  # a margin of -0.0 floors to 0.0
        link_problem([100.0], [50.0], caps=[-0.0]),
        link_problem([98.0], [50.0], caps=[244.0], duration_h=0.3),
        link_problem([1e308], [-1e308], caps=[0.0]),  # spread overflows
        link_problem([1e308], [-1e308], bias=SimpleNamespace(r_b=math.inf)),
        link_problem([100.0], [50.0], bias=SimpleNamespace(r_b=-1.0)),
        link_problem([100.0, 50.0], [50.0, 50.0], r=1.0, caps=[-1.0, 5.0]),
        link_problem([100.0, 50.0], [50.0, 50.0], r=1.0, caps=[5.0, -1.0]),
        link_problem([], [], r=math.nan, bias=SimpleNamespace(r_b=-1.0)),
        link_problem([100.0], [50.0], r=1.5),
        link_problem([100.0], [50.0], caps=[-5.0]),
        link_problem([100.0, math.nan], [50.0, 60.0]),  # a price that is not finite
        link_problem([100.0], [50.0], caps=[math.inf]),  # an infinite profile
        link_problem([100.0], [-math.inf], rated=math.inf),  # the cap is checked first
        link_problem([8.98e307], [-8.98e307], r=0.5),  # the step's profit overflows
        link_problem([5e305, 5e305], [-5e305, -5e305]),  # only the total overflows
        # the profit x * duration_h * lambda underflows to 0.0, yet dispatches
        link_problem([-20.0], [-20.0], r=0.0575, duration_h=0.25, rated=5e-324),
    ):
        test = example(problem)(test)
    return settings(max_examples=300)(given(link_problems())(test))


def assert_matches_per_step_rule(solve, problem):
    """``solve`` raises what the per-step rule raises, or returns its columns."""
    try:
        expected = per_step_schedule(*problem)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            solve(*problem)
        assert str(err.value) == str(exc)
        return
    got = solve(*problem)
    for column in (
        "interconnector_id",
        "timesteps",
        "directions",
        "quantities",
        "lambdas",
        "profits",
        "total_profit",
    ):
        assert repr(getattr(got, column)) == repr(getattr(expected, column))
    assert repr(got.decisions) == repr(expected.decisions)


class TestColumnCoreMatchesPerStepRule:
    @per_step_cases
    def test_columns_errors_and_decisions_bit_for_bit(self, problem):
        assert_matches_per_step_rule(schedule_link, problem)

    @per_step_cases
    def test_oracle_rejects_what_the_scheduler_rejects(self, problem):
        assert_matches_per_step_rule(lp_oracle, problem)


def _as_portfolio(a, b, link, capacity, bias, duration_h):
    """schedule_portfolio's arguments for one link's problem."""
    network = Network((Region(a.region_id), Region(b.region_id)), (link,), (a, b))
    return network, {link.id: capacity} if capacity else {}, bias, duration_h


class TestRatedCapacityPastFloatRange:
    # float() raises OverflowError on an int past float range; the per-step
    # rule refuses such a capacity with a ValueError, and so do all three.
    @pytest.mark.parametrize(
        "solve",
        [schedule_link, lp_oracle, lambda *problem: schedule_portfolio(*_as_portfolio(*problem))],
        ids=["schedule_link", "lp_oracle", "schedule_portfolio"],
    )
    def test_is_refused_with_the_per_step_rules_error(self, solve):
        problem = link_problem([10.0, 20.0], [5.0, 50.0], rated=10**400)
        with pytest.raises(ValueError) as want:
            optimal_flow(10.0, 5.0, 0.0, 10**400)
        assert str(want.value) == "x_max must be finite and >= 0, got <int of over 308 digits>"
        with pytest.raises(ValueError) as got:
            solve(*problem)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("solver", [schedule_link, lp_oracle])
    def test_an_empty_horizon_decides_no_step(self, solver):
        problem = link_problem([], [], rated=10**400)
        assert solver(*problem) == per_step_schedule(*problem)


class TestReplays:
    """The per-step rule is replayed only when an input's own check fails, or
    the total is not finite."""

    @pytest.fixture
    def replays(self, monkeypatch):
        calls, replay = [], scheduler._replay

        def counted(*problem):
            calls.append(problem)
            return replay(*problem)

        monkeypatch.setattr(scheduler, "_replay", counted)
        return calls

    VALID = {
        "rated-float": link_problem([100.0, 50.0, 60.0], [50.0, 80.0, 60.0], r=0.0575),
        "rated-int": link_problem([100.0, 50.0], [50.0, 80.0], rated=700),
        "zero-capacity-steps": link_problem(
            [100.0, 50.0, 70.0], [50.0, 80.0, 20.0], caps=[0.0, 700.0, -0.0]
        ),
        "negative-prices": link_problem([-20.0, -50.0], [-80.0, 10.0], r=0.02),
        "positive-bias": link_problem([100.0, 50.0], [50.0, 80.0], bias=BiasPolicy(5.0)),
    }
    REFUSED = {
        "bad-loss": link_problem([100.0], [50.0], r=1.0),
        "bad-bias-object": link_problem([100.0], [50.0], bias=SimpleNamespace(r_b=-1.0)),
        "negative-profile-value": link_problem([100.0, 50.0], [50.0, 80.0], caps=[5.0, -1.0]),
        "nan-price": link_problem([100.0, math.nan], [50.0, 60.0]),
        "spread-overflows-at-zero-capacity": link_problem(
            [100.0, 1e308], [50.0, -1e308], caps=[700.0, 0.0]
        ),
    }

    @pytest.mark.parametrize("problem", VALID.values(), ids=VALID)
    def test_valid_input_never_replays(self, replays, problem):
        assert schedule_link(*problem) == per_step_schedule(*problem)
        schedule_portfolio(*_as_portfolio(*problem))
        assert replays == []

    def test_the_bundled_study_never_replays(self, replays, bundle):
        network = bundle.network
        schedule_portfolio(network)
        for link in network.interconnectors:
            schedule_link(*map(network.prices_for, link.endpoints()), link)
        assert replays == []

    @pytest.mark.parametrize(
        "solve",
        [schedule_link, lambda *problem: schedule_portfolio(*_as_portfolio(*problem))],
        ids=["schedule_link", "schedule_portfolio"],
    )
    @pytest.mark.parametrize("problem", REFUSED.values(), ids=REFUSED)
    def test_refused_input_replays_the_per_step_rule(self, replays, solve, problem):
        with pytest.raises(ValueError) as want:
            per_step_schedule(*problem)
        with pytest.raises(ValueError) as got:
            solve(*problem)
        assert str(got.value) == str(want.value)
        assert replays


def eager_schedule(prices_a, prices_b, link, capacity=None, bias=None, duration_h=1.0):
    """Reference: the column kernel that computed every column up front."""
    horizon, col_a, col_b, col_x, r, r_b, _ = scheduler._prepare(
        prices_a, prices_b, link, capacity, bias, duration_h
    )
    to_a = [p_a - p_b - r * p_a for p_a, p_b in zip(col_a, col_b)]
    to_b = [p_b - p_a - r * p_b for p_a, p_b in zip(col_a, col_b)]
    lambdas = tuple([max(0.0, m_a - r_b, m_b - r_b) for m_a, m_b in zip(to_a, to_b)])
    # sum() compensates from Python 3.12, but only this test's outcome counts:
    # a finite sum has only finite terms on every interpreter (see
    # test_a_finite_sum_has_only_finite_terms), and a sum that is not finite
    # only replays the per-step rule, which decides on its own.
    if not (
        0 <= r < 1
        and r_b >= 0
        and min(col_x, default=0.0) >= 0
        and math.isfinite(sum(col_x) + sum(to_a) + sum(to_b))
    ):
        for t, p_a, p_b, x_max in zip(horizon, col_a, col_b, col_x):
            optimal_flow(p_a, p_b, r, x_max, r_b, duration_h, t)
    quantities = tuple([x if lam > 0 and x > 0 else 0.0 for lam, x in zip(lambdas, col_x)])
    into_a, into_b, idle = Direction.B_TO_A, Direction.A_TO_B, Direction.IDLE
    directions = tuple(
        [
            (into_a if m_a >= m_b else into_b) if q > 0 else idle
            for q, m_a, m_b in zip(quantities, to_a, to_b)
        ]
    )
    profits = tuple([q * duration_h * lam for q, lam in zip(quantities, lambdas)])
    total = functools.reduce(operator.add, profits, 0.0)
    # A total that is not finite: the error of the first step whose profit
    # overflows, or, when none does, the link's.
    if not math.isfinite(total):
        for t, p_a, p_b, x_max in zip(horizon, col_a, col_b, col_x):
            optimal_flow(p_a, p_b, r, x_max, r_b, duration_h, t)
        raise ValueError(f"link '{link.id}': total profit is not finite")
    return Schedule(link.id, horizon, directions, quantities, lambdas, profits, total)


# Ties and signed zeros, spreads near and past overflow (8.98e307 - -8.98e307
# is finite, 1.7e308 - -1.7e308 is not), and any finite price.
_edge_prices = st.one_of(
    st.sampled_from([-20.0, -0.0, 0.0, 50.0, 100.0]),
    st.floats(-500, 500),
    st.sampled_from([8.98e307, -8.98e307, 1.7e308, -1.7e308, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# an infinite cap is rejected by both, with the per-step rule's error
_edge_capacities = st.one_of(
    st.sampled_from([0.0, -0.0, 700.0, math.inf]), st.floats(0, 2000)
)
_edge_biases = st.one_of(
    st.none(),
    st.sampled_from([0.0, 5.0]).map(BiasPolicy),
    st.floats(0, 100).map(BiasPolicy),
)


@st.composite
def edge_link_problems(draw):
    n = draw(st.integers(0, 24))
    p_a = [draw(_edge_prices) for _ in range(n)]
    p_b = [draw(_edge_prices) if draw(st.booleans()) else p for p in p_a]  # ties
    caps = [draw(_edge_capacities) for _ in range(n)] if draw(st.booleans()) else None
    a, b, link, capacity, bias, duration_h = link_problem(
        p_a,
        p_b,
        draw(st.sampled_from([0.0, -0.0, 0.0575, 0.5]) | st.floats(0, 0.999)),
        caps,
        draw(_edge_biases),
        draw(st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 1e3)),
        draw(_edge_capacities),
    )
    if draw(st.booleans()):
        a, b = b, a
    return a, b, link, capacity, bias, duration_h


def edge_cases(test):
    """Hypothesis setup shared by the edge tests of both solvers."""
    for problem in (
        link_problem([-20.0], [-20.0], r=0.5),  # tie: delivers into a
        link_problem([-0.0, 0.0], [0.0, -0.0]),
        link_problem([-0.0, 0.0], [0.0, -0.0], r=-0.0),  # a margin of -0.0
        link_problem([100.0], [50.0], caps=[math.inf]),
        link_problem([100.0], [50.0], rated=0.0, bias=BiasPolicy(5.0)),
        link_problem([8.98e307], [-8.98e307], r=0.5),  # spread finite, profit not
        link_problem([5e305, 5e305], [-5e305, -5e305]),  # steps finite, total not
        link_problem([1.7e308], [-1.7e308], caps=[0.0]),  # spread overflows
    ):
        test = example(problem)(test)
    return settings(max_examples=400)(given(edge_link_problems())(test))


class TestDeferredColumnsMatchEagerKernel:
    @edge_cases
    def test_every_column_and_total_by_repr(self, problem):
        try:
            expected = eager_schedule(*problem)
        except ValueError as exc:
            with pytest.raises(type(exc)) as err:
                schedule_link(*problem)
            assert str(err.value) == str(exc)
            return
        got = schedule_link(*problem)
        assert "_inputs" in vars(got)  # the columns are not built yet
        for field in dataclasses.fields(Schedule):
            assert repr(getattr(got, field.name)) == repr(getattr(expected, field.name))
        assert "_inputs" not in vars(got)

    @edge_cases
    def test_the_oracle_matches_by_repr(self, problem):
        try:
            expected = eager_schedule(*problem)
        except ValueError as exc:
            with pytest.raises(type(exc)) as err:
                lp_oracle(*problem)
            assert str(err.value) == str(exc)
            return
        assert repr(lp_oracle(*problem)) == repr(expected)


def _deferred_problem():
    return link_problem(
        [100.0, -20.0, 50.0, 0.0, 60.0],
        [50.0, -20.0, 80.0, -0.0, 60.0],
        r=0.0575,
        caps=[700.0, 700.0, 0.0, 700.0, 500.0],
        bias=BiasPolicy(1.0),
    )


def columns(s):
    """A schedule's five per-step columns, in FlowDecision's field order."""
    return s.timesteps, s.directions, s.quantities, s.lambdas, s.profits


class TestDeferredSchedule:
    @pytest.mark.parametrize(
        "duplicate",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy, lambda s: s],
        ids=["pickle", "copy", "deepcopy", "itself"],
    )
    def test_copies_equal_the_eager_schedule(self, duplicate):
        eager = eager_schedule(*_deferred_problem())
        copied = duplicate(schedule_link(*_deferred_problem()))
        assert copied == eager and eager == copied
        assert repr(copied) == repr(eager)
        assert hash(copied) == hash(eager)
        assert repr(copied.decisions) == repr(eager.decisions)

    @pytest.mark.parametrize(
        "view",
        [
            repr,
            hash,
            lambda s: s == eager_schedule(*_deferred_problem()),
            lambda s: repr(dataclasses.asdict(s)),
            lambda s: repr(dataclasses.replace(s, total_profit=1.0)),
            lambda s: repr(dataclasses.replace(s, interconnector_id="other")),
            lambda s: repr(dataclasses.astuple(s)),
            lambda s: repr(list(zip(*columns(s)))),
            lambda s: repr(s.decisions),
        ],
        ids=[
            "repr", "hash", "eq", "asdict", "replace", "replace-id", "astuple", "rows",
            "decisions",
        ],
    )
    def test_first_read_sees_what_an_eager_schedule_shows(self, view):
        eager = eager_schedule(*_deferred_problem())
        deferred = schedule_link(*_deferred_problem())
        assert "_inputs" in vars(deferred)
        assert view(deferred) == view(eager)

    def test_columns_are_built_once(self, monkeypatch):
        builds = []
        build = scheduler._schedule_columns

        def counting(*inputs):
            builds.append(inputs)
            return build(*inputs)

        monkeypatch.setattr(scheduler, "_schedule_columns", counting)
        schedule = schedule_link(*_deferred_problem())
        assert builds == []
        assert schedule.total_profit > 0 and len(schedule.timesteps) == 5
        assert builds == []
        schedule.profits, schedule.directions, schedule.decisions, columns(schedule)
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "view",
        [
            lambda d: d,
            hash,
            repr,
            dataclasses.astuple,
            lambda d: pickle.loads(pickle.dumps(d)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["eq", "hash", "repr", "astuple", "pickle", "copy", "deepcopy"],
    )
    def test_decisions_are_what_flow_decision_builds(self, view):
        schedule = schedule_link(*_deferred_problem())
        built = list(map(FlowDecision, *columns(schedule)))
        got = list(map(view, schedule.decisions))
        assert got == list(map(view, built))
        assert repr(got) == repr(list(map(view, built)))  # signed zeros too

    def test_valid_decisions_are_filled_without_the_constructor(self, monkeypatch):
        """Only a schedule that breaks a rule builds its decisions one by one,
        and raises at its first bad step."""
        calls = []
        init = FlowDecision.__init__

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        schedules = [
            schedule_link(*_deferred_problem()),
            lp_oracle(*_deferred_problem()),
            Schedule("empty", (), (), (), (), (), 0.0),
        ]
        monkeypatch.setattr(FlowDecision, "__init__", counting)
        for schedule in schedules:
            assert len(schedule.decisions) == len(schedule.timesteps)
        assert calls == []
        idle = Direction.IDLE
        bad = Schedule("ab", (1, 2, 3), (idle,) * 3, (0.0, 5.0, 5.0), (0.0,) * 3, (0.0,) * 3, 0.0)
        with pytest.raises(ValueError, match=r"^quantity_mw must be 0 exactly when idle "
                           r"\(got 5\.0 MW, Idle\)$"):
            bad.decisions
        assert [t for t, *_ in calls] == [1, 2]

    def test_decisions_are_slotted_and_frozen(self):
        for decision in schedule_link(*_deferred_problem()).decisions:
            assert type(decision) is FlowDecision
            assert not hasattr(decision, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                decision.quantity_mw = 1.0

    def test_other_missing_attributes_still_raise(self):
        schedule = schedule_link(*_deferred_problem())
        with pytest.raises(AttributeError, match="no attribute 'quantity'"):
            schedule.quantity
        assert not hasattr(schedule, "__deepcopy__")
        assert "_inputs" in vars(schedule)


class TestScheduleProperties:
    def test_bang_bang_certificate(self):
        rng = random.Random(17)
        for _ in range(200):
            a, b, link, caps, bias = random_link_instance(rng, max_steps=20)
            schedule = schedule_link(a, b, link, caps, bias)
            # left to right, as the library sums: from Python 3.12 sum() compensates
            profits = (d.profit for d in schedule.decisions)
            assert schedule.total_profit == functools.reduce(operator.add, profits, 0.0)
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


# Every nonzero input lies in [1e-3, 1e6] in magnitude (a price, a capacity, a
# bias), a loss in [1e-3, 0.5], a step in [0.25, 4] hours, and a horizon has at
# most 200 steps. Then every intermediate is 0 or a normal float, also at twice
# the prices and the bias: a nonzero margin or λ is at least the spacing of
# floats near 1e-6 (the least r * p), about 2e-22, a profit at least about 5e-26,
# a link's total at most 200 * 1e4 * 4 * 1e7 < 1e14 (λ < 1e7 at twice the
# prices), and the grand total three times that. Doubling a normal float is
# exact and commutes with rounding, and rounded + and * are monotone, so both
# identities below hold by construction, not by the inputs drawn.
@st.composite
def bounded_portfolios(draw):
    """A chain of up to three links over one horizon of at most 200 steps, with a
    capacity profile per link, a step length and a bias, in the bounds above;
    magnitudes are drawn log-uniformly, and a fifth of the values are 0."""
    rng = draw(st.randoms(use_true_random=True))

    def value(low, high, signed=False):
        if rng.random() < 0.2:
            return 0.0
        magnitude = min(max(low * (high / low) ** rng.random(), low), high)
        return -magnitude if signed and rng.random() < 0.5 else magnitude

    steps = range(rng.randint(1, 200))
    regions = "abcd"[: rng.randint(2, 4)]
    series = [PriceSeries(rid, [(t, value(1e-3, 1e6, True)) for t in steps]) for rid in regions]
    links = [
        Interconnector(f"{a}{b}", a, b, 1.0, value(1e-3, 0.5))
        for a, b in zip(regions, regions[1:])
    ]
    capacities = {
        link.id: CapacityProfile(link.id, [(t, value(1e-3, 1e4)) for t in steps])
        for link in links
    }
    network = Network(tuple(map(Region, regions)), tuple(links), tuple(series))
    return network, capacities, rng.uniform(0.25, 4.0), value(1e-3, 1e4)


def _doubled(network: Network) -> Network:
    return network.with_prices(
        PriceSeries(s.region_id, list(zip(s.timesteps, (2 * p for p in s.prices))))
        for s in network.price_series
    )


def _bits(values) -> list[str]:
    return list(map(float.hex, values))


class TestExactIdentities:
    @settings(max_examples=500)
    @given(bounded_portfolios())
    def test_doubling_prices_and_bias_doubles_every_value(self, problem):
        network, capacities, duration_h, r_b = problem
        base = schedule_portfolio(network, capacities, BiasPolicy(r_b), duration_h)
        doubled = schedule_portfolio(
            _doubled(network), capacities, BiasPolicy(2 * r_b), duration_h
        )
        for s, d in zip(base.schedules, doubled.schedules, strict=True):
            assert d.directions == s.directions
            assert _bits(d.lambdas) == _bits(2 * v for v in s.lambdas)
            assert _bits(d.profits) == _bits(2 * v for v in s.profits)
            assert d.total_profit.hex() == (2 * s.total_profit).hex()
        assert doubled.grand_total.hex() == (2 * base.grand_total).hex()

    @settings(max_examples=500)
    @given(bounded_portfolios(), st.one_of(st.just(0.0), st.floats(1e-3, 1e4)))
    def test_raising_the_bias_never_adds_a_step_or_raises_a_total(self, problem, extra):
        network, capacities, duration_h, r_b = problem
        low = schedule_portfolio(network, capacities, BiasPolicy(r_b), duration_h)
        high = schedule_portfolio(network, capacities, BiasPolicy(r_b + extra), duration_h)
        for s, h in zip(low.schedules, high.schedules, strict=True):
            dispatched = {t for t, q in zip(s.timesteps, s.quantities) if q}
            assert {t for t, q in zip(h.timesteps, h.quantities) if q} <= dispatched
            assert h.total_profit <= s.total_profit
        assert high.grand_total <= low.grand_total


_MIRRORED = {
    Direction.A_TO_B: Direction.B_TO_A,
    Direction.B_TO_A: Direction.A_TO_B,
    Direction.IDLE: Direction.IDLE,
}


class TestEndpointSwap:
    # Swapping a link's endpoints swaps the kernel's pre-bias margins m_a and m_b,
    # and _schedule_columns takes their max after the same subtraction of r_b, so
    # every λ, quantity, profit and total is the same float by construction. The
    # direction goes into the endpoint of the larger margin, and a tie goes into
    # endpoint a whichever region that is, so only a tie is not mirrored.
    @settings(max_examples=300)
    @given(bounded_portfolios())
    @example(  # equal negative prices: both margins are 1.0, and the link dispatches
        (
            Network(
                (Region("a"), Region("b")),
                (Interconnector("ab", "a", "b", 100.0, 0.1),),
                (PriceSeries("a", ((0, -10.0),)), PriceSeries("b", ((0, -10.0),))),
            ),
            {},
            1.0,
            0.0,
        )
    )
    def test_swapping_endpoints_mirrors_directions_and_keeps_every_value(self, problem):
        network, capacities, duration_h, r_b = problem
        swapped = Network(
            network.regions,
            tuple(
                dataclasses.replace(link, endpoint_a=link.endpoint_b, endpoint_b=link.endpoint_a)
                for link in network.interconnectors
            ),
            network.price_series,
        )
        base = schedule_portfolio(network, capacities, BiasPolicy(r_b), duration_h)
        other = schedule_portfolio(swapped, capacities, BiasPolicy(r_b), duration_h)
        assert base.grand_total.hex() == other.grand_total.hex()
        for s, o in zip(base.schedules, other.schedules, strict=True):
            for column in ("quantities", "lambdas", "profits"):
                assert _bits(getattr(o, column)) == _bits(getattr(s, column))
            assert o.total_profit.hex() == s.total_profit.hex()
            link = network.link(s.interconnector_id)
            r = link.loss_fraction
            col_a, col_b = (network.prices_for(e).prices for e in link.endpoints())
            for d, d_swapped, p_a, p_b in zip(s.directions, o.directions, col_a, col_b):
                tie = p_a - p_b - r * p_a == p_b - p_a - r * p_b
                assert d_swapped == (d if tie else _MIRRORED[d])


def _exact_lambda(p_a: float, p_b: float, r: float, r_b: float) -> Fraction:
    """λ of one step in exact arithmetic, from the float inputs."""
    p_a, p_b, r, r_b = map(Fraction, (p_a, p_b, r, r_b))
    return max(p_a - p_b - r * p_a - r_b, p_b - p_a - r * p_b - r_b, Fraction(0))


# The unit roundoff u = ε/2: with no underflow or overflow, a rounded +, - or *
# returns (exact result) * (1 + δ) with |δ| <= u.
_U = Fraction(1, 2**53)


def _gamma(k: int) -> Fraction:
    """γ_k = k·u / (1 - k·u): recursive summation of k + 1 terms errs by at most
    γ_k times the sum of their magnitudes."""
    return k * _U / (1 - k * _U)


class TestExactReference:
    # The margin a = fl(fl(fl(p_a - p_b) - fl(r·p_a)) - r_b) takes four roundings.
    # With r < 1 they err by at most u·(|p_a| + |p_b|), u·|p_a|,
    # u·(2|p_a| + |p_b|)(1 + u) and u·((2|p_a| + |p_b|)(1 + u)² + r_b), in all
    # u·(6|p_a| + 3|p_b| + r_b)(1 + u)²; b likewise, p_a and p_b swapped. max is
    # 1-Lipschitz in each argument, so λ errs by at most
    # u·(6(|p_a| + |p_b|) + r_b)(1 + u)², under 4ε·(|p_a| + |p_b| + r_b).
    # bounded_portfolios keeps every intermediate 0 or a normal float.
    @settings(max_examples=200)
    @given(bounded_portfolios())
    def test_every_lambda_and_total_lies_within_its_rounding_bound(self, problem):
        network, capacities, duration_h, r_b = problem
        result = schedule_portfolio(network, capacities, BiasPolicy(r_b), duration_h)
        for s in result.schedules:
            link = network.link(s.interconnector_id)
            col_a, col_b = (network.prices_for(e).prices for e in link.endpoints())
            for lam, p_a, p_b in zip(s.lambdas, col_a, col_b, strict=True):
                exact = _exact_lambda(p_a, p_b, link.loss_fraction, r_b)
                size = 6 * (abs(Fraction(p_a)) + abs(Fraction(p_b))) + Fraction(r_b)
                assert abs(Fraction(lam) - exact) <= _U * size * (1 + _U) ** 2
            # the total sums the float profits, all >= 0, left to right
            profits = list(map(Fraction, s.profits))
            error = abs(Fraction(s.total_profit) - sum(profits))
            assert error <= _gamma(max(len(profits) - 1, 0)) * sum(profits)

    def test_the_bundled_totals_are_their_exact_values_rounded(self, bundle):
        network = bundle.network
        for s in schedule_portfolio(network).schedules:
            link = network.link(s.interconnector_id)
            col_a, col_b = (network.prices_for(e).prices for e in link.endpoints())
            exact = sum(
                Fraction(link.capacity_mw) * _exact_lambda(p_a, p_b, link.loss_fraction, 0.0)
                for p_a, p_b in zip(col_a, col_b)
            )
            assert s.total_profit == float(exact)


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

    @pytest.mark.parametrize(
        "duration_h, message",
        [
            (math.nan, "^duration_h must be > 0, got nan$"),
            (-1.0, "^duration_h must be > 0, got -1.0$"),
            (0.0, "^duration_h must be > 0, got 0.0$"),
            (math.inf, "^duration_h must be finite, got inf$"),
        ],
    )
    def test_step_length_checked_without_links(self, duration_h, message):
        # no link's own check runs, so the portfolio checks the step length itself
        with pytest.raises(ValueError, match=message):
            schedule_portfolio(Network(), duration_h=duration_h)

    def test_empty_horizon_rejected(self, bundle):
        # there is no hour to take the mean hourly profit of
        network = bundle.network.with_prices(
            s.restricted(7, 3) for s in bundle.network.price_series
        )
        assert all(s.timesteps == () for s in network.price_series)
        with pytest.raises(ValueError, match="horizon is empty"):
            schedule_portfolio(network)

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

    def test_a_profile_for_no_link_rejected(self, bundle):
        horizon = bundle.network.price_series[0].timesteps
        profile = CapacityProfile("atlantis", ((t, 1.0) for t in horizon))
        with pytest.raises(ValueError) as err:
            schedule_portfolio(bundle.network, {"atlantis": profile})
        assert str(err.value) == "capacities name unknown links: ['atlantis']"

    def test_a_profile_under_another_links_id_rejected(self, bundle):
        horizon = bundle.network.price_series[0].timesteps
        moyle = CapacityProfile("moyle", ((t, 1.0) for t in horizon))
        with pytest.raises(ValueError, match="'moyle' does not belong to link 'celtic'"):
            schedule_portfolio(bundle.network, {"celtic": moyle})

    def test_missing_prices_annotated_with_link(self, bundle):
        net = Network(bundle.network.regions, bundle.network.interconnectors, ())
        with pytest.raises(KeyError) as err:
            schedule_portfolio(net)
        assert err.value.args == ("link 'celtic': no price series for region 'ireland'",)

    def test_alignment_error_annotated_with_link(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 10.0, 0.0),),
            (PriceSeries("a", ((1, 1.0),)), PriceSeries("b", ((1, 1.0), (2, 2.0)))),
        )
        with pytest.raises(AlignmentError, match="link 'ab'"):
            schedule_portfolio(net)

    @pytest.mark.parametrize(
        "ab_steps, cd_steps, missing",
        [((1,), (1, 2, 3, 4), (2, 3, 4)), ((), (1,), (1,))],
        ids=["one-hour-and-four", "empty-and-one-hour"],
    )
    def test_links_with_different_horizons_are_rejected(self, ab_steps, cd_steps, missing):
        # One horizon annualises the total. Unchecked, "ab" at t=1 and "cd" at
        # t=1..4 earned 10 + 4 * 10 = 50.0 over one hour: 438000.0 a year.
        net = Network(
            tuple(map(Region, "abcd")),
            (
                Interconnector("ab", "a", "b", 10.0, 0.0),
                Interconnector("cd", "c", "d", 10.0, 0.0),
            ),
            tuple(
                PriceSeries(rid, tuple((t, price) for t in steps))
                for rid, price, steps in (
                    ("a", 11.0, ab_steps),
                    ("b", 10.0, ab_steps),
                    ("c", 11.0, cd_steps),
                    ("d", 10.0, cd_steps),
                )
            ),
        )
        with pytest.raises(AlignmentError) as err:
            schedule_portfolio(net)
        assert str(err.value) == (
            f"link 'cd': horizon mismatch: link 'ab' missing timesteps {list(missing)}"
        )
        assert err.value.missing == {"link 'ab'": missing}

    @pytest.mark.parametrize("p_a, p_b", [(1.7e308, -1.7e308), (math.nan, 1.0)])
    def test_the_first_refused_link_in_id_order_raises(self, monkeypatch, p_a, p_b):
        def network(shifted):
            # "a1", first in id order, has a spread that is not finite
            prices = {"a": p_a, "b": p_b, "c": 1.0, "d": 1.0}
            return Network(
                tuple(map(Region, "abcd")),
                (
                    Interconnector("a1", "a", "b", 10.0, 0.0),
                    Interconnector("b2", "c", "d", 10.0, 0.0),
                ),
                tuple(
                    PriceSeries(rid, ((2 if rid == shifted else 1, price),))
                    for rid, price in prices.items()
                ),
            )

        net = network(shifted="d")  # b2 is shifted
        prices = {s.region_id: s for s in net.price_series}
        with pytest.raises(ValueError) as want:
            schedule_link(prices["a"], prices["b"], net.link("a1"))
        assert str(want.value).startswith("price spread at t=1 is not finite")
        calls = []
        schedule = scheduler.schedule_link
        monkeypatch.setattr(
            scheduler, "schedule_link", lambda *a: calls.append(a[2].id) or schedule(*a)
        )
        with pytest.raises(ValueError) as got:
            schedule_portfolio(net)
        assert (type(got.value), str(got.value)) == (ValueError, str(want.value))
        assert calls == ["a1"]

        calls.clear()
        with pytest.raises(AlignmentError, match="^link 'a1': ") as err:
            schedule_portfolio(network(shifted="b"))  # a1 is shifted
        assert err.value.missing == {
            "prices 'a'": (2,), "prices 'b'": (1,), "capacity 'a1'": (2,)
        }
        assert calls == ["a1"]

    def test_each_link_is_prepared_once(self, monkeypatch, bundle):
        calls = []
        prepare = scheduler._prepare
        monkeypatch.setattr(
            scheduler, "_prepare", lambda *a: calls.append(a[2].id) or prepare(*a)
        )
        result = schedule_portfolio(bundle.network)
        assert calls == [s.interconnector_id for s in result.schedules]
        assert calls == ["celtic", "ewi", "greenlink", "moyle"]

    @pytest.mark.parametrize("seed", range(4))
    def test_rated_profiles_schedule_like_no_profile(self, bundle, seed):
        rng = random.Random(seed)
        network = bundle.network
        if seed:
            horizon = tuple(range(rng.randint(1, 60)))
            network = Network(
                tuple(map(Region, "abcd")),
                tuple(
                    Interconnector(
                        a + b, a, b, rng.choice([0.0, 1.0, 700.0, 1e6]), rng.uniform(0, 0.2)
                    )
                    for a, b in ("ab", "bc", "cd", "ad")
                ),
                tuple(
                    PriceSeries(r, ((t, rng.uniform(-50, 200)) for t in horizon))
                    for r in "abcd"
                ),
            )
        horizon = network.price_series[0].timesteps
        rated = {
            link.id: CapacityProfile(link.id, ((t, link.capacity_mw) for t in horizon))
            for link in network.interconnectors
        }
        bias, duration_h = BiasPolicy(rng.choice([0.0, 2.5])), rng.choice([1.0, 0.25])
        profiled = schedule_portfolio(network, rated, bias, duration_h)
        rated_by_default = schedule_portfolio(network, None, bias, duration_h)
        assert profiled == rated_by_default
        for fmt in ("csv", "structured"):
            assert write_report(profiled, fmt) == write_report(rated_by_default, fmt)

    def test_grand_total_is_summed_left_to_right(self):
        # link totals 1e16, 1.0, 1.0 in id order; a compensated sum adds 2
        regions = (Region("a"), Region("b"))
        links = tuple(
            Interconnector(link_id, "a", "b", capacity, 0.0)
            for link_id, capacity in (("l1", 1e16), ("l2", 1.0), ("l3", 1.0))
        )
        prices = (PriceSeries("a", ((1, 1.0),)), PriceSeries("b", ((1, 0.0),)))
        result = schedule_portfolio(Network(regions, links, prices))
        assert [s.total_profit for s in result.schedules] == [1e16, 1.0, 1.0]
        assert result.grand_total == 1e16

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


@st.composite
def horizon_pairs(draw):
    """Two horizons: shifted, trimmed, disjoint, one empty, or equal."""
    first = tuple(range(draw(st.integers(0, 4)), draw(st.integers(5, 20))))
    k = draw(st.integers(1, 12))
    second = draw(st.sampled_from([
        tuple(t + k for t in first),
        first[k:],
        first[:-k],
        tuple(t + 100 for t in first),
        (),
        first,
    ]))
    return draw(st.permutations([first, second]))


class TestOneHorizonRule:
    def test_disjoint_years_are_named_briefly_with_every_missing_step(self):
        year, later = DISJOINT_YEARS
        network = one_link_network(year, later)
        with pytest.raises(AlignmentError) as err:
            schedule_link(*network.price_series, network.link("ab"))
        message = str(err.value)
        assert message == (
            "horizon mismatch: prices 'a' missing timesteps "
            "[10000, 10001, 10002, 10003, 10004, ...] (8760 in all); "
            "prices 'b' missing timesteps [0, 1, 2, 3, 4, ...] (8760 in all); "
            "capacity 'ab' missing timesteps "
            "[10000, 10001, 10002, 10003, 10004, ...] (8760 in all)"
        )
        assert len(message) < 300
        missing = {"prices 'a'": later, "prices 'b'": year, "capacity 'ab'": later}
        assert err.value.missing == missing
        with pytest.raises(AlignmentError) as err:
            schedule_portfolio(network)
        assert str(err.value) == f"link 'ab': {message}"
        assert err.value.missing == missing
        (line,) = validate_network(network)
        assert len(line) < 300

    @given(horizons=horizon_pairs())
    def test_validation_reports_what_scheduling_rejects(self, horizons):
        network = one_link_network(*horizons)
        lines = [v for v in validate_network(network) if v.startswith("horizon mismatch")]
        try:
            schedule_portfolio(network)
            error = None
        except AlignmentError as exc:
            error = exc
        except ValueError:  # no hour to annualise
            assert horizons == ((), ())
            error = None
        assert len(lines) == (error is not None)
        if error is not None:
            # the price sources are named and their gaps listed alike on both paths
            library = str(error).removeprefix("link 'ab': horizon mismatch: ").split("; ")
            assert lines[0].removeprefix("horizon mismatch: ").split("; ") == [
                part for part in library if part.startswith("prices")
            ]
            union = set().union(*horizons)
            assert {k: v for k, v in error.missing.items() if k.startswith("prices")} == {
                f"prices '{region}'": tuple(sorted(union.difference(ts)))
                for region, ts in zip("ab", horizons)
                if union.difference(ts)
            }


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

    def test_overflowing_grand_total_rejected(self):
        # each link's total is finite, their sum is not
        regions = (Region("a"), Region("b"))
        links = tuple(Interconnector(i, "a", "b", 1e300, 0.0) for i in ("l1", "l2"))
        prices = (PriceSeries("a", ((1, 1e8),)), PriceSeries("b", ((1, 0.0),)))
        assert math.isfinite(schedule_link(*prices, links[0]).total_profit)
        with pytest.raises(
            ValueError, match="^portfolio of links 'l1', 'l2': grand total profit is not finite$"
        ):
            schedule_portfolio(Network(regions, links, prices))

    def test_overflowing_annual_profit_names_the_link(self):
        # the one link's total, 1e308, is finite; a year of it is not
        regions = (Region("a"), Region("b"))
        link = Interconnector("l1", "a", "b", 1e300, 0.0)
        prices = (PriceSeries("a", ((1, 1e8),)), PriceSeries("b", ((1, 0.0),)))
        assert schedule_link(*prices, link).total_profit == 1e308
        with pytest.raises(
            ValueError, match="^portfolio of links 'l1': annualised profit is not finite$"
        ):
            schedule_portfolio(Network(regions, (link,), prices))
