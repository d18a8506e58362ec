"""Single-link arbitrage: conditions, marginal value, profit, dispatch."""

import contextlib
import io
import math
import random
import re
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdcarb import (
    BiasPolicy,
    CapacityProfile,
    Direction,
    FlowDecision,
    Interconnector,
    Network,
    ParseError,
    PriceSeries,
    Schedule,
    WheelingChain,
    evaluate_wheel,
    extrapolate_annual,
    flow_condition,
    loss_from_length,
    marginal_value,
    optimal_flow,
    pairwise_profit,
    pairwise_profit_biased,
    schedule_link,
    schedule_portfolio,
    wheel_gates_123,
    wheel_gates_321,
    wheel_profit_123,
)
from hvdcarb import dataio
from hvdcarb.cli import main

prices = st.floats(min_value=-50, max_value=200)
positive_prices = st.floats(min_value=0.1, max_value=200)
losses = st.floats(min_value=0, max_value=0.2)
quantities = st.floats(min_value=0, max_value=1000)


def best_first_principles(p_a, p_b, r, x, r_b=0.0, duration_h=1.0):
    """Best of {send a->b, send b->a, idle}, from delivered-value arithmetic."""
    send_a_to_b = (p_b * (1 - r) * x - p_a * x - r_b * x) * duration_h
    send_b_to_a = (p_a * (1 - r) * x - p_b * x - r_b * x) * duration_h
    return max(send_a_to_b, send_b_to_a, 0.0)


class TestFlowCondition:
    def test_ireland_france_spread(self):
        assert flow_condition(p_to=100, p_from=50, r=0.0575) is True

    def test_equal_prices_no_loss(self):
        assert flow_condition(p_to=100, p_from=100, r=0.0) is False

    def test_exact_threshold_is_not_enough(self):
        assert flow_condition(p_to=100 / (1 - 0.05), p_from=100, r=0.05) is False

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError, match="marginal_value"):
            flow_condition(100, 0, 0.05)
        with pytest.raises(ValueError):
            flow_condition(-10, 50, 0.05)

    @pytest.mark.parametrize("p_to, p_from", [(math.inf, 1), (1, math.inf), (math.nan, 1)])
    def test_price_that_is_not_finite_rejected(self, p_to, p_from):
        with pytest.raises(ValueError, match="requires finite, strictly positive prices"):
            flow_condition(p_to, p_from, 0.0)

    def test_bad_loss_rejected(self):
        with pytest.raises(ValueError):
            flow_condition(100, 50, 1.0)


class TestMarginalValue:
    def test_celtic_spread(self):
        assert marginal_value(100, 50, 0.0575) == 44.25

    @pytest.mark.parametrize("p", [0.0, 1.0, 50.0, 120.0])
    def test_equal_prices_zero(self, p):
        assert marginal_value(p, p, 0.1) == 0.0

    def test_moyle_spread(self):
        direct = 120 - 100 - 0.00635 * 120
        assert marginal_value(100, 120, 0.00635) == pytest.approx(19.238, rel=1e-9)
        # enumerate both directions from first principles
        per_mw = max(120 * (1 - 0.00635) - 100, 100 * (1 - 0.00635) - 120, 0.0)
        assert marginal_value(100, 120, 0.00635) == pytest.approx(per_mw, rel=1e-9)
        assert marginal_value(100, 120, 0.00635) == direct


class TestPairwiseProfit:
    def test_celtic_hour(self):
        assert pairwise_profit(100, 50, 0.0575, 700, 1) == 30975.0

    def test_ewi_hour(self):
        assert pairwise_profit(100, 75, 0.0261, 500, 1) == 11195.0

    def test_greenlink_hour(self):
        assert pairwise_profit(100, 75, 0.02, 500, 1) == 11500.0

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError):
            pairwise_profit(100, 50, 0.1, -1)


class TestPairwiseProfitBiased:
    @given(p_i=prices, p_j=prices, r=losses, x=quantities)
    def test_zero_bias_reduces_to_unbiased(self, p_i, p_j, r, x):
        assert pairwise_profit_biased(p_i, p_j, r, x, 0.0) == pairwise_profit(
            p_i, p_j, r, x
        )

    def test_bias_absorbing_the_margin_kills_the_trade(self):
        assert pairwise_profit_biased(100, 50, 0.0575, 700, 44.25, 1) == 0.0

    def test_partial_bias(self):
        assert pairwise_profit_biased(100, 50, 0.0575, 700, 4.25, 1) == 28000.0

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            pairwise_profit_biased(100, 50, 0.1, 10, -1.0)


class TestOptimalFlow:
    def test_celtic_flows_toward_ireland(self):
        d = optimal_flow(100, 50, 0.0575, 700, 0, 1, 1)
        assert d.direction is Direction.B_TO_A
        assert d.quantity_mw == 700.0
        assert d.marginal_value == 44.25
        assert d.profit == 30975.0

    def test_moyle_flows_toward_scotland(self):
        d = optimal_flow(100, 120, 0.00635, 500, 0, 1, 1)
        assert d.direction is Direction.A_TO_B
        assert d.quantity_mw == 500.0
        assert d.profit == pytest.approx(9619.0, rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 75.0, 120.0])
    def test_equal_prices_idle(self, p):
        # holds for non-negative prices; see the negative-price tie test
        d = optimal_flow(p, p, 0.01, 500, 0, 1, 1)
        assert d.direction is Direction.IDLE
        assert d.quantity_mw == 0.0
        assert d.profit == 0.0

    def test_an_int_capacity_dispatches_a_float(self):
        d = optimal_flow(p_a=100, p_b=50, r=0.0575, x_max=700)
        assert repr(d.quantity_mw) == "700.0"
        assert d == optimal_flow(100.0, 50.0, 0.0575, 700.0)

    def test_zero_capacity_idles(self):
        d = optimal_flow(100, 50, 0.0575, 0.0, 0, 1, 1)
        assert d.direction is Direction.IDLE
        assert d.quantity_mw == 0.0

    def test_tie_with_negative_prices_prefers_delivering_into_a(self):
        # equal negative prices with losses: both directions profit equally
        d = optimal_flow(-10, -10, 0.5, 100, 0, 1, 1)
        assert d.direction is Direction.B_TO_A
        assert d.profit == pytest.approx(5.0 * 100, rel=1e-9)

    @pytest.mark.parametrize(
        "r, x_max, r_b",
        [
            (0.1, -5, 0.0),
            (1.5, 5, 0.0),
            (-0.1, 5, 0.0),
            (math.nan, 5, 0.0),
            (0.1, 5, -1.0),
            (0.1, 5, math.nan),
        ],
        ids=["x_max=-5", "r=1.5", "r=-0.1", "r=nan", "r_b=-1", "r_b=nan"],
    )
    def test_negative_quantity_rejected(self, r, x_max, r_b):
        with pytest.raises(ValueError):
            optimal_flow(100, 50, r, x_max, r_b)

    @pytest.mark.parametrize("x_max", [0.0, 700.0])
    @pytest.mark.parametrize("p_a, p_b", [(1e308, -1e308), (-1e308, 1e308)])
    def test_overflowing_spread_rejected(self, p_a, p_b, x_max):
        message = f"price spread at t=7 is not finite: p_a={p_a}, p_b={p_b}"
        with pytest.raises(ValueError, match=re.escape(message)):
            optimal_flow(p_a, p_b, 0.0, x_max, 0.0, 1.0, 7)

    @pytest.mark.parametrize(
        "x_max, duration_h", [(1e300, 1.0), (1.0, 1e300), (1e306, 1e3)]
    )
    def test_overflowing_profit_rejected(self, x_max, duration_h):
        message = (
            f"profit at t=7 is not finite: p_a=1e+300, p_b=-1e+300, x_max={x_max}, "
            f"duration_h={duration_h}"
        )
        with pytest.raises(ValueError) as err:
            optimal_flow(1e300, -1e300, 0.0, x_max, 0.0, duration_h, 7)
        assert str(err.value) == message
        # idle, the same step is valid
        assert optimal_flow(1e300, -1e300, 0.0, x_max, 2e300, duration_h, 7).profit == 0.0

    @pytest.mark.parametrize(
        "duration_h, message",
        [
            (math.nan, "duration_h must be > 0, got nan"),
            (0.0, "duration_h must be > 0, got 0.0"),
            (-1.0, "duration_h must be > 0, got -1.0"),
            (math.inf, "duration_h must be finite, got inf"),
        ],
    )
    def test_bad_duration_rejected(self, duration_h, message):
        with pytest.raises(ValueError, match=message):
            optimal_flow(100.0, 100.0, 0.0, 700.0, duration_h=duration_h)


class TestFlowDecisionInvariants:
    def test_quantity_zero_iff_idle(self):
        with pytest.raises(ValueError):
            FlowDecision(1, Direction.IDLE, 5.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            FlowDecision(1, Direction.A_TO_B, 0.0, 1.0, 0.0)

    def test_negative_marginal_rejected(self):
        with pytest.raises(ValueError):
            FlowDecision(1, Direction.IDLE, 0.0, -1.0, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            (Direction.IDLE, 5.0, 0.0, 0.0),
            (Direction.A_TO_B, 0.0, 1.0, 0.0),
            (Direction.IDLE, 0.0, -1.0, 0.0),
            (Direction.IDLE, 0.0, math.nan, 0.0),
        ],
        ids=["idle-with-quantity", "dispatch-without-quantity", "negative", "nan"],
    )
    @pytest.mark.parametrize(
        "later",
        [(Direction.IDLE, 0.0, 0.0, 0.0), (Direction.IDLE, 1.0, -1.0, 0.0)],
        ids=["then-valid", "then-breaking-both"],
    )
    def test_schedule_decisions_raise_at_the_first_bad_step(self, bad, later):
        rows = [(1, Direction.B_TO_A, 700.0, 44.25, 30975.0), (2, *bad), (3, *later)]
        with pytest.raises(ValueError) as expected:
            FlowDecision(*rows[1])
        schedule = Schedule("ab", *map(tuple, zip(*rows)), 30975.0)
        with pytest.raises(ValueError) as err:
            schedule.decisions
        assert str(err.value) == str(expected.value)

    def test_bias_policy_rejects_negative(self):
        with pytest.raises(ValueError):
            BiasPolicy(-0.5)
        assert BiasPolicy().r_b == 0.0

    @given(p_a=prices, p_b=prices, r=losses, x_max=quantities, d=st.floats(0.25, 24))
    def test_profit_ties_out(self, p_a, p_b, r, x_max, d):
        decision = optimal_flow(p_a, p_b, r, x_max, 0.0, d, 7)
        assert decision.timestep == 7
        assert decision.profit == pytest.approx(
            decision.quantity_mw * decision.marginal_value * d, rel=1e-12, abs=1e-12
        )


class TestProperties:
    @given(p_i=prices, p_j=prices, r=losses, x=quantities)
    def test_profit_never_negative(self, p_i, p_j, r, x):
        assert pairwise_profit(p_i, p_j, r, x) >= 0.0

    @given(p_i=prices, p_j=prices, r=losses, x=quantities)
    def test_swapping_regions_changes_nothing(self, p_i, p_j, r, x):
        assert pairwise_profit(p_i, p_j, r, x) == pairwise_profit(p_j, p_i, r, x)

    @given(p_i=prices, p_j=prices, x=quantities)
    def test_zero_loss_profit_is_spread_times_quantity(self, p_i, p_j, x):
        assert pairwise_profit(p_i, p_j, 0.0, x, 1.0) == abs(p_i - p_j) * x

    @given(
        p_i=st.floats(min_value=0, max_value=200),
        p_j=st.floats(min_value=0, max_value=200),
        x=quantities,
        r_lo=losses,
        r_hi=losses,
    )
    def test_lossier_link_never_earns_more(self, p_i, p_j, x, r_lo, r_hi):
        # monotone for non-negative prices; a negative destination price
        # turns the loss charge into a subsidy and breaks this
        r_lo, r_hi = min(r_lo, r_hi), max(r_lo, r_hi)
        assert pairwise_profit(p_i, p_j, r_hi, x) <= pairwise_profit(p_i, p_j, r_lo, x)

    def test_strictly_lossier_strictly_worse(self):
        assert pairwise_profit(100, 50, 0.1, 700) < pairwise_profit(100, 50, 0.05, 700)

    @given(
        mean=prices,
        s_lo=st.floats(min_value=0, max_value=100),
        s_hi=st.floats(min_value=0, max_value=100),
        r=losses,
        x=quantities,
    )
    def test_wider_spread_never_earns_less(self, mean, s_lo, s_hi, r, x):
        s_lo, s_hi = min(s_lo, s_hi), max(s_lo, s_hi)
        narrow = pairwise_profit(mean + s_lo / 2, mean - s_lo / 2, r, x)
        wide = pairwise_profit(mean + s_hi / 2, mean - s_hi / 2, r, x)
        assert wide >= narrow

    @given(p_i=prices, p_j=prices, r=losses, x=quantities, r_b=st.floats(0, 50))
    def test_bias_filter_identity(self, p_i, p_j, r, x, r_b):
        m = marginal_value(p_i, p_j, r)
        biased = pairwise_profit_biased(p_i, p_j, r, x, r_b)
        if m <= r_b:
            assert biased == 0.0
        else:
            assert biased == pytest.approx((m - r_b) * x, rel=1e-9, abs=1e-9)

    @given(p_to=positive_prices, p_from=positive_prices, r=losses)
    def test_condition_agrees_with_margin_sign(self, p_to, p_from, r):
        margin = p_to - p_from - r * p_to
        agrees = flow_condition(p_to, p_from, r) == (margin > 0)
        # the two algebraic forms may disagree within an ulp of the threshold
        assert agrees or abs(margin) <= 1e-9 * max(1.0, abs(p_to))

    @given(p_a=prices, p_b=prices, r=losses, x_max=quantities)
    def test_direction_points_at_higher_price(self, p_a, p_b, r, x_max):
        d = optimal_flow(p_a, p_b, r, x_max)
        if d.direction is Direction.A_TO_B:
            assert p_b > p_a
        elif d.direction is Direction.B_TO_A:
            assert p_a > p_b or p_a == p_b  # negative-price tie resolves into a


class TestBruteForceOracle:
    def test_dispatch_matches_first_principles_on_random_grid(self):
        rng = random.Random(20260808)
        for _ in range(10_000):
            p_a = rng.uniform(-50, 200)
            p_b = rng.uniform(-50, 200)
            r = rng.uniform(0, 0.2)
            x_max = rng.uniform(0, 1000)
            got = optimal_flow(p_a, p_b, r, x_max).profit
            want = best_first_principles(p_a, p_b, r, x_max)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def reference_margins(p_a, p_b, r):
    """The per-step formulas as they were written before optimal_flow was
    their one implementation, kept as the reference for valid input."""
    return (p_a - p_b - r * p_a, p_b - p_a - r * p_b)


def reference_marginal_value(p_i, p_j, r):
    m_to_i, m_to_j = reference_margins(p_i, p_j, r)
    return max(m_to_i, m_to_j, 0.0)


def reference_pairwise_profit_biased(p_i, p_j, r, x, r_b, duration_h=1.0):
    m_to_i, m_to_j = reference_margins(p_i, p_j, r)
    return x * duration_h * max(m_to_i - r_b, m_to_j - r_b, 0.0)


def reference_pairwise_profit(p_i, p_j, r, x, duration_h=1.0):
    return reference_pairwise_profit_biased(p_i, p_j, r, x, 0.0, duration_h)


# |p| <= 1e300 keeps every spread finite; ints and signed zeros come up too
_finite_prices = st.one_of(
    st.sampled_from([0.0, -0.0, 0, -20.0, 50.0, 100.0]),
    st.integers(-1000, 1000),
    st.floats(-1e300, 1e300),
)
_valid_quantities = st.sampled_from([0.0, -0.0, 700.0]) | st.floats(0, 1e300)

# Arguments the three scalar entry points share, and what each one takes.
_VALID = {"p_i": 100.0, "p_j": 50.0, "r": 0.0575, "x": 700.0, "r_b": 0.0, "duration_h": 1.0}
_SCALAR_RULES = (
    (marginal_value, ("p_i", "p_j", "r")),
    (pairwise_profit, ("p_i", "p_j", "r", "x", "duration_h")),
    (pairwise_profit_biased, ("p_i", "p_j", "r", "x", "r_b", "duration_h")),
)
_INVALID = (
    {"p_i": math.nan},
    {"p_j": math.nan},
    {"p_i": math.inf},
    {"p_i": -math.inf},
    {"p_j": math.inf},
    {"p_i": 1e308, "p_j": -1e308},
    {"duration_h": 0.0},
    {"duration_h": -1.0},
    {"duration_h": math.nan},
    {"duration_h": math.inf},
    {"x": -1.0},
    {"x": math.inf},
    {"r": 1.0},
    {"r_b": -1.0},
    {"r_b": math.inf},
)


class TestScalarRuleIsOptimalFlow:
    @settings(max_examples=500)
    @given(
        p_i=_finite_prices,
        p_j=_finite_prices,
        r=st.floats(0, 1, exclude_max=True),
        x=_valid_quantities,
        r_b=st.floats(min_value=0),
        duration_h=st.floats(0, 1e6, exclude_min=True),
    )
    @example(p_i=-10, p_j=-10, r=0.5, x=100.0, r_b=0.0, duration_h=1.0)  # tie
    @example(p_i=-0.0, p_j=0.0, r=0.0, x=5.0, r_b=0.0, duration_h=0.25)
    @example(p_i=100.0, p_j=50.0, r=0.0575, x=700.0, r_b=44.25, duration_h=1.0)
    @example(p_i=100.0, p_j=50.0, r=0.0575, x=700.0, r_b=math.inf, duration_h=1.0)
    @example(p_i=1e300, p_j=-1e300, r=0.0, x=1e300, r_b=0.0, duration_h=1.0)  # overflows
    def test_valid_input_gives_the_reference_values(self, p_i, p_j, r, x, r_b, duration_h):
        assert repr(marginal_value(p_i, p_j, r)) == repr(reference_marginal_value(p_i, p_j, r))
        for function, args, reference in (
            (pairwise_profit, (p_i, p_j, r, x, duration_h), reference_pairwise_profit),
            (
                pairwise_profit_biased,
                (p_i, p_j, r, x, r_b, duration_h),
                reference_pairwise_profit_biased,
            ),
        ):
            want = reference(*args)
            if function is pairwise_profit_biased and r_b == math.inf:
                message = "bias r_b must be finite and >= 0, got inf"
            elif not math.isfinite(want):
                message = (
                    f"profit at t=0 is not finite: p_a={p_i}, p_b={p_j}, "
                    f"x_max={x}, duration_h={duration_h}"
                )
            else:
                got = function(*args)
                if math.copysign(1.0, x) < 0:  # x = -0.0 dispatches nothing: a zero
                    assert got == want == 0.0
                else:
                    assert repr(got) == repr(want)
                continue
            with pytest.raises(ValueError) as err:
                function(*args)
            assert str(err.value) == message

    @pytest.mark.parametrize("p_j", [50.0, 100.0])  # idle, and dispatching
    def test_infinite_quantity_is_rejected(self, p_j):
        # x * duration_h * lambda would be nan on an idle step, inf otherwise
        with pytest.raises(ValueError, match=r"^x_max must be finite and >= 0, got inf$"):
            pairwise_profit(50.0, p_j, 0.0, math.inf)

    @pytest.mark.parametrize(
        "function, params, invalid",
        [
            pytest.param(
                function,
                params,
                invalid,
                id=f"{function.__name__}-" + ",".join(f"{k}={v}" for k, v in invalid.items()),
            )
            for function, params in _SCALAR_RULES
            for invalid in _INVALID
            if invalid.keys() <= set(params)
        ],
    )
    def test_rejects_what_optimal_flow_rejects(self, function, params, invalid):
        args = {name: invalid.get(name, _VALID[name]) for name in params}
        with pytest.raises(ValueError) as want:
            optimal_flow(
                args["p_i"],
                args["p_j"],
                args["r"],
                args.get("x", 0.0),
                args.get("r_b", 0.0),
                args.get("duration_h", 1.0),
            )
        with pytest.raises(ValueError) as got:
            function(**args)
        assert str(got.value) == str(want.value)


def _error(call, *args, **kwargs) -> str:
    """The message of the ValueError that ``call(*args, **kwargs)`` raises."""
    with pytest.raises(ValueError) as err:
        call(*args, **kwargs)
    return str(err.value)


def _cli_error(*argv) -> str:
    """The message of a command that exits 3, having printed nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, out.getvalue()) == (3, "")
    return err.getvalue().removeprefix("error: ").removesuffix("\n")


def _violation(value) -> str:
    """The one violation that ``value.violations()`` reports."""
    (message,) = value.violations()
    return message


def _ledger_error(text: str) -> str:
    """The message, after the file's name, of the ParseError of the ledger ``text``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "expected.yaml"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            dataio._load_ledger(path)
    return str(err.value).removeprefix(f"{path}: ")


def _link(r=0.0):
    return Interconnector("ab", "a", "b", 100.0, r)


def _prices(region):
    return PriceSeries(region, ((1, 50.0),))


def _chain(c=0.0):
    return WheelingChain(
        "a", "b", "c", _link(), Interconnector("bc", "b", "c", 100.0, 0.0), c
    )


_WHEEL = ("wheel", "france", "ireland", "scotland", "--via", "celtic", "moyle", "-t", "1")

# str() refuses an int past sys.get_int_max_str_digits() digits (4300 by default):
# a message shows such a value by its kind.
_TOO_LONG = f"int of over {sys.get_int_max_str_digits()} digits>"

# Every entry point that applies a scalar rule, with the message it raises.
_LOSS_CALLERS = [
    ("optimal_flow", lambda: _error(optimal_flow, 100.0, 50.0, 1.0, 700.0),
     "loss fraction must be in [0, 1), got 1.0"),
    ("flow_condition", lambda: _error(flow_condition, 100.0, 50.0, math.nan),
     "loss fraction must be in [0, 1), got nan"),
    ("schedule_link", lambda: _error(schedule_link, _prices("a"), _prices("b"), _link(1.5)),
     "loss fraction must be in [0, 1), got 1.5"),
    ("wheel_gates_123", lambda: _error(wheel_gates_123, 1, 2, 3, 1.0, 0.0, 0.0),
     "loss r1 must be in [0, 1), got 1.0"),
    ("wheel_gates_321", lambda: _error(wheel_gates_321, 1, 2, 3, 0.0, -0.1, 0.0),
     "loss r2 must be in [0, 1), got -0.1"),
    ("wheel_profit_123", lambda: _error(wheel_profit_123, 1, 3, 0.0, 0.0, math.inf, 1.0),
     "loss c must be in [0, 1), got inf"),
    ("WheelingChain", lambda: _error(_chain, 1.0),
     "transit_loss_c must be in [0, 1), got 1.0"),
    ("loss_from_length", lambda: _error(loss_from_length, 10.0, 1.0),
     "loss_rate_per_100km must be in [0, 1), got 1.0"),
    ("Interconnector.violations", lambda: _violation(_link(1.0)),
     "interconnector 'ab': loss_fraction must be in [0, 1), got 1.0"),
    ("Interconnector.violations int too long for str", lambda: _violation(_link(-10**5000)),
     f"interconnector 'ab': loss_fraction must be in [0, 1), got <negative {_TOO_LONG}"),
    ("cli --transit-loss",
     lambda: _cli_error(*_WHEEL, "--quantity", "10", "--transit-loss", "1"),
     "--transit-loss must be in [0, 1), got 1.0"),
]
_DURATION_CALLERS = [
    ("optimal_flow", lambda: _error(optimal_flow, 100.0, 50.0, 0.0, 700.0, 0.0, 0.0),
     "duration_h must be > 0, got 0.0"),
    ("optimal_flow inf",
     lambda: _error(optimal_flow, 100.0, 50.0, 0.0, 700.0, 0.0, math.inf),
     "duration_h must be finite, got inf"),
    ("wheel_profit_123", lambda: _error(wheel_profit_123, 1, 3, 0.0, 0.0, 0.0, 1.0, math.nan),
     "duration_h must be > 0, got nan"),
    ("evaluate_wheel", lambda: _error(evaluate_wheel, _chain(), 1, 2, 3, 1.0, math.inf),
     "duration_h must be finite, got inf"),
    ("optimal_flow int too large for a float",
     lambda: _error(optimal_flow, 100.0, 50.0, 0.0, 700.0, 0.0, 10**400),
     f"duration_h must be finite, got {10**400}"),
    ("evaluate_wheel int too long for str",
     lambda: _error(evaluate_wheel, _chain(), 1, 2, 3, 1.0, 10**5000),
     f"duration_h must be finite, got <{_TOO_LONG}"),
    ("schedule_link",
     lambda: _error(schedule_link, _prices("a"), _prices("b"), _link(), duration_h=-1.0),
     "duration_h must be > 0, got -1.0"),
    ("schedule_portfolio", lambda: _error(schedule_portfolio, Network(), duration_h=math.nan),
     "duration_h must be > 0, got nan"),
    ("cli --duration-hours",
     lambda: _cli_error("evaluate", "celtic", "--duration-hours", "0"),
     "--duration-hours must be > 0, got 0.0"),
    ("cli --duration-hours inf",
     lambda: _cli_error("schedule", "--duration-hours", "inf"),
     "--duration-hours must be finite, got inf"),
]
_NONNEGATIVE_CALLERS = [
    ("BiasPolicy", lambda: _error(BiasPolicy, -0.5),
     "bias r_b must be finite and >= 0, got -0.5"),
    ("BiasPolicy inf", lambda: _error(BiasPolicy, math.inf),
     "bias r_b must be finite and >= 0, got inf"),
    ("optimal_flow bias", lambda: _error(optimal_flow, 100.0, 50.0, 0.0, 700.0, math.inf),
     "bias r_b must be finite and >= 0, got inf"),
    ("pairwise_profit_biased",
     lambda: _error(pairwise_profit_biased, 100.0, 50.0, 0.0, 700.0, -1.0),
     "bias r_b must be finite and >= 0, got -1.0"),
    ("schedule_link bias",
     lambda: _error(schedule_link, _prices("a"), _prices("b"), _link(),
                    bias=SimpleNamespace(r_b=math.inf)),
     "bias r_b must be finite and >= 0, got inf"),
    ("optimal_flow x_max", lambda: _error(optimal_flow, 100.0, 50.0, 0.0, -5),
     "x_max must be finite and >= 0, got -5"),
    ("optimal_flow x_max int too long for str",
     lambda: _error(optimal_flow, 100.0, 50.0, 0.0, 10**5000),
     f"x_max must be finite and >= 0, got <{_TOO_LONG}"),
    ("wheel_profit_123", lambda: _error(wheel_profit_123, 1, 3, 0.0, 0.0, 0.0, math.inf),
     "dispatch quantity must be finite and >= 0, got inf"),
    ("evaluate_wheel", lambda: _error(evaluate_wheel, _chain(), 1, 2, 3, math.inf),
     "x_request must be finite and >= 0, got inf"),
    ("evaluate_wheel negative", lambda: _error(evaluate_wheel, _chain(), 1, 2, 3, -1.0),
     "x_request must be finite and >= 0, got -1.0"),
    ("extrapolate_annual", lambda: _error(extrapolate_annual, math.inf),
     "hourly_profit must be finite and >= 0, got inf"),
    ("extrapolate_annual int too large for a float",
     lambda: _error(extrapolate_annual, 10**400),
     f"hourly_profit must be finite and >= 0, got {10**400}"),
    ("extrapolate_annual result", lambda: _error(extrapolate_annual, 1e306),
     "annual profit must be finite and >= 0, got inf"),
    ("loss_from_length", lambda: _error(loss_from_length, math.inf, 0.0),
     "length_km must be finite and >= 0, got inf"),
    ("loss_from_length negative", lambda: _error(loss_from_length, -1, 0.01),
     "length_km must be finite and >= 0, got -1"),
    ("Interconnector.violations capacity",
     lambda: _violation(Interconnector("ab", "a", "b", math.inf, 0.0)),
     "interconnector 'ab': capacity_mw must be finite and >= 0, got inf"),
    ("Interconnector.violations length",
     lambda: _violation(Interconnector("ab", "a", "b", 100.0, 0.0, -1.0)),
     "interconnector 'ab': length_km must be finite and >= 0, got -1.0"),
    ("Interconnector.violations capacity int too long for str",
     lambda: _violation(Interconnector("ab", "a", "b", 10**5000, 0.0)),
     f"interconnector 'ab': capacity_mw must be finite and >= 0, got <{_TOO_LONG}"),
    ("CapacityProfile.violations", lambda: _violation(CapacityProfile("ab", ((1, math.nan),))),
     "capacity profile 'ab': x_max at t=1 must be finite and >= 0, got nan"),
    ("ledger reported_eur", lambda: _ledger_error("totals: {reported_eur: .inf}"),
     "'totals': 'reported_eur' must be finite and >= 0, got inf"),
    ("ledger claim_exceeds_eur", lambda: _ledger_error("annual: {claim_exceeds_eur: -1}"),
     "'annual': 'claim_exceeds_eur' must be finite and >= 0, got -1"),
    ("ledger int too large for a float",
     lambda: _ledger_error(f"totals: {{reported_eur: {10**400}}}"),
     f"'totals': 'reported_eur' must be finite and >= 0, got {10**400}"),
    ("cli --bias", lambda: _cli_error("evaluate", "celtic", "--bias", "inf"),
     "bias r_b must be finite and >= 0, got inf"),
    ("cli --quantity", lambda: _cli_error(*_WHEEL, "--quantity", "inf"),
     "x_request must be finite and >= 0, got inf"),
]


def _callers(cases):
    return pytest.mark.parametrize(
        "case, message",
        [pytest.param(case, message, id=name) for name, case, message in cases],
    )


class TestEachRuleHasOneChecker:
    """Each scalar rule is one checker in arbitrage; every caller names its value."""

    @pytest.fixture(autouse=True)
    def bundled_data(self, monkeypatch):
        monkeypatch.delenv("HVDCARB_DATA_DIR", raising=False)

    @_callers(_LOSS_CALLERS)
    def test_loss_fraction(self, case, message):
        assert case() == message

    @_callers(_DURATION_CALLERS)
    def test_step_length(self, case, message):
        assert case() == message

    @_callers(_NONNEGATIVE_CALLERS)
    def test_finite_and_nonnegative(self, case, message):
        assert case() == message

    @_callers(
        [caller for caller in _LOSS_CALLERS + _DURATION_CALLERS + _NONNEGATIVE_CALLERS
         if caller[0].endswith("int too long for str")]
    )
    def test_an_int_too_long_for_str_gets_a_short_message(self, case, message):
        # the input's name, the rule and the value's kind, in under 100 characters
        assert _TOO_LONG in case() and len(case()) < 100
