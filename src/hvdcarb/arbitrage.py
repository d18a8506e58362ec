"""Single-link, single-timestep arbitrage economics.

Sending x MW across a link with loss fraction r delivers (1 - r) * x MW
at the far end. Buying at the origin price and selling the delivered
power at the destination price earns, per MW sent,

    p_dest - p_origin - r * p_dest

i.e. the spread net of the loss charge levied on the destination price.
The operator's marginal value of the link at a timestep is the better of
the two directions, floored at zero; dispatching is worthwhile only when
that value is strictly positive. Because profit is linear in x, the
optimal dispatch is bang-bang: either nothing or the full capacity.

A bias (minimum margin in EUR/MWh) filters out low-return transactions
that would otherwise cause the link to chatter at full power for cents.

A link runs one way per step. When both margins are positive (only when
r > 0 and p_a + p_b < 0, where the loss charge pays), it takes the better
one; a relaxation that let it run both ways at once would earn both.

The column kernel ``_schedule_columns`` is the one implementation of this
per-step rule: it decides :func:`optimal_flow`'s step and every schedule's
columns, and its zero floor is +0.0 even where a margin is -0.0.
:func:`optimal_flow` checks its inputs first and rejects a spread or a
profit that overflows. :func:`marginal_value`, :func:`pairwise_profit` and
:func:`pairwise_profit_biased` return fields of its decision and raise the
``ValueError`` it raises for the same arguments.

The package's scalar input rules are stated here, once each: a loss
fraction lies in [0, 1) (``_check_loss``), a step length is finite and > 0
(``_check_duration``), and a capacity, quantity, bias, length or profit is
finite and >= 0 (``_check_nonnegative``). Every module and the command line
call these checkers, each with its own name for the value, so messages
differ only in that name. They show the refused value through ``_shown``, so
an int too long for ``str()`` gets a short message naming its input.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

__all__ = [
    "Direction",
    "FlowDecision",
    "BiasPolicy",
    "flow_condition",
    "marginal_value",
    "pairwise_profit",
    "pairwise_profit_biased",
    "optimal_flow",
]


class Direction(str, Enum):
    """Flow direction relative to a link's declared endpoints."""

    A_TO_B = "A_to_B"
    B_TO_A = "B_to_A"
    IDLE = "Idle"


@dataclass(frozen=True, slots=True)
class FlowDecision:
    """Dispatch for one link at one timestep.

    ``marginal_value`` is the per-MWh value of the chosen direction after
    any bias, floored at zero; ``profit`` equals
    quantity_mw * marginal_value * step duration. Instances are slotted:
    they have no ``__dict__``. A schedule's decisions are built here too, from
    its columns, by ``_from_columns``.
    """

    timestep: int
    direction: Direction
    quantity_mw: float
    marginal_value: float
    profit: float

    def __post_init__(self):
        if (self.quantity_mw == 0) != (self.direction is Direction.IDLE):
            raise ValueError(
                f"quantity_mw must be 0 exactly when idle "
                f"(got {self.quantity_mw} MW, {self.direction.value})"
            )
        if not (self.marginal_value >= 0):
            raise ValueError(f"marginal_value must be >= 0, got {self.marginal_value}")

    @classmethod
    def _from_columns(cls, timesteps, directions, quantities, lambdas, profits) -> tuple:
        """One decision per step, from parallel columns in field order. The two rules
        are tested over whole columns, then each decision's slots are filled without
        ``__init__``; when a step breaks a rule, the decisions are constructed one by
        one instead, so ``__post_init__`` raises at the first such step."""
        columns = (timesteps, directions, quantities, lambdas, profits)
        zero = map(operator.eq, quantities, repeat(0))
        idle = map(operator.is_, directions, repeat(Direction.IDLE))
        nonnegative = map(operator.ge, lambdas, repeat(0))
        if not (all(map(operator.eq, zero, idle)) and all(nonnegative)):
            return tuple(map(cls, *columns))
        decisions = list(map(object.__new__, repeat(cls, len(timesteps))))
        for name, column in zip(cls.__slots__, columns):
            slot = getattr(cls, name)
            deque(map(slot.__set__, decisions, column), 0)  # runs the map, keeps nothing
        return tuple(decisions)


@dataclass(frozen=True)
class BiasPolicy:
    """Minimum per-MWh margin required before dispatching.

    Zero bias dispatches on any strictly positive margin.
    """

    r_b: float = 0.0

    def __post_init__(self):
        _check_nonnegative(self.r_b, "bias r_b")


def flow_condition(p_to: float, p_from: float, r: float) -> bool:
    """Whether delivering toward the p_to side is strictly profitable.

    Ratio form of the operating condition: p_to / p_from > 1 / (1 - r),
    evaluated for positive prices as the equivalent delivered-value test
    p_to * (1 - r) > p_from. For general (possibly non-positive) prices use
    :func:`marginal_value` instead, which needs no ratio.

    Raises:
        ValueError: either price is not finite and strictly positive.
    """
    if not (0 < p_to < math.inf and 0 < p_from < math.inf):
        raise ValueError(
            "flow_condition is a ratio test and requires finite, strictly "
            f"positive prices (got p_to={p_to}, p_from={p_from}); use "
            "marginal_value for general prices"
        )
    _check_loss(r, "loss fraction")
    return p_to * (1 - r) > p_from


def _shown(value) -> str:
    """A refused value as a message shows it: ``str()``, or, for a number too long
    for ``str()`` (an int past ``sys.get_int_max_str_digits()`` digits), its kind."""
    try:
        return str(value)
    except ValueError:
        sign = "negative " if value < 0 else ""
        return f"<{sign}{type(value).__name__} of over {sys.get_int_max_str_digits()} digits>"


def _check_loss(value: float, name: str) -> None:
    """A loss fraction: in [0, 1)."""
    if not (0 <= value < 1):
        raise ValueError(f"{name} must be in [0, 1), got {_shown(value)}")


def _check_duration(value: float, name: str) -> None:
    """A step length in hours: finite (<= the largest float) and > 0."""
    if not (value > 0):
        raise ValueError(f"{name} must be > 0, got {_shown(value)}")
    if not (value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite, got {_shown(value)}")


def _check_nonnegative(value: float, name: str) -> None:
    """A capacity, quantity, bias, length or profit: finite (<= the largest float) and >= 0."""
    if not (0 <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and >= 0, got {_shown(value)}")


def marginal_value(p_i: float, p_j: float, r: float) -> float:
    """Per-MWh value of the link: best direction's margin, floored at zero.

    max(p_i - p_j - r*p_i, p_j - p_i - r*p_j, 0)
    """
    return optimal_flow(p_i, p_j, r, 0.0).marginal_value


def pairwise_profit(
    p_i: float, p_j: float, r: float, x: float, duration_h: float = 1.0
) -> float:
    """Profit (EUR) of dispatching x MW for duration_h hours, best direction.

    Never negative: an unprofitable link is simply not operated.
    """
    return optimal_flow(p_i, p_j, r, x, 0.0, duration_h).profit


def pairwise_profit_biased(
    p_i: float,
    p_j: float,
    r: float,
    x: float,
    r_b: float,
    duration_h: float = 1.0,
) -> float:
    """Profit (EUR) with a minimum-margin filter of r_b EUR/MWh.

    x * duration_h * max(p_i - p_j - r*p_i - r_b, p_j - p_i - r*p_j - r_b, 0).
    With r_b = 0 this is exactly :func:`pairwise_profit`.
    """
    return optimal_flow(p_i, p_j, r, x, r_b, duration_h).profit


def optimal_flow(
    p_a: float,
    p_b: float,
    r: float,
    x_max: float,
    r_b: float = 0.0,
    duration_h: float = 1.0,
    timestep: int = 0,
) -> FlowDecision:
    """Profit-maximal dispatch of one link at one timestep.

    Profit is linear in the dispatched quantity, so the optimum is
    bang-bang: full capacity toward the higher-price endpoint when the
    biased margin is strictly positive, otherwise idle. Exact threshold
    equality yields idle (zero-profit trades are pointless); the bias is
    the designated mechanism for suppressing marginal trades, so no
    epsilon is applied to the comparison.

    When both directions tie on margin (equal prices, negative enough for
    the loss charge to act as a subsidy), the tie resolves toward
    delivering into endpoint a, mirroring the argument order of the
    combined profit expression.

    Raises:
        ValueError: x_max or r_b not finite and >= 0, r outside [0, 1),
            duration_h not finite and > 0, a margin that is not finite
            (the prices' spread overflows, or a price is not finite), or a
            dispatch whose profit overflows.
    """
    _check_nonnegative(x_max, "x_max")
    _check_loss(r, "loss fraction")
    _check_nonnegative(r_b, "bias r_b")
    _check_duration(duration_h, "duration_h")
    # The kernel idles a step whose margin is nan and keeps an infinite one, and
    # finite prices can still overflow the spread, so the margins are checked first.
    if not (math.isfinite(p_a - p_b - r * p_a) and math.isfinite(p_b - p_a - r * p_b)):
        raise ValueError(
            f"price spread at t={timestep} is not finite: p_a={p_a}, p_b={p_b}"
        )
    columns = _schedule_columns((p_a,), (p_b,), (float(x_max),), r, r_b, duration_h)
    decision = FlowDecision(timestep, *(column[0] for column in columns))
    if not math.isfinite(decision.profit):
        raise ValueError(
            f"profit at t={timestep} is not finite: p_a={p_a}, p_b={p_b}, "
            f"x_max={x_max}, duration_h={duration_h}"
        )
    return decision


def _schedule_columns(col_a, col_b, col_x, r: float, r_b: float, duration_h: float) -> tuple:
    """Directions, quantities, lambdas and profits of a checked horizon: the
    per-step rule, for :func:`optimal_flow` and every schedule's columns."""
    into_a, into_b, idle = Direction.B_TO_A, Direction.A_TO_B, Direction.IDLE
    columns = directions, quantities, lambdas, profits = [], [], [], []
    for p_a, p_b, x in zip(col_a, col_b, col_x):
        m_a, m_b = p_a - p_b - r * p_a, p_b - p_a - r * p_b
        a, b = m_a - r_b, m_b - r_b
        lam = b if b > a else a
        if lam > 0.0 and x > 0.0:
            # Ties on the pre-bias margins resolve into endpoint a.
            directions.append(into_a if m_a >= m_b else into_b)
            quantities.append(x)
            lambdas.append(lam)
            profits.append(x * duration_h * lam)
        else:  # idle; lambda is floored to 0.0, from a margin of -0.0 or nan too
            directions.append(idle)
            quantities.append(0.0)
            lambdas.append(lam if lam > 0.0 else 0.0)
            profits.append(0.0)
    return tuple(map(tuple, columns))
