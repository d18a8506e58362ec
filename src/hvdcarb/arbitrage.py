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

:func:`optimal_flow` is the one implementation of this per-step rule:
:func:`marginal_value`, :func:`pairwise_profit` and
:func:`pairwise_profit_biased` return fields of its decision and raise the
``ValueError`` it raises for the same arguments. A dispatch whose profit
overflows is rejected, as is a spread that overflows.

The package's scalar input rules are stated here, once each: a loss
fraction lies in [0, 1) (``_check_loss``), a step length is finite and > 0
(``_check_duration``), and a capacity, quantity, bias, length or profit is
finite and >= 0 (``_check_nonnegative``). Every module and the command line
call these checkers, each with its own name for the value, so messages
differ only in that name.
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


def _check_loss(value: float, name: str) -> None:
    """A loss fraction: in [0, 1)."""
    if not (0 <= value < 1):
        raise ValueError(f"{name} must be in [0, 1), got {value}")


def _check_duration(value: float, name: str) -> None:
    """A step length in hours: finite and > 0."""
    if not (value > 0):
        raise ValueError(f"{name} must be > 0, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def _check_nonnegative(value: float, name: str) -> None:
    """A capacity, quantity, bias, length or profit: finite (<= the largest float) and >= 0."""
    if not (0 <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
    # per-MWh margins (deliver into a, deliver into b), before bias
    m_to_a, m_to_b = p_a - p_b - r * p_a, p_b - p_a - r * p_b
    # Finite prices can still overflow the spread, and an infinite margin
    # would make an idle step's profit 0 * inf = nan.
    if not (math.isfinite(m_to_a) and math.isfinite(m_to_b)):
        raise ValueError(
            f"price spread at t={timestep} is not finite: p_a={p_a}, p_b={p_b}"
        )
    lam = max(m_to_a - r_b, m_to_b - r_b, 0.0)
    if lam > 0 and x_max > 0:
        direction = Direction.B_TO_A if m_to_a >= m_to_b else Direction.A_TO_B
        quantity = float(x_max)
    else:
        direction = Direction.IDLE
        quantity = 0.0
    profit = quantity * duration_h * lam
    if not math.isfinite(profit):
        raise ValueError(
            f"profit at t={timestep} is not finite: p_a={p_a}, p_b={p_b}, "
            f"x_max={x_max}, duration_h={duration_h}"
        )
    return FlowDecision(
        timestep=timestep,
        direction=direction,
        quantity_mw=quantity,
        marginal_value=lam,
        profit=profit,
    )
