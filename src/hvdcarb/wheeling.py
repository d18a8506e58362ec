"""Three-area wheeling: moving power origin -> transit -> destination.

Power injected in area 1 crosses the first link (losing fraction r1),
transits area 2 (losing fraction c to the internal grid), and crosses the
second link (losing r2), so x MW injected delivers
x*(1-r1)*(1-r2)*(1-c) MW in area 3. A wheel is worthwhile only when each
hand-off adds value on its own; the per-scenario gate pair encodes that:

    1 -> 2 -> 3:  p3*(1-r2)*(1-c) - p2 > 0   and   p2*(1-r1) - p1 > 0
    3 -> 2 -> 1:  p1*(1-r1)*(1-c) - p2 > 0   and   p2*(1-r2) - p3 > 0

The reverse gate pair is the forward one with the areas mirrored, exactly:
gates_321(p1, p2, p3, r1, r2, c) == gates_123(p3, p2, p1, r2, r1, c).
The profit mirror swaps only the prices and keeps the loss product in
chain order, (1-r1)*(1-r2), in both scenarios: multiplying the losses in
mirrored order would round differently in the last bit.

End-to-end profit per scenario (may be negative when evaluated on an
infeasible instance; :func:`evaluate_wheel` dispatches zero instead):

    Profit(1->3) = (p3*(1-r1)*(1-r2)*(1-c) - p1) * x
    Profit(3->1) = (p1*(1-r1)*(1-r2)*(1-c) - p3) * x

A gate or profit that is not finite (a price that is not finite as a float,
or prices whose gate or profit overflows) raises a ``ValueError`` naming the
prices along the path. The 321 functions and :func:`evaluate_wheel` inherit
the 123 ones' checks, which apply the rules of :mod:`hvdcarb.arbitrage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .arbitrage import (
    _check_duration,
    _check_loss,
    _check_nonnegative,
    _shown,
)
from .errors import CapacityError
from .model import Interconnector, _require_str

__all__ = [
    "WheelScenario",
    "WheelingChain",
    "WheelingResult",
    "wheel_gates_123",
    "wheel_profit_123",
    "wheel_gates_321",
    "wheel_profit_321",
    "evaluate_wheel",
]


class WheelScenario(str, Enum):
    S123 = "S123"  # area1 -> area2 -> area3
    S321 = "S321"  # area3 -> area2 -> area1


@dataclass(frozen=True)
class WheelingChain:
    """An ordered 3-area path: two HVDC links plus the transit area's loss.

    Each link must be valid: the first of its
    :meth:`~hvdcarb.model.Interconnector.violations` is raised as a
    ``ValueError``.
    """

    area1: str
    area2: str
    area3: str
    link12: Interconnector
    link23: Interconnector
    transit_loss_c: float = 0.0

    def __post_init__(self):
        for area in ("area1", "area2", "area3"):
            _require_str(f"wheeling chain {area}", getattr(self, area))
        _check_loss(self.transit_loss_c, "transit_loss_c")
        for link in (self.link12, self.link23):
            violations = link.violations()
            if violations:
                raise ValueError(violations[0])
        legs = ((self.link12, self.area1, self.area2), (self.link23, self.area2, self.area3))
        for link, area_x, area_y in legs:
            if not link.connects(area_x, area_y):
                raise ValueError(f"link '{link.id}' does not connect '{area_x}' and '{area_y}'")


@dataclass(frozen=True)
class WheelingResult:
    """One scenario's gates, feasibility, and profit at the dispatched quantity."""

    scenario: WheelScenario
    feasible: bool
    gate_values: tuple[float, float]
    dispatched_mw: float
    profit: float


def wheel_gates_123(
    p1: float, p2: float, p3: float, r1: float, r2: float, c: float
) -> tuple[float, float]:
    """Gate pair for wheeling area1 -> area2 -> area3; feasible iff both > 0.

    Raises:
        ValueError: a loss breaks its rule in :mod:`hvdcarb.arbitrage`, or a
            gate is not finite (a price is not, or the gate overflows).
    """
    _check_losses(r1, r2, c)
    try:  # an int price past float range overflows here
        gates = (p3 * (1 - r2) * (1 - c) - p2, p2 * (1 - r1) - p1)
        finite = math.isfinite(gates[0]) and math.isfinite(gates[1])
    except OverflowError:
        finite = False
    if not finite:
        p1, p2, p3 = (_shown(p) for p in (p1, p2, p3))
        raise ValueError(
            f"wheeling gates are not finite: origin price {p1}, transit price "
            f"{p2}, destination price {p3}"
        )
    return gates


def wheel_profit_123(
    p1: float,
    p3: float,
    r1: float,
    r2: float,
    c: float,
    x: float,
    duration_h: float = 1.0,
) -> float:
    """End-to-end profit (EUR) of wheeling x MW from area 1 to area 3.

    Raw formula value: negative on an infeasible instance.

    Raises:
        ValueError: a loss, x or duration_h breaks its rule in :mod:`hvdcarb.arbitrage`,
            or the profit is not finite (a price is not, or the profit overflows).
    """
    _check_losses(r1, r2, c)
    _check_nonnegative(x, "dispatch quantity")
    _check_duration(duration_h, "duration_h")
    try:  # an int price past float range overflows here
        profit = (p3 * (1 - r1) * (1 - r2) * (1 - c) - p1) * x * duration_h
        finite = math.isfinite(profit)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"wheeling profit is not finite: origin price {_shown(p1)}, "
            f"destination price {_shown(p3)}"
        )
    return profit


def wheel_gates_321(
    p1: float, p2: float, p3: float, r1: float, r2: float, c: float
) -> tuple[float, float]:
    """Gate pair for wheeling area3 -> area2 -> area1; feasible iff both > 0."""
    # Checked in the caller's order first, so an error names the caller's loss.
    _check_losses(r1, r2, c)
    return wheel_gates_123(p3, p2, p1, r2, r1, c)


def wheel_profit_321(
    p1: float,
    p3: float,
    r1: float,
    r2: float,
    c: float,
    x: float,
    duration_h: float = 1.0,
) -> float:
    """End-to-end profit (EUR) of wheeling x MW from area 3 to area 1."""
    return wheel_profit_123(p3, p1, r1, r2, c, x, duration_h)


def _check_losses(r1: float, r2: float, c: float):
    for name, value in (("r1", r1), ("r2", r2), ("c", c)):
        _check_loss(value, f"loss {name}")


def evaluate_wheel(
    chain: WheelingChain,
    p1: float,
    p2: float,
    p3: float,
    x_request: float,
    duration_h: float = 1.0,
) -> tuple[WheelingResult, WheelingResult]:
    """Evaluate both wheeling scenarios for one timestep's prices.

    A scenario dispatches x_request when both of its gates are strictly
    positive, and zero otherwise (the raw, possibly negative, formula
    value stays available through the wheel_profit functions). Capacity is
    checked leg by leg on the dispatching scenario only: the second leg
    carries the post-loss flow, so its cap binds against the already
    attenuated quantity.

    Raises:
        ValueError: x_request or duration_h breaks its rule in
            :mod:`hvdcarb.arbitrage`, or a gate or dispatched profit is not finite.
        CapacityError: a dispatching scenario's leg cannot carry its flow;
            the error names the binding link.
    """
    _check_nonnegative(x_request, "x_request")
    _check_duration(duration_h, "duration_h")
    r1 = chain.link12.loss_fraction
    r2 = chain.link23.loss_fraction
    c = chain.transit_loss_c

    results = []
    # Each scenario as (prices, losses) along its own path, and its legs in
    # flow order. The profit keeps the losses in chain order (module doc).
    for scenario, (q1, q2, q3, s1, s2), legs in (
        (WheelScenario.S123, (p1, p2, p3, r1, r2), (chain.link12, chain.link23)),
        (WheelScenario.S321, (p3, p2, p1, r2, r1), (chain.link23, chain.link12)),
    ):
        gates = wheel_gates_123(q1, q2, q3, s1, s2, c)
        if not (gates[0] > 0 and gates[1] > 0):
            results.append(WheelingResult(scenario, False, gates, 0.0, 0.0))
            continue
        flows = (x_request, x_request * (1 - s1) * (1 - c))
        for link, flow in zip(legs, flows):
            if flow > link.capacity_mw:
                raise CapacityError(
                    f"scenario {scenario.value}: leg '{link.id}' would carry "
                    f"{flow} MW, above its {link.capacity_mw} MW capacity",
                    binding_link=link.id,
                )
        profit = wheel_profit_123(q1, q3, r1, r2, c, x_request, duration_h)
        results.append(WheelingResult(scenario, True, gates, x_request, profit))
    return (results[0], results[1])
