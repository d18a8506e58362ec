"""Horizon scheduling of one or more links under dynamic capacity limits.

The horizon problem bounds each step's dispatch by a time-varying cap
x_t in [0, X_max^t] and values it at the step's marginal value

    lambda_t = max(p_a^t - p_b^t - r*p_a^t, p_b^t - p_a^t - r*p_b^t, 0)

(the tight bound of the epigraph constraints; any bias is subtracted
inside the max so a zero bias recovers the unbiased problem). The
objective sum x_t * lambda_t is separable across timesteps and linear in
each x_t over a box, so the per-step bang-bang rule, the column kernel
``hvdcarb.arbitrage._schedule_columns``, attains the horizon optimum.

How :func:`schedule_link` fills a :class:`Schedule`'s columns, and what it
raises, is stated in its docstring. :func:`lp_oracle` re-solves the same
problem by explicit per-step enumeration, as an independent check.

Links share no constraints in this model (shared-node network limits are
folded into each link's capacity profile), so a portfolio schedules each
link independently and sums; its links share one horizon, which annualises
the sum. Whether horizons agree is decided, and a mismatch worded, by the
one horizon rule in :mod:`hvdcarb.model` (``_shared_horizon``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

from .arbitrage import (
    BiasPolicy,
    Direction,
    FlowDecision,
    _check_duration,
    _check_nonnegative,
    _schedule_columns,
    optimal_flow,
)
from .errors import AlignmentError
from .model import (
    CapacityProfile, Interconnector, Network, PriceSeries,
    _shared_horizon, _strictly_increasing,
)

__all__ = [
    "HOURS_PER_YEAR",
    "Schedule",
    "PortfolioResult",
    "schedule_link",
    "schedule_portfolio",
    "extrapolate_annual",
    "lp_oracle",
]

HOURS_PER_YEAR = 8760

# lp_oracle enumerates every step explicitly; cap the horizon so nobody
# mistakes it for the production path.
_ORACLE_MAX_STEPS = 10_000

_Column = tuple[float, ...]

_STEP_COLUMNS = ("directions", "quantities", "lambdas", "profits")


@dataclass(frozen=True)
class Schedule:
    """Dispatch of one link over a horizon, as parallel per-step columns.

    Entry i of ``directions``, ``quantities`` (MW), ``lambdas`` (EUR/MWh
    after any bias) and ``profits`` (EUR) belongs to ``timesteps[i]``.
    :attr:`decisions` is the per-step view, which :class:`FlowDecision`
    builds from the columns.

    A schedule from :func:`schedule_link` builds those four columns on first
    read; equality, hashing, ``repr``, pickling and copying read them too.
    """

    interconnector_id: str
    timesteps: tuple[int, ...]
    directions: tuple[Direction, ...]
    quantities: tuple[float, ...]
    lambdas: tuple[float, ...]
    profits: tuple[float, ...]
    total_profit: float

    def __post_init__(self):
        n = len(self.timesteps)
        columns = (self.directions, self.quantities, self.lambdas, self.profits)
        if any(len(column) != n for column in columns):
            raise ValueError(
                f"schedule '{self.interconnector_id}': columns differ in length"
            )

    def __getattr__(self, name: str):
        # Reached only for a name missing from the instance: before its
        # first read, a step column of a schedule from schedule_link.
        inputs = self.__dict__.get("_inputs")
        if inputs is None or name not in _STEP_COLUMNS:
            raise AttributeError(f"'Schedule' object has no attribute {name!r}")
        self.__dict__.update(zip(_STEP_COLUMNS, _schedule_columns(*inputs)))
        self.__dict__.pop("_inputs", None)
        return self.__dict__[name]

    @property
    def decisions(self) -> tuple[FlowDecision, ...]:
        """One :class:`FlowDecision` per step, built anew on each access by
        ``FlowDecision._from_columns``, which raises at the first bad step."""
        return FlowDecision._from_columns(
            self.timesteps, self.directions, self.quantities, self.lambdas, self.profits
        )


@dataclass(frozen=True)
class PortfolioResult:
    """Independent schedules for several links plus aggregate figures.

    ``annualized`` linearly extrapolates the horizon's mean hourly profit
    to a full year.
    """

    schedules: tuple[Schedule, ...]
    grand_total: float
    annualized: float


def _sum_left_to_right(values: Iterable[float]) -> float:
    """Float sum in input order; ``sum()`` compensates from Python 3.12."""
    return reduce(operator.add, values, 0.0)


def _prepare(
    prices_a: PriceSeries,
    prices_b: PriceSeries,
    link: Interconnector,
    capacity: CapacityProfile | None,
    bias: BiasPolicy | None,
    duration_h: float,
) -> tuple:
    """Checked, endpoint-relative inputs of one link's horizon problem.

    Returns the argument tuple of :func:`_replay`: the horizon, the columns
    p_a, p_b and x_max aligned with it, the loss r, the bias r_b and the step
    duration. When an input's own check fails, it replays the per-step rule
    first, which raises at the first failing step, or passes (a link with an
    empty id, say, breaks no per-step rule).
    """
    _check_duration(duration_h, "duration_h")
    if not link.connects(prices_a.region_id, prices_b.region_id):
        raise ValueError(
            f"price series ({prices_a.region_id}, {prices_b.region_id}) do not "
            f"match link '{link.id}' endpoints ({link.endpoint_a}, {link.endpoint_b})"
        )
    if capacity is not None and capacity.interconnector_id != link.id:
        raise ValueError(
            f"capacity profile '{capacity.interconnector_id}' does not belong to "
            f"link '{link.id}'"
        )
    # Present prices endpoint-relative so A_to_B always means a -> b.
    if prices_a.region_id != link.endpoint_a:
        prices_a, prices_b = prices_b, prices_a
    r_b = (bias or BiasPolicy()).r_b
    # Without a profile the rated capacity applies over series a's horizon.
    horizon = _shared_horizon(
        {
            f"prices '{prices_a.region_id}'": prices_a.timesteps,
            f"prices '{prices_b.region_id}'": prices_b.timesteps,
            f"capacity '{link.id}'": (capacity or prices_a).timesteps,
        }
    )
    # Each series finds its violations once, for every link that reads it. A
    # series without them has increasing timesteps; its prices are checked
    # step by step, with the other step values.
    faulty_prices = prices_a._violations or prices_b._violations
    if faulty_prices and not _strictly_increasing(horizon):
        raise AlignmentError("horizon timesteps must be strictly increasing")
    x_max = capacity.values if capacity else (link.capacity_mw,) * len(horizon)
    col_a, col_b, r = prices_a.prices, prices_b.prices, link.loss_fraction
    # Each input's own check; a bias may be any object with an r_b, so its
    # rule is stated here.
    if (
        link.violations()
        or capacity is not None and capacity.violations()
        or faulty_prices
        or not 0 <= r_b < math.inf
    ):
        _replay(horizon, col_a, col_b, x_max, r, r_b, duration_h)
    if capacity is None and horizon:
        # float() overflows on an int past float range, which the link's
        # check, or else the replay, has refused by now.
        x_max = (float(link.capacity_mw),) * len(horizon)
    return horizon, col_a, col_b, x_max, r, r_b, duration_h


def _replay(
    horizon: tuple[int, ...], col_a: _Column, col_b: _Column, col_x: _Column,
    r: float, r_b: float, duration_h: float,
) -> None:
    """Decide every step with ``optimal_flow``, which raises at the first it rejects."""
    for t, p_a, p_b, x_max in zip(horizon, col_a, col_b, col_x):
        optimal_flow(p_a, p_b, r, x_max, r_b, duration_h, t)


def _checked_total(total: float, link_id: str, problem: tuple) -> float:
    """``total`` when it is finite. Otherwise the error ``optimal_flow`` raises
    at the first step whose spread or profit overflows, or else an error for
    the link. ``problem`` is the argument tuple of :func:`_replay`.
    """
    if not math.isfinite(total):
        _replay(*problem)
        raise ValueError(f"link '{link_id}': total profit is not finite")
    return total


def schedule_link(
    prices_a: PriceSeries,
    prices_b: PriceSeries,
    link: Interconnector,
    capacity: CapacityProfile | None = None,
    bias: BiasPolicy | None = None,
    duration_h: float = 1.0,
) -> Schedule:
    """Optimal dispatch of one link over the price series' horizon.

    Both price series and the capacity profile follow the horizon rule of
    :mod:`hvdcarb.model`. With no profile given, the link's rated capacity
    applies at every step. Separability makes the per-step optimum the horizon
    optimum. Each input is checked by its own check, a price series once for
    every link that reads it, then the total is computed in one pass with the
    column kernel's expressions, a pass that also catches a spread that
    overflows; the kernel builds the per-step columns when they are first read.
    Every value is bit-identical to deciding step by step.

    Raises:
        AlignmentError: the three sources break the horizon rule.
        ValueError: the series do not belong to the link's endpoints, the
            capacity profile belongs to another link, the step duration is
            not finite and > 0, a step is invalid (the error
            :func:`~hvdcarb.arbitrage.optimal_flow` raises at the first such
            step, a step whose profit overflows included), or the total
            profit overflows.
    """
    problem = _prepare(prices_a, prices_b, link, capacity, bias, duration_h)
    horizon, col_a, col_b, col_x, r, r_b, _ = problem
    # The total sums x * duration_h * lambda over the steps with lambda > 0,
    # left to right; where x == 0 a term is +-0.0, which changes no sum. Only
    # lambda > 0 adds, so neither the zero floor nor a margin of -0.0 (a loss of
    # -0.0) changes a total. A spread that overflows makes lambda inf and the
    # total inf, or nan where x == 0, so _checked_total replays the steps.
    total = 0.0
    for p_a, p_b, x in zip(col_a, col_b, col_x):
        a, b = p_a - p_b - r * p_a - r_b, p_b - p_a - r * p_b - r_b
        lam = b if b > a else a
        if lam > 0.0:
            total += x * duration_h * lam
    schedule = Schedule.__new__(Schedule)
    schedule.__dict__.update(
        interconnector_id=link.id,
        timesteps=horizon,
        total_profit=_checked_total(total, link.id, problem),
        _inputs=problem[1:],
    )
    return schedule


def schedule_portfolio(
    network: Network,
    capacities: dict[str, CapacityProfile] | None = None,
    bias: BiasPolicy | None = None,
    duration_h: float = 1.0,
) -> PortfolioResult:
    """Schedule every link in the network independently and aggregate.

    Links are processed in id order so results are reproducible however
    the per-link work is executed. ``capacities`` may supply a dynamic
    profile per link id; links without one run at rated capacity. Each link
    is looked up, checked, scheduled and aligned with the first link in one
    pass, so the first link in id order that is refused raises.

    Raises:
        AlignmentError: a link's sources, or its horizon and the first
            link's (the total is annualised over one horizon), break the
            horizon rule; names the link.
        KeyError: a link endpoint has no price series.
        ValueError: the step duration is not finite and > 0, a
            ``capacities`` key names no link, a link's inputs are invalid
            (see :func:`schedule_link`), the network has links and an empty
            horizon to annualise, or the grand total or the annualised
            profit is not finite (naming the links).
    """
    _check_duration(duration_h, "duration_h")
    capacities = capacities or {}
    unknown = set(capacities).difference(link.id for link in network.interconnectors)
    if unknown:
        raise ValueError(f"capacities name unknown links: {sorted(unknown)}")
    schedules = []
    first = {}  # the first link's horizon, by the link's name
    for link in sorted(network.interconnectors, key=lambda ln: ln.id):
        try:
            prices = tuple(map(network.prices_for, link.endpoints()))
        except KeyError as exc:
            raise KeyError(f"link '{link.id}': no price series for region {exc}") from exc
        try:
            schedule = schedule_link(*prices, link, capacities.get(link.id), bias, duration_h)
            # The total is annualised over one horizon, so every link must share it.
            name = f"link '{link.id}'"
            first = first or {name: schedule.timesteps}
            _shared_horizon({**first, name: schedule.timesteps})
        except AlignmentError as exc:
            raise AlignmentError(f"link '{link.id}': {exc}", exc.missing) from exc
        schedules.append(schedule)
    grand_total = _sum_left_to_right(s.total_profit for s in schedules)
    annualized = 0.0
    if schedules:
        hours = len(schedules[0].timesteps) * duration_h
        if not hours:
            raise ValueError("the horizon is empty: there is no hour to annualise")
        annualized = grand_total / hours * HOURS_PER_YEAR  # as extrapolate_annual does
    if not math.isfinite(annualized):  # each link's total is finite
        ids = ", ".join(f"'{s.interconnector_id}'" for s in schedules)
        what = "annualised" if math.isfinite(grand_total) else "grand total"
        raise ValueError(f"portfolio of links {ids}: {what} profit is not finite")
    return PortfolioResult(tuple(schedules), grand_total, annualized)


def extrapolate_annual(hourly_profit: float) -> float:
    """Linear extrapolation of an hourly profit to a 8760-hour year.

    Raises:
        ValueError: the hourly profit, or the annual one, is not finite
            and >= 0.
    """
    _check_nonnegative(hourly_profit, "hourly_profit")
    annual = hourly_profit * HOURS_PER_YEAR
    _check_nonnegative(annual, "annual profit")
    return annual


def lp_oracle(
    prices_a: PriceSeries,
    prices_b: PriceSeries,
    link: Interconnector,
    capacity: CapacityProfile | None = None,
    bias: BiasPolicy | None = None,
    duration_h: float = 1.0,
) -> Schedule:
    """Reference solver: per-step enumeration over x_t in {0, X_max^t}.

    Despite its name it solves no LP. The objective is linear in x_t, so
    only the two box corners of each step can be optimal; this solver
    evaluates both explicitly instead of trusting the bang-bang rule, and
    must agree with :func:`schedule_link` step for step, errors included.
    Intended as a test oracle for small horizons, not the production path.
    """
    problem = _prepare(prices_a, prices_b, link, capacity, bias, duration_h)
    horizon, col_a, col_b, col_x, r, r_b, _ = problem
    if len(horizon) > _ORACLE_MAX_STEPS:
        raise ValueError(
            f"lp_oracle is limited to {_ORACLE_MAX_STEPS} steps, got {len(horizon)}"
        )
    _replay(*problem)  # a spread that overflows would reach Fraction(inf)
    from fractions import Fraction  # here, so that importing hvdcarb never imports it

    def exact_profit(x: float, lam: float) -> Fraction:
        """x * duration_h * lam unrounded, so a tiny product is not 0."""
        return Fraction(x) * Fraction(duration_h) * Fraction(lam)

    steps = []  # (direction, quantity, lambda, profit) per step
    for p_a, p_b, x_max in zip(col_a, col_b, col_x):
        raw_to_a = p_a - p_b - r * p_a
        raw_to_b = p_b - p_a - r * p_b
        lam = max(0.0, raw_to_a - r_b, raw_to_b - r_b)  # the floor first: never -0.0
        # Enumerate the two box corners; keep the strictly better one.
        best_x = 0.0
        for x in (0.0, x_max):
            if exact_profit(x, lam) > exact_profit(best_x, lam):
                best_x = x
        direction = Direction.IDLE
        if best_x > 0:
            # direction ties on the pre-bias margins resolve into endpoint a
            direction = Direction.B_TO_A if raw_to_a >= raw_to_b else Direction.A_TO_B
        steps.append((direction, best_x, lam, best_x * duration_h * lam))
    columns = tuple(zip(*steps)) or ((),) * 4
    total = _checked_total(_sum_left_to_right(columns[-1]), link.id, problem)
    return Schedule(link.id, horizon, *columns, total)
