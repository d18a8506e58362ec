"""Domain model: market areas, price series, HVDC links, capacity profiles.

Units follow European market conventions: power in MW, energy in MWh,
prices in EUR/MWh, loss fractions dimensionless in [0, 1). One timestep
defaults to one hour, so MW dispatched for a step equals MWh.

All types are immutable value objects. Construction never raises on a
broken domain invariant; :func:`validate_network` reports violations as
data so that loaders and callers decide how to fail.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import filterfalse, islice

from .arbitrage import _check_loss, _check_nonnegative
from .errors import AlignmentError, InvalidLossError

__all__ = [
    "Region",
    "PriceSeries",
    "Interconnector",
    "CapacityProfile",
    "Network",
    "loss_from_length",
    "validate_network",
]


def _step_columns(
    steps: Iterable[tuple[int, float]],
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The timestep and value columns of ``(timestep, value)`` pairs.

    Pairs that are all 2-tuples of an int and a float are split as they
    are; anything else goes step by step, making timesteps ints and values
    floats, and raises at the first timestep that is not an integer.
    """
    steps = tuple(steps)
    if set(map(type, steps)) <= {tuple} and set(map(len, steps)) <= {2}:
        timesteps, values = tuple(zip(*steps)) or ((), ())
        if set(map(type, timesteps)) <= {int} and set(map(type, values)) <= {float}:
            return timesteps, values
    timesteps, values = [], []
    for t, v in steps:
        if int(t) != t:
            raise ValueError(f"timestep {t!r} is not an integer")
        timesteps.append(int(t))
        values.append(float(v))
    return tuple(timesteps), tuple(values)


def _strictly_increasing(timesteps: tuple[int, ...]) -> bool:
    return all(map(operator.lt, timesteps, timesteps[1:]))


def _broken(check, value: float, name: str) -> list[str]:
    """The message of ``check(value, name)`` as a one-item list, or [] if it passes."""
    try:
        check(value, name)
    except ValueError as exc:
        return [str(exc)]
    return []


def _order_violations(owner: str, ts: tuple[int, ...]) -> list[str]:
    return [
        f"{owner}: timesteps not strictly increasing at t={t1}"
        for t0, t1 in zip(ts, ts[1:])
        if t1 <= t0
    ]


@dataclass(frozen=True)
class Region:
    """A market area with a single electricity price."""

    id: str
    name: str = ""


@dataclass(frozen=True, init=False)
class PriceSeries:
    """Per-timestep prices (EUR/MWh) for one region.

    Timestep indices must be strictly increasing. Negative prices are
    admitted: European day-ahead markets produce them and the
    difference-form profit expressions stay valid.

    The one constructor takes ``(timestep, price)`` pairs; from columns,
    pass ``zip(timesteps, prices, strict=True)``. Timesteps become ints and
    prices floats. The series is stored as two parallel columns,
    ``timesteps`` and ``prices``; ``steps``, the pairs, is built on first
    use, and its :meth:`violations` are found once, for every reader (each
    link that reads the series, say).
    """

    region_id: str
    timesteps: tuple[int, ...]
    prices: tuple[float, ...]

    def __init__(self, region_id: str, steps: Iterable[tuple[int, float]]):
        timesteps, prices = _step_columns(steps)
        self.__dict__.update(region_id=region_id, timesteps=timesteps, prices=prices)

    @classmethod
    def _checked(cls, region_id: str, timesteps, prices) -> "PriceSeries":
        """Series from columns already of exact ints and floats, not normalised."""
        series = cls.__new__(cls)
        series.__dict__.update(region_id=region_id, timesteps=timesteps, prices=prices)
        return series

    @cached_property
    def steps(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.timesteps, self.prices))

    def price_at(self, timestep: int) -> float:
        for t, p in zip(self.timesteps, self.prices):
            if t == timestep:
                return p
        raise KeyError(timestep)

    def restricted(self, start: int | None = None, end: int | None = None) -> "PriceSeries":
        """Sub-series with start <= t <= end (either bound optional)."""
        kept = [
            (t, p)
            for t, p in zip(self.timesteps, self.prices)
            if (start is None or t >= start) and (end is None or t <= end)
        ]
        return PriceSeries(self.region_id, tuple(kept))

    def violations(self) -> list[str]:
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        ts, prices = self.timesteps, self.prices
        # Whole-column tests; the per-step scan runs only when one fails (a
        # finite column can also overflow the sum).
        if (
            _strictly_increasing(ts)
            and (not ts or ts[0] >= 0)
            and math.isfinite(sum(prices))
        ):
            return ()
        out = _order_violations(f"price series '{self.region_id}'", ts)
        for t, p in zip(ts, prices):
            if not math.isfinite(p):
                out.append(f"price series '{self.region_id}': non-finite price at t={t}")
            if t < 0:
                out.append(f"price series '{self.region_id}': negative timestep {t}")
        return tuple(out)


@dataclass(frozen=True)
class Interconnector:
    """A lossy bidirectional HVDC link between two regions.

    ``loss_fraction`` is the share of injected power dissipated end to
    end: sending x MW delivers (1 - loss_fraction) * x MW.
    """

    id: str
    endpoint_a: str
    endpoint_b: str
    capacity_mw: float
    loss_fraction: float
    length_km: float | None = None

    def endpoints(self) -> tuple[str, str]:
        return (self.endpoint_a, self.endpoint_b)

    def connects(self, region_x: str, region_y: str) -> bool:
        return {self.endpoint_a, self.endpoint_b} == {region_x, region_y}

    def violations(self) -> list[str]:
        name = f"interconnector '{self.id}'"
        out = [] if self.id else ["interconnector with empty id"]
        out += _broken(_check_nonnegative, self.capacity_mw, f"{name}: capacity_mw")
        out += _broken(_check_loss, self.loss_fraction, f"{name}: loss_fraction")
        if self.endpoint_a == self.endpoint_b:
            out.append(f"{name}: both endpoints are '{self.endpoint_a}'")
        if self.length_km is not None:
            out += _broken(_check_nonnegative, self.length_km, f"{name}: length_km")
        return out


@dataclass(frozen=True, init=False)
class CapacityProfile:
    """Per-timestep cap on transferable power (MW) for one link.

    Network capability to import/export varies over time; the horizon
    scheduler bounds each step's dispatch by the profile's value. Built and
    stored like :class:`PriceSeries`, as ``timesteps`` and ``values``
    columns. A link at rated capacity needs no profile: leave it out of
    ``capacities``.
    """

    interconnector_id: str
    timesteps: tuple[int, ...]
    values: tuple[float, ...]

    def __init__(self, interconnector_id: str, steps: Iterable[tuple[int, float]]):
        timesteps, values = _step_columns(steps)
        self.__dict__.update(
            interconnector_id=interconnector_id, timesteps=timesteps, values=values
        )

    @cached_property
    def steps(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.timesteps, self.values))

    def violations(self) -> list[str]:
        ts, values = self.timesteps, self.values
        if (
            _strictly_increasing(ts)
            and min(values, default=0.0) >= 0
            and math.isfinite(sum(values))
        ):
            return []
        name = f"capacity profile '{self.interconnector_id}'"
        out = _order_violations(name, ts)
        for t, x in zip(ts, values):
            out += _broken(_check_nonnegative, x, f"{name}: x_max at t={t}")
        return out


def _first_wins(items: Iterable, key: str) -> dict:
    """``items`` by their ``key`` attribute; the first item of a repeated key wins."""
    index = {}
    for item in items:
        index.setdefault(getattr(item, key), item)
    return index


@dataclass(frozen=True)
class Network:
    """Regions, the HVDC links joining them, and one price series per region.

    Regions that have no interconnector may omit a price series. The lookup
    rule, for :meth:`region`, :meth:`link` and :meth:`prices_for`: the first
    item of a repeated id wins, and an unknown id raises ``KeyError(id)``.
    """

    regions: tuple[Region, ...] = ()
    interconnectors: tuple[Interconnector, ...] = ()
    price_series: tuple[PriceSeries, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "interconnectors", tuple(self.interconnectors))
        object.__setattr__(self, "price_series", tuple(self.price_series))

    @cached_property
    def _by_id(self) -> dict[str, dict]:
        keys = {"regions": "id", "interconnectors": "id", "price_series": "region_id"}
        return {name: _first_wins(getattr(self, name), key) for name, key in keys.items()}

    def region(self, region_id: str) -> Region:
        return self._by_id["regions"][region_id]

    def link(self, link_id: str) -> Interconnector:
        return self._by_id["interconnectors"][link_id]

    def prices_for(self, region_id: str) -> PriceSeries:
        return self._by_id["price_series"][region_id]

    def with_prices(self, series: Iterable[PriceSeries]) -> "Network":
        """Copy of this network with its price series replaced.

        Series are reordered to follow region declaration order; a repeated
        region keeps one series, by the lookup rule, and series for undeclared
        regions are kept (validation flags them).
        """
        by_region = _first_wins(series, "region_id")
        ordered = [by_region.pop(r.id) for r in self.regions if r.id in by_region]
        ordered.extend(by_region.values())
        return Network(self.regions, self.interconnectors, tuple(ordered))


def loss_from_length(length_km: float, loss_rate_per_100km: float) -> float:
    """Loss fraction of a link from its length, linear in km.

    A 575 km link at 1% per 100 km loses 5.75% of injected power. The
    model is linear (rate * km / 100), not compounding per segment.

    Raises:
        ValueError: length not finite and >= 0, or rate outside [0, 1).
        InvalidLossError: the resulting fraction reaches 1; such a link
            would consume all power it carries.
    """
    _check_nonnegative(length_km, "length_km")
    _check_loss(loss_rate_per_100km, "loss_rate_per_100km")
    loss = length_km * loss_rate_per_100km / 100
    if loss >= 1:
        raise InvalidLossError(
            f"derived loss fraction {loss} >= 1 for length {length_km} km at "
            f"rate {loss_rate_per_100km} per 100 km"
        )
    return loss


def validate_network(network: Network) -> list[str]:
    """Check every model invariant; return one message per violation.

    An empty report means the network is well formed. Violations are data,
    not exceptions: callers (e.g. the config loader) decide whether to fail.
    """
    report: list[str] = []

    seen_regions: set[str] = set()
    for r in network.regions:
        if not r.id:
            report.append("region with empty id")
        elif r.id in seen_regions:
            report.append(f"duplicate region id '{r.id}'")
        seen_regions.add(r.id)

    seen_links: set[str] = set()
    for link in network.interconnectors:
        report.extend(link.violations())
        if link.id in seen_links:
            report.append(f"duplicate interconnector id '{link.id}'")
        seen_links.add(link.id)
        for endpoint in link.endpoints():
            if endpoint not in seen_regions:
                report.append(
                    f"interconnector '{link.id}': endpoint '{endpoint}' is not a "
                    f"declared region"
                )

    seen_series: set[str] = set()
    for series in network.price_series:
        report.extend(series.violations())
        if series.region_id in seen_series:
            report.append(f"duplicate price series for region '{series.region_id}'")
        seen_series.add(series.region_id)
        if series.region_id not in seen_regions:
            report.append(
                f"price series references unknown region '{series.region_id}'"
            )

    # Every region touched by a link needs prices, and the priced horizons of
    # linked regions must coincide (they define the analysis horizon).
    linked = sorted({e for link in network.interconnectors for e in link.endpoints()})
    horizons: dict[str, tuple[int, ...]] = {}
    for region_id in linked:
        if region_id in seen_series:
            horizons[f"prices '{region_id}'"] = network.prices_for(region_id).timesteps
        elif region_id in seen_regions:
            report.append(f"region '{region_id}' has an interconnector but no price series")
    try:
        _shared_horizon(horizons)
    except AlignmentError as exc:
        report.append(str(exc))
    return report


def _shared_horizon(sources: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """The horizon rule: all sources cover the same timesteps, in the same order.

    ``sources`` maps each source's name to its timesteps. When they agree,
    the first source's are returned (``()`` when there is none). A source
    whose timesteps are the first source's tuple itself agrees unread, so
    series sharing one tuple, as the price loader's regions do, cost each
    link constant time here, as their violations, found once per series, do.
    Otherwise the :class:`AlignmentError` raised maps, in ``missing``, each
    source that lacks a timestep another covers to all such timesteps; that
    map is built when first read. Its message lists at most five sources, and
    at most five timesteps per source, then their count, so it is worded in
    time linear in the sources' sizes and its length grows with neither the
    horizon nor the number of sources: ``horizon mismatch: prices 'a' missing
    timesteps [10000, 10001, 10002, 10003, 10004, ...] (8760 in all)``.
    """
    reference = next(iter(sources.values()), ())
    if all(ts is reference or ts == reference for ts in sources.values()):
        return reference
    union = set().union(*sources.values())
    ordered = sorted(union)
    detail, more = [], 0
    for name, ts in sources.items():
        covered = set(ts)
        count = len(union) - len(covered)  # the source's gaps
        if not count:
            continue
        if len(detail) == 5:
            more += 1
            continue
        # the walk stops at the fifth gap, having passed at most len(covered) steps
        listed = str(list(islice(filterfalse(covered.__contains__, ordered), 5)))
        if count > 5:
            listed = f"{listed[:-1]}, ...] ({count} in all)"
        detail.append(f"{name} missing timesteps {listed}")
    if not detail:  # then a source breaks its own strictly-increasing invariant
        raise AlignmentError(
            "horizon mismatch: sources cover the same timesteps in different order"
        )
    if more:
        detail.append(f"and {more} more source{'s' if more > 1 else ''}")
    message = f"horizon mismatch: {'; '.join(detail)}"
    raise AlignmentError(message, partial(_missing_timesteps, sources, union))


def _missing_timesteps(sources: dict[str, tuple[int, ...]], union: set[int]) -> dict:
    """``AlignmentError.missing`` for ``sources``, which break the horizon rule and
    together cover ``union``."""
    return {
        name: tuple(sorted(gaps))
        for name, ts in sources.items()
        if (gaps := union.difference(ts))
    }
