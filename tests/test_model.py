"""Domain types, loss model, and network validation."""

import math
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdcarb import (
    AlignmentError,
    CapacityProfile,
    Interconnector,
    InvalidLossError,
    Network,
    PriceSeries,
    Region,
    WheelingChain,
    loss_from_length,
    schedule_portfolio,
    validate_network,
)
from hvdcarb.model import _shared_horizon
from conftest import EDGE_WHITESPACE_IDS


class TestLossFromLength:
    def test_moyle_length(self):
        assert loss_from_length(63.5, 0.01) == 0.00635

    def test_zero_length(self):
        assert loss_from_length(0, 0.01) == 0.0

    def test_celtic_length(self):
        assert loss_from_length(575, 0.01) == 0.0575

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            loss_from_length(-1, 0.01)

    def test_rate_at_one_rejected(self):
        with pytest.raises(ValueError):
            loss_from_length(10, 1.0)

    def test_lossy_beyond_one_rejected(self):
        with pytest.raises(InvalidLossError):
            loss_from_length(20000, 0.01)

    @given(
        a=st.floats(min_value=0, max_value=4000),
        b=st.floats(min_value=0, max_value=4000),
        rate=st.floats(min_value=0, max_value=0.01),
    )
    def test_linear_in_length(self, a, b, rate):
        combined = loss_from_length(a + b, rate)
        split = loss_from_length(a, rate) + loss_from_length(b, rate)
        assert abs(combined - split) <= 1e-12


class TestPriceSeries:
    def test_price_at(self):
        s = PriceSeries("x", ((1, 10.0), (2, 20.0)))
        assert s.price_at(2) == 20.0
        with pytest.raises(KeyError):
            s.price_at(3)

    def test_restricted(self):
        s = PriceSeries("x", ((1, 10.0), (2, 20.0), (3, 30.0)))
        assert s.restricted(2, 3).timesteps == (2, 3)
        assert s.restricted(None, 1).prices == (10.0,)
        assert s.restricted(4).steps == ()

    def test_fractional_timestep_rejected(self):
        with pytest.raises(ValueError):
            PriceSeries("x", ((1.5, 10.0),))

    def test_violations_out_of_order(self):
        s = PriceSeries("x", ((2, 10.0), (1, 20.0)))
        assert any("strictly increasing" in v for v in s.violations())

    def test_violations_non_finite(self):
        s = PriceSeries("x", ((1, float("nan")),))
        assert any("non-finite" in v for v in s.violations())


def steps_by_loop(steps):
    """Reference normalisation of (timestep, value) steps, one step at a time."""
    out = []
    for t, v in steps:
        # a string, inf and nan are refused as 1.5 is; None is int()'s TypeError
        if isinstance(t, str) or (t is not None and not math.isfinite(t)) or int(t) != t:
            raise ValueError(f"timestep {t!r} is not an integer")
        out.append((int(t), float(v)))
    return tuple(out)


def violations_by_loop(series):
    """Reference violations of a price series, one step at a time."""
    steps, out = steps_by_loop(series.steps), []
    for (t0, _), (t1, _) in zip(steps, steps[1:]):
        if t1 <= t0:
            out.append(
                f"price series '{series.region_id}': timesteps not strictly "
                f"increasing at t={t1}"
            )
    for t, p in steps:
        if not math.isfinite(p):
            out.append(f"price series '{series.region_id}': non-finite price at t={t}")
        if t < 0:
            out.append(f"price series '{series.region_id}': negative timestep {t}")
    return out


def capacity_violations_by_loop(profile):
    steps, out = steps_by_loop(profile.steps), []
    for (t0, _), (t1, _) in zip(steps, steps[1:]):
        if t1 <= t0:
            out.append(
                f"capacity profile '{profile.interconnector_id}': timesteps not "
                f"strictly increasing at t={t1}"
            )
    for t, x in steps:
        if not (x >= 0) or not math.isfinite(x):
            out.append(
                f"capacity profile '{profile.interconnector_id}': x_max at t={t} "
                f"must be finite and >= 0, got {x}"
            )
    return out


def outcome(f, *args):
    """``repr`` of f's result, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # the comparison covers every error
        return (type(exc), str(exc))


_odd_numbers = st.sampled_from(
    [1, 2.0, 1.5, -3, True, math.nan, math.inf, Fraction(4, 1), Fraction(1, 2),
     Decimal("2"), Decimal("2.5"), "3", "x", None, 2**70]
)
_odd_steps = st.one_of(
    st.tuples(_odd_numbers, _odd_numbers),
    st.tuples(st.integers(-2, 5), st.floats(allow_nan=True)).map(list),
    st.tuples(st.integers(-2, 5)),
    st.tuples(st.integers(-2, 5), st.floats(), st.floats()),
)
_plain_steps = st.tuples(
    st.integers(-2, 8),
    st.one_of(st.floats(-100, 100), st.sampled_from([math.nan, math.inf, -math.inf, 1e308])),
)


class TestColumnStorage:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(_plain_steps, _odd_steps), max_size=5))
    @example([(1, 10.0), (2, 20.0)])
    @example([(1.0, 10), (True, 1.5)])
    @example([(True, 1.5), (2, 2.0)])
    @example([(1, 1.0), (1.5, 2.0)])
    @example([(1, 1.0), (2, 2.0, 3.0)])
    @example([(1, 1.0), (2,)])
    @example([[1, 1.0]])
    @example([("3", 1.0)])
    @example([(1, "2.5")])
    @example([(None, 1.0)])
    @example([])
    @example([[1, 1.0], [2, 2.0]])
    @example([(1, 1.0, 0.0), (2, 2.0, 0.0)])
    @example([(True, False), (2, True)])
    @example([(1, 10), (2, 20)])
    def test_steps_normalise_as_before(self, steps):
        expected = outcome(steps_by_loop, steps)
        for cls in (PriceSeries, CapacityProfile):
            assert outcome(lambda: cls("x", steps).steps) == expected
            assert outcome(lambda: cls("x", iter(steps)).steps) == expected
            assert outcome(lambda: cls("x", (step for step in steps)).steps) == expected

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, "x", 1.5])
    def test_a_timestep_that_is_not_an_integer_is_refused_by_one_message(self, t):
        for cls in (PriceSeries, CapacityProfile):
            with pytest.raises(ValueError) as err:
                cls("x", ((t, 1.0),))
            assert str(err.value) == f"timestep {t!r} is not an integer"

    def test_columns_build_through_a_strict_zip(self):
        series = PriceSeries("x", zip([1, 2.0], [10, 20.5], strict=True))
        assert series == PriceSeries("x", ((1, 10.0), (2, 20.5)))
        assert hash(series) == hash(PriceSeries("x", ((1, 10.0), (2, 20.5))))
        assert repr(series.timesteps) == "(1, 2)" and repr(series.prices) == "(10.0, 20.5)"
        with pytest.raises(ValueError, match="is not an integer"):
            PriceSeries("x", zip([1.5], [1.0], strict=True))
        with pytest.raises(ValueError):
            PriceSeries("x", zip((1, 2), (1.0,), strict=True))

    @settings(max_examples=300)
    @given(
        st.lists(_plain_steps, max_size=6),
        st.one_of(st.none(), st.integers(-3, 9), st.sampled_from([2.0, 2.5, math.nan])),
        st.one_of(st.none(), st.integers(-3, 9), st.sampled_from([4.0, math.nan, "x"])),
    )
    @example([(1, 1.0), (2, 2.0), (3, 3.0)], 2, 2)
    @example([(3, 1.0), (1, 2.0), (3, 3.0)], 3, None)  # not increasing: first match
    @example([(1, 1.0), (5, 2.0)], 4, 2)
    @example([(1, 1.0), (2, 2.0)], math.nan, None)
    def test_lookups_and_violations_as_before(self, steps, a, b):
        series = PriceSeries("x", steps)
        by_t = steps_by_loop(steps)

        def scan(t):
            for s, p in by_t:
                if s == t:
                    return p
            raise KeyError(t)

        def kept(start, end):
            return tuple(
                (t, p)
                for t, p in by_t
                if (start is None or t >= start) and (end is None or t <= end)
            )

        for t in (a, b):
            assert outcome(series.price_at, t) == outcome(scan, t)
        assert outcome(lambda: series.restricted(a, b).steps) == outcome(kept, a, b)
        assert series.violations() == violations_by_loop(series)
        profile = CapacityProfile("x", steps)
        assert profile.violations() == capacity_violations_by_loop(profile)


class TestCapacityProfile:
    def test_negative_cap_is_violation(self):
        p = CapacityProfile("x", ((1, -5.0),))
        assert len(p.violations()) == 1


class TestNetworkLookups:
    def test_lookups(self, bundle):
        net = bundle.network
        assert net.region("ireland").name == "Ireland"
        assert net.link("celtic").capacity_mw == 700.0
        assert net.prices_for("france").price_at(1) == 50.0
        for lookup in (net.region, net.link, net.prices_for):
            with pytest.raises(KeyError) as err:
                lookup("nordlink")
            assert err.value.args == ("nordlink",)

    def test_with_prices_orders_by_region_declaration(self, bundle, one_hour_prices):
        shuffled = [
            one_hour_prices["france"],
            one_hour_prices["ireland"],
            one_hour_prices["wales"],
            one_hour_prices["scotland"],
        ]
        net = bundle.network.with_prices(shuffled)
        assert [s.region_id for s in net.price_series] == [
            "ireland",
            "scotland",
            "wales",
            "france",
        ]


class TestLookupRule:
    """On an unvalidated network, the first item of a repeated id wins."""

    @pytest.fixture
    def repeated(self):
        return Network(
            (Region("a", "first"), Region("b"), Region("a", "second")),
            (
                Interconnector("ab", "a", "b", 1.0, 0.0),
                Interconnector("ab", "a", "b", 2.0, 0.0),
            ),
            (
                PriceSeries("b", ((1, 1.0),)),
                PriceSeries("a", ((1, 2.0),)),
                PriceSeries("b", ((1, 3.0),)),
            ),
        )

    def test_first_item_wins(self, repeated):
        assert repeated.region("a") is repeated.regions[0]
        assert repeated.link("ab") is repeated.interconnectors[0]
        assert repeated.prices_for("b") is repeated.price_series[0]
        assert repeated.with_prices(repeated.price_series).prices_for("b").prices == (1.0,)


class CountingId(str):
    """An id that counts the equality tests made on it."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountingId.comparisons += 1
        return str.__eq__(self, other)


def counting_chain(n: int) -> Network:
    """n regions in a line, joined by n - 1 links; no two ids are one object."""

    def rid(i):
        return CountingId(f"r{i}")

    return Network(
        tuple(Region(rid(i)) for i in range(n)),
        tuple(
            Interconnector(CountingId(f"l{i}"), rid(i), rid(i + 1), 100.0, 0.02)
            for i in range(n - 1)
        ),
        tuple(PriceSeries(rid(i), ((t, float(i % 7 + t)) for t in range(4))) for i in range(n)),
    )


def priced_chain(n: int) -> Network:
    """n regions in a line, joined by n - 1 links, region i priced at timestep i alone:
    every linked source lacks a timestep that n - 1 others cover."""
    return Network(
        tuple(Region(f"r{i}") for i in range(n)),
        tuple(Interconnector(f"l{i}", f"r{i}", f"r{i + 1}", 1.0, 0.0) for i in range(n - 1)),
        tuple(PriceSeries(f"r{i}", ((i, 1.0),)) for i in range(n)),
    )


@pytest.mark.parametrize("n", [100, 400])
def test_validating_and_scheduling_are_linear_in_size(n):
    # A scan per lookup makes about n * n / 2 id comparisons; a map, a few per item.
    net = counting_chain(n)
    CountingId.comparisons = 0
    assert validate_network(net) == []
    assert len(schedule_portfolio(net).schedules) == n - 1
    assert CountingId.comparisons <= 20 * n


class CountingColumn(tuple):
    """A column that counts the elements read or compared through it."""

    reads = 0
    __hash__ = tuple.__hash__

    def __iter__(self):
        CountingColumn.reads += len(self)
        return super().__iter__()

    def __eq__(self, other):
        CountingColumn.reads += len(self)
        return super().__eq__(other)


def checked_reads(links: int, steps: int) -> int:
    """Elements read to schedule ``links`` links at rated capacity over one
    pair of price series that share one timestep tuple."""
    timesteps = CountingColumn(range(steps))
    series = (
        PriceSeries._checked("a", timesteps, CountingColumn(float(t % 5) for t in timesteps)),
        PriceSeries._checked("b", timesteps, CountingColumn(float(t % 3) for t in timesteps)),
    )
    net = Network(
        (Region("a"), Region("b")),
        tuple(Interconnector(f"l{i}", "a", "b", 100.0, 0.02) for i in range(links)),
        series,
    )
    CountingColumn.reads = 0
    assert len(schedule_portfolio(net).schedules) == links
    return CountingColumn.reads


def test_checking_shared_series_reads_each_once_whatever_the_links():
    # Each series finds its violations once; a shared timestep tuple agrees
    # with itself unread. What each further link reads is its margin loop's
    # pass over the two price columns (x_max is a plain tuple).
    steps = 50
    assert checked_reads(16, steps) - checked_reads(1, steps) == 15 * 2 * steps


ID_RULE = "breaks the id rule: non-empty printable text, no edge whitespace, no ',' or '\"'"
NOT_NAMES = ["", " ", "a\nb", "a\rb", "a\0b", "a\x85b", "a\u2028b", "x,y", 'say "hi"']


class TestIdRule:
    @pytest.mark.parametrize("rid", [*EDGE_WHITESPACE_IDS, *NOT_NAMES])
    def test_a_region_id_that_is_no_name_is_a_violation(self, rid):
        assert validate_network(Network((Region(rid),))) == [f"region id {rid!r} {ID_RULE}"]

    @pytest.mark.parametrize("link_id", [*EDGE_WHITESPACE_IDS, *NOT_NAMES])
    def test_a_link_id_that_is_no_name_is_a_violation(self, link_id):
        link = Interconnector(link_id, "a", "b", 100.0, 0.0)
        assert link.violations() == [f"interconnector id {link_id!r} {ID_RULE}"]
        with pytest.raises(ValueError, match=re.escape(f"{link_id!r} {ID_RULE}")):
            WheelingChain("a", "b", "c", link, Interconnector("bc", "b", "c", 1.0, 0.0))

    def test_int_ids_are_violations(self):
        network = Network(
            (Region(5), Region(6)),
            (Interconnector(7, 5, 6, 100.0, 0.0),),
            (PriceSeries(5, ((1, 1.0),)), PriceSeries(6, ((1, 2.0),))),
        )
        assert validate_network(network) == [
            f"region id 5 {ID_RULE}", f"region id 6 {ID_RULE}", f"interconnector id 7 {ID_RULE}"
        ]

    def test_int_and_str_ids_mixed_are_violations(self):
        # the linked regions are sorted to word the horizon rule's sources
        network = Network(
            (Region(5), Region("a")),
            (Interconnector("l", 5, "a", 100.0, 0.0),),
            (PriceSeries(5, ((1, 1.0),)), PriceSeries("a", ((1, 2.0),))),
        )
        assert validate_network(network) == [f"region id 5 {ID_RULE}"]


# Ids that str() refuses (an int past its digit limit) or that cannot be hashed:
# each is reported in bounded form, never raised on.
NOT_STR_IDS = {
    "long-int": (10**5000, f"<int of over {sys.get_int_max_str_digits()} digits>"),
    "list": (["a"], "['a']"),
}


class TestIdsThatAreNoStr:
    @pytest.fixture(params=NOT_STR_IDS.values(), ids=NOT_STR_IDS.keys())
    def bad(self, request):
        return request.param

    @staticmethod
    def priced(*region_ids):
        return tuple(PriceSeries(rid, ((1, 1.0),)) for rid in region_ids)

    def test_as_a_region_id(self, bad):
        value, shown = bad
        assert validate_network(Network((Region(value),))) == [f"region id {shown} {ID_RULE}"]

    def test_as_a_link_id(self, bad):
        value, shown = bad
        link = Interconnector(value, "a", "b", 1.0, 0.0)
        network = Network((Region("a"), Region("b")), (link,), self.priced("a", "b"))
        assert validate_network(network) == [f"interconnector id {shown} {ID_RULE}"]

    def test_as_an_endpoint(self, bad):
        value, shown = bad
        links = (
            Interconnector("ab", "a", value, 1.0, 0.0),
            Interconnector("x", value, value, 1.0, 0.0),
        )
        network = Network((Region("a"),), links, self.priced("a"))
        assert validate_network(network) == [
            f"interconnector 'ab': endpoint '{shown}' is not a declared region",
            f"interconnector 'x': both endpoints are '{shown}'",
            f"interconnector 'x': endpoint '{shown}' is not a declared region",
            f"interconnector 'x': endpoint '{shown}' is not a declared region",
        ]

    def test_as_a_series_region_id(self, bad):
        value, shown = bad
        link = Interconnector("ab", "a", "b", 1.0, 0.0)
        network = Network((Region("a"), Region("b")), (link,), self.priced("a", value, "b"))
        assert validate_network(network) == [
            f"price series references unknown region '{shown}'"
        ]

    def test_constructors_and_their_messages(self, bad):
        value, shown = bad
        series = PriceSeries(value, ((1, math.nan),))
        profile = CapacityProfile(value, ((1, -1.0),))
        assert series.violations() == [f"price series '{shown}': non-finite price at t=1"]
        assert profile.violations() == [
            f"capacity profile '{shown}': x_max at t=1 must be finite and >= 0, got -1.0"
        ]
        for cls, name in ((PriceSeries, "price series"), (CapacityProfile, "capacity profile")):
            with pytest.raises(ValueError, match=re.escape(f"{name} '{shown}': ")):
                cls(value, ((1, 10**400),))

    def test_a_repeated_long_int_is_a_duplicate(self):
        value, shown = NOT_STR_IDS["long-int"]
        network = Network(
            (Region(value), Region(value)),
            (Interconnector(value, value, "b", 1.0, 0.0),) * 2,
            self.priced(value, value),
        )
        assert validate_network(network) == [
            f"region id {shown} {ID_RULE}",
            f"region id {shown} {ID_RULE}",
            f"duplicate region id '{shown}'",
            f"interconnector id {shown} {ID_RULE}",
            f"interconnector '{shown}': endpoint 'b' is not a declared region",
            f"interconnector id {shown} {ID_RULE}",
            f"duplicate interconnector id '{shown}'",
            f"interconnector '{shown}': endpoint 'b' is not a declared region",
            f"duplicate price series for region '{shown}'",
        ]


class TestValidateNetwork:
    def test_bundled_network_is_clean(self, bundle):
        assert validate_network(bundle.network) == []

    def test_loss_fraction_at_one(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 1.0),),
            (PriceSeries("a", ((1, 1.0),)), PriceSeries("b", ((1, 1.0),))),
        )
        report = validate_network(net)
        assert len(report) == 1
        assert "ab" in report[0] and "loss_fraction" in report[0]

    def test_unknown_endpoint_region(self):
        net = Network(
            (Region("a"),),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (PriceSeries("a", ((1, 1.0),)),),
        )
        report = validate_network(net)
        assert any("'b' is not a declared region" in v for v in report)

    def test_empty_network_is_clean(self):
        assert validate_network(Network()) == []

    @pytest.mark.parametrize(
        "link, expected",
        [
            (Interconnector("x", "a", "a", 100.0, 0.0), "both endpoints"),
            (Interconnector("x", "a", "b", -1.0, 0.0), "capacity_mw"),
            (Interconnector("x", "a", "b", 100.0, -0.2), "loss_fraction"),
            (Interconnector("x", "a", "b", 100.0, 0.0, length_km=-5.0), "length_km"),
        ],
    )
    def test_link_invariants(self, link, expected):
        assert any(expected in v for v in link.violations())

    def test_duplicate_region_ids(self):
        net = Network((Region("a"), Region("a")))
        assert any("duplicate region id" in v for v in validate_network(net))

    def test_duplicate_link_ids(self):
        link = Interconnector("ab", "a", "b", 1.0, 0.0)
        net = Network(
            (Region("a"), Region("b")),
            (link, link),
            (PriceSeries("a", ((1, 1.0),)), PriceSeries("b", ((1, 1.0),))),
        )
        assert any("duplicate interconnector id" in v for v in validate_network(net))

    def test_duplicate_price_series(self):
        # reported once per repeat; the lookup, like with_prices, keeps the first
        first, repeat = PriceSeries("a", ((1, 1.0),)), PriceSeries("a", ((1, 2.0),))
        net = Network((Region("a"),), (), (first, repeat, repeat))
        assert validate_network(net) == ["duplicate price series for region 'a'"] * 2
        assert net.prices_for("a") is first

    def test_linked_region_without_prices(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (PriceSeries("a", ((1, 1.0),)),),
        )
        assert any("no price series" in v for v in validate_network(net))

    def test_unknown_series_region(self):
        net = Network((Region("a"),), (), (PriceSeries("zz", ((1, 1.0),)),))
        assert any("unknown region 'zz'" in v for v in validate_network(net))

    def test_linked_horizons_must_match(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("a", ((1, 1.0), (2, 1.0))),
                PriceSeries("b", ((1, 1.0),)),
            ),
        )
        assert any("horizon" in v for v in validate_network(net))

    def test_shifted_year_names_the_first_difference_briefly(self):
        year = range(8760)
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("a", tuple((t, 1.0) for t in year)),
                PriceSeries("b", tuple((t + 1, 1.0) for t in year)),
            ),
        )
        (message,) = validate_network(net)
        assert message == (
            "horizon mismatch: prices 'a' missing timesteps [8760]; "
            "prices 'b' missing timesteps [0]"
        )
        assert len(message) < 300

    def test_shorter_horizon_names_where_it_ends(self):
        net = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("a", ((1, 1.0), (2, 1.0))),
                PriceSeries("b", ((1, 1.0),)),
            ),
        )
        assert validate_network(net) == [
            "horizon mismatch: prices 'b' missing timesteps [2]"
        ]

    def test_past_five_sources_the_message_counts_them(self):
        (message,) = validate_network(priced_chain(7))
        assert message == (
            "horizon mismatch: prices 'r0' missing timesteps [1, 2, 3, 4, 5, ...] (6 in all); "
            "prices 'r1' missing timesteps [0, 2, 3, 4, 5, ...] (6 in all); "
            "prices 'r2' missing timesteps [0, 1, 3, 4, 5, ...] (6 in all); "
            "prices 'r3' missing timesteps [0, 1, 2, 4, 5, ...] (6 in all); "
            "prices 'r4' missing timesteps [0, 1, 2, 3, 5, ...] (6 in all); "
            "and 2 more sources"
        )
        (message,) = validate_network(priced_chain(6))
        assert message.endswith(
            "prices 'r4' missing timesteps [0, 1, 2, 3, 5]; and 1 more source"
        )

    def test_missing_holds_every_gap_of_every_source(self):
        with pytest.raises(AlignmentError) as err:
            _shared_horizon({f"s{i}": (i,) for i in range(7)})
        assert str(err.value).endswith("; and 2 more sources")
        assert err.value.missing == {
            f"s{i}": tuple(t for t in range(7) if t != i) for i in range(7)
        }

    def test_a_mismatched_chain_is_worded_in_linear_memory(self):
        # Listing every gap of every source takes n * n memory and text.
        peaks = []
        for n in (1000, 4000):
            network = priced_chain(n)
            tracemalloc.start()
            try:
                (line,) = validate_network(network)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(line.encode()) < 1024
        assert peaks[1] / peaks[0] < 6

    def test_unpriced_unlinked_region_is_fine(self, bundle):
        # northern_ireland carries no link and needs no series
        assert "northern_ireland" in {r.id for r in bundle.network.regions}
        assert validate_network(bundle.network) == []
