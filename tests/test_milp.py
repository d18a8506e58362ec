"""Schedules against a mixed-integer program solved by HiGHS, which shares no
arithmetic with the scheduler.

Per link and step the program has flows f_ab and f_ba in [0, X_t] and a
direction binary d, with f_ab <= X_t d and f_ba <= X_t (1 - d), so a link runs
one way per step. It maximises the sum of
duration * ((1 - r) p_dest - p_origin - r_b) * f over both flows. The margins
are written in another form than the scheduler's and HiGHS sums in its own
order, so totals agree within a stated tolerance, not bit for bit.
Without the binary the program is an LP that may run a link both ways at
once, and earns both margins where both are positive.

Variables are laid out as [f_ab | f_ba | d], one entry per (link, step) in each
block, and every constraint is a sparse row over them, so a limit that several
links share at one step is one more row.

Skipped where ``scipy`` cannot be imported.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdcarb import BiasPolicy, CapacityProfile, PriceSeries, schedule_link, schedule_portfolio
from test_scheduler import link_problem

try:
    import numpy as np
    from scipy import optimize, sparse
except ImportError:  # not installed, or a compiled build that does not load here
    pytest.skip("scipy cannot be imported", allow_module_level=True)

# HiGHS's default mip_rel_gap, 1e-4, can stop that far short of the optimum.
_OPTIONS = {"mip_rel_gap": 1e-12}
# Each side rounds a step's margins within a few units of 2**-53 of
# duration * X_t * (|p_a| + |p_b| + r_b), and its sum of n steps within n such
# units of their sum, the scale; the worst of 600 random 200-step programs was
# 4.2e-16 of it. HiGHS may also leave idle a flow whose cost, in EUR for its
# whole cap, is below its dual feasibility tolerance, 1e-7.
_UNIT = 2.0**-53
_DUAL_TOLERANCE = 1e-7


def margins_and_caps(problem):
    """The program's per-step margins into a and into b (after the bias), caps and
    error scale for one link's problem, as ``schedule_link`` takes it."""
    a, b, link, capacity, bias, duration_h = problem
    if a.region_id != link.endpoint_a:
        a, b = b, a
    r, r_b = link.loss_fraction, (bias or BiasPolicy()).r_b
    caps = capacity.values if capacity else (link.capacity_mw,) * len(a.prices)
    to_a = [(1 - r) * p_a - p_b - r_b for p_a, p_b in zip(a.prices, b.prices)]
    to_b = [(1 - r) * p_b - p_a - r_b for p_a, p_b in zip(a.prices, b.prices)]
    scale = sum(
        duration_h * x * (abs(p_a) + abs(p_b) + r_b)
        for p_a, p_b, x in zip(a.prices, b.prices, caps)
    )
    return to_a, to_b, list(caps), scale


def program_value(to_a, to_b, caps, duration_h, one_way=True):
    """The optimum of the dispatch program over every (link, step) listed.

    Each flow is its step's cap times a fraction in [0, 1], so every constraint
    coefficient is 1: HiGHS drops a coefficient below 1e-9, such as a tiny cap."""
    n = len(caps)
    if n == 0:
        return 0.0
    x = np.array(caps, dtype=float)
    # f_ab delivers into b; milp minimises, so the profit is negated
    c = -duration_h * np.concatenate([x * to_b, x * to_a, np.zeros(n)])
    constraints = []
    if one_way:  # f_ab <= X d and f_ba <= X (1 - d)
        eye = sparse.identity(n, format="csr")
        rows = sparse.bmat([[eye, None, -eye], [None, eye, eye]], format="csr")
        constraints.append(optimize.LinearConstraint(rows, -np.inf, np.repeat([0.0, 1.0], n)))
    result = optimize.milp(
        c,
        integrality=np.concatenate([np.zeros(2 * n), np.full(n, int(one_way))]),
        bounds=optimize.Bounds(0, 1),
        constraints=constraints,
        options=_OPTIONS,
    )
    assert result.success, result.message
    return -result.fun


def both_ways(to_a, to_b, caps, duration_h):
    """What running both ways adds where both margins are positive."""
    return sum(
        duration_h * x * min(a, b) for a, b, x in zip(to_a, to_b, caps) if a > 0 and b > 0
    )


def slack(scale, caps):
    """How far the program's value may lie from a schedule's total: 4 (n + 4)
    units of 2**-53 of the scale, and the dual tolerance on each of 2n flows."""
    return 4 * (len(caps) + 4) * _UNIT * scale + 2 * len(caps) * _DUAL_TOLERANCE


def assert_close(got, want, scale, caps):
    assert abs(got - want) <= slack(scale, caps), (got, want, scale)


@pytest.fixture(scope="module")
def year(bundle):
    """The bundled four links over 8760 hourly steps of seeded random prices in
    [-60, 200], two of them under random capacity profiles, with a bias: the
    portfolio's total, and every link's margins, caps and scale, joined link
    after link."""
    rng = random.Random(20221)
    steps = range(8760)
    network = bundle.network.with_prices(
        PriceSeries(region.id, ((t, rng.uniform(-60, 200)) for t in steps))
        for region in bundle.network.regions
    )
    links = sorted(network.interconnectors, key=lambda link: link.id)
    capacities = {
        link.id: CapacityProfile(
            link.id, ((t, rng.choice([0.0, rng.uniform(0, link.capacity_mw)])) for t in steps)
        )
        for link in links[:2]
    }
    to_a, to_b, caps, scale = [], [], [], 0.0
    for link in links:
        prices = map(network.prices_for, link.endpoints())
        a, b, x, s = margins_and_caps((*prices, link, capacities.get(link.id), BiasPolicy(2.0), 1.0))
        to_a, to_b, caps, scale = to_a + a, to_b + b, caps + x, scale + s
    total = schedule_portfolio(network, capacities, BiasPolicy(2.0)).grand_total
    return total, to_a, to_b, caps, scale


class TestYear:
    def test_the_portfolio_total_is_the_programs_optimum(self, year):
        total, to_a, to_b, caps, scale = year
        assert_close(program_value(to_a, to_b, caps, 1.0), total, scale, caps)

    def test_the_lp_runs_both_ways_where_both_margins_are_positive(self, year):
        total, to_a, to_b, caps, scale = year
        extra = both_ways(to_a, to_b, caps, 1.0)
        assert extra > 0  # the year has such steps, so the binary matters
        lp = program_value(to_a, to_b, caps, 1.0, one_way=False)
        assert lp > total
        assert_close(lp, total + extra, scale, caps)


_caps = st.one_of(st.sampled_from([0.0, 700.0]), st.floats(0, 1000))


@st.composite
def horizons(draw):
    """One link over about 200 steps. Hypothesis draws the link and a seed; the
    seed draws the prices, often negative, equal or zero, and the caps."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(180, 220)

    def price():
        return rng.choice([-40.0, -0.0, 0.0, 50.0, 100.0, rng.uniform(-100, 300)])

    p_a = [price() for _ in range(n)]
    p_b = [p if rng.random() < 0.3 else price() for p in p_a]  # ties
    caps = [rng.choice([0.0, 700.0, rng.uniform(0, 1000)]) for _ in range(n)]
    return link_problem(
        p_a,
        p_b,
        draw(st.sampled_from([0.0, -0.0, 0.0575, 0.5]) | st.floats(0, 0.999)),
        draw(st.sampled_from([None, caps])),
        draw(st.none() | st.floats(0, 20).map(BiasPolicy)),
        draw(st.sampled_from([0.25, 1.0]) | st.floats(0.1, 10)),
        draw(_caps),
    )


def _horizon_cases(test):
    for problem in (
        link_problem([-20.0, 100.0], [-30.0, 50.0], r=0.5),  # both margins positive
        link_problem([-0.0, 50.0], [0.0, -0.0], r=-0.0),
        link_problem([], []),
    ):
        test = example(problem)(test)
    return settings(max_examples=100)(given(horizons())(test))


class TestHorizons:
    @_horizon_cases
    def test_the_total_is_the_programs_optimum(self, problem):
        to_a, to_b, caps, scale = margins_and_caps(problem)
        total = schedule_link(*problem).total_profit
        assert_close(program_value(to_a, to_b, caps, problem[-1]), total, scale, caps)

    @_horizon_cases
    def test_the_lp_is_the_total_unless_both_margins_are_positive(self, problem):
        to_a, to_b, caps, scale = margins_and_caps(problem)
        duration_h = problem[-1]
        total = schedule_link(*problem).total_profit
        lp = program_value(to_a, to_b, caps, duration_h, one_way=False)
        extra = both_ways(to_a, to_b, caps, duration_h)
        assert lp >= total - slack(scale, caps)
        assert_close(lp, total + extra, scale, caps)  # so lp == total where extra == 0
