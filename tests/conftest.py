import json
import math
import random

import pytest
from hypothesis import HealthCheck, settings

from hvdcarb import (
    BiasPolicy,
    CapacityProfile,
    Interconnector,
    Network,
    PriceSeries,
    Region,
    load_case_study,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bundle():
    return load_case_study()


@pytest.fixture
def celtic():
    return Interconnector("celtic", "ireland", "france", 700.0, 0.0575, 575.0)


@pytest.fixture
def one_hour_prices():
    return {
        "ireland": PriceSeries("ireland", ((1, 100.0),)),
        "scotland": PriceSeries("scotland", ((1, 120.0),)),
        "wales": PriceSeries("wales", ((1, 75.0),)),
        "france": PriceSeries("france", ((1, 50.0),)),
    }


def random_link_instance(rng: random.Random, max_steps: int = 100):
    """One random scheduling instance matching the acceptance corpus ranges."""
    T = rng.randint(1, max_steps)
    timesteps = tuple(range(1, T + 1))
    prices_a = PriceSeries("a", tuple((t, rng.uniform(-50, 200)) for t in timesteps))
    prices_b = PriceSeries("b", tuple((t, rng.uniform(-50, 200)) for t in timesteps))
    link = Interconnector("ln", "a", "b", 1000.0, rng.uniform(0, 0.2))
    capacity = CapacityProfile("ln", tuple((t, rng.uniform(0, 1000)) for t in timesteps))
    bias = BiasPolicy(rng.uniform(0, 20))
    return prices_a, prices_b, link, capacity, bias


def tiny_network(price_a: float = 100.0, price_b: float = 100.0) -> Network:
    """Two regions, one lossless link, one timestep; equal prices by default."""
    return Network(
        (Region("a"), Region("b")),
        (Interconnector("ab", "a", "b", 100.0, 0.0),),
        (PriceSeries("a", ((1, price_a),)), PriceSeries("b", ((1, price_b),))),
    )


def over_steps(network: Network, steps: int) -> Network:
    """``network``'s regions and links priced over ``steps`` hourly steps: a daily
    sine per region, shifted by the region's position, so links dispatch both ways."""
    return network.with_prices(
        PriceSeries(
            region.id,
            tuple((t, 80.0 + 40.0 * math.sin(2 * math.pi * t / 24 + i)) for t in range(steps)),
        )
        for i, region in enumerate(network.regions)
    )


# Two hourly years that share no timestep.
DISJOINT_YEARS = (tuple(range(8760)), tuple(range(10_000, 18_760)))


def one_link_network(horizon_a, horizon_b) -> Network:
    """Regions a and b priced over the given timesteps, and one lossless link ab."""
    return Network(
        (Region("a"), Region("b")),
        (Interconnector("ab", "a", "b", 100.0, 0.0),),
        (
            PriceSeries("a", tuple((t, 2.0) for t in horizon_a)),
            PriceSeries("b", tuple((t, 1.0) for t in horizon_b)),
        ),
    )


# Region ids with whitespace at an edge, which both price readers strip.
EDGE_WHITESPACE_IDS = [" a", "a ", "\ta", "\x1fa", "a\xa0"]


def write_config_declaring(directory, region_id: str):
    """A hand-written config, and its price file, declaring regions ``region_id``
    and b joined by link ab; both files write the id as it is. Returns the
    config's path."""
    (directory / "prices.csv").write_text(
        f"timestep,region_id,price_eur_mwh\n0,{region_id},1.0\n0,b,2.0\n", encoding="utf-8"
    )
    quoted = json.dumps(region_id)  # a YAML double-quoted scalar
    config = directory / "network.yaml"
    config.write_text(
        f"regions:\n- id: {quoted}\n- id: b\nlinks:\n"
        f"- {{id: ab, from: {quoted}, to: b, capacity_mw: 1.0, loss_fraction: 0.0}}\n"
        "prices_csv: prices.csv\n",
        encoding="utf-8",
    )
    return config
