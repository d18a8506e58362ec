"""Seeded input generator for the benchmark workloads.

Everything here is derived from ``random.Random(seed)``: the same seed gives
byte-identical files. Prices carry a daily and a weekly shape, per-region
noise and occasional negative hours, so that both flow directions and idle
steps occur on every link. The generated values are also kept in memory,
where the checker reads them: the checker never reads them back through the
program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HOURS = 8760

# The bundled Irish study (network.yaml of the package), restated here so the
# checker's link parameters do not come from the program's own data files.
IRISH_REGIONS = ("ireland", "northern_ireland", "scotland", "wales", "france")
IRISH_LINKS = (
    ("moyle", "ireland", "scotland", 500.0, 0.00635),
    ("ewi", "ireland", "wales", 500.0, 0.0261),
    ("greenlink", "ireland", "wales", 500.0, 0.02),
    ("celtic", "ireland", "france", 700.0, 0.0575),
)
# Regions with a link; northern_ireland has none and gets no price series.
IRISH_PRICED = ("ireland", "scotland", "wales", "france")


@dataclass(frozen=True)
class Link:
    id: str
    a: str
    b: str
    capacity: float
    loss: float


@dataclass
class Inputs:
    """Generated data plus the files it was written to."""

    regions: tuple[str, ...]
    links: tuple[Link, ...]
    timesteps: tuple[int, ...]
    prices: dict[str, list[float]]
    files: dict[str, Path] = field(default_factory=dict)
    capacities: dict[str, list[float]] | None = None


def price_table(rng: random.Random, regions, timesteps) -> dict[str, list[float]]:
    """Hourly prices (EUR/MWh, two decimals) with daily/weekly shape and noise."""
    shapes = {
        r: (
            rng.uniform(35.0, 85.0),  # base level
            rng.uniform(8.0, 30.0),  # daily amplitude
            rng.uniform(0.0, 24.0),  # daily phase (hours)
            rng.uniform(3.0, 12.0),  # noise sd
        )
        for r in regions
    }
    table = {r: [] for r in regions}
    for t in timesteps:
        hour = t % 24
        weekend = (t // 24) % 7 >= 5
        common = rng.gauss(0.0, 6.0)
        for r in regions:
            base, amp, phase, sd = shapes[r]
            if rng.random() < 0.02:
                price = -rng.uniform(0.5, 40.0)
            else:
                price = (
                    base * (0.8 if weekend else 1.0)
                    + amp * math.sin(2 * math.pi * (hour + phase) / 24)
                    + common
                    + rng.gauss(0.0, sd)
                )
            table[r].append(round(price, 2) + 0.0)
    return table


def write_prices(path: Path, prices: dict[str, list[float]], timesteps) -> None:
    lines = ["timestep,region_id,price_eur_mwh"]
    regions = list(prices)
    for i, t in enumerate(timesteps):
        for r in regions:
            lines.append(f"{t},{r},{prices[r][i]!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_network(path: Path, regions, links, prices_csv: str | None) -> None:
    lines = ["regions:"]
    lines += [f"- id: {r}" for r in regions]
    lines.append("links:")
    for ln in links:
        lines += [
            f"- id: {ln.id}",
            f"  from: {ln.a}",
            f"  to: {ln.b}",
            f"  capacity_mw: {ln.capacity!r}",
            f"  loss_fraction: {ln.loss!r}",
        ]
    if prices_csv is not None:
        lines.append(f"prices_csv: {prices_csv}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def irish_links() -> tuple[Link, ...]:
    return tuple(Link(*row) for row in IRISH_LINKS)


def fleet(rng: random.Random, d: Path) -> Inputs:
    """A year of 32 links over 6 regions: every region pair carries two links, two carry three."""
    regions = tuple(f"area{i}" for i in range(6))
    pairs = [(a, b) for i, a in enumerate(regions) for b in regions[i + 1 :]]
    chosen = pairs * 2 + rng.sample(pairs, 32 - 2 * len(pairs))
    links = []
    for i, (a, b) in enumerate(chosen):
        if rng.random() < 0.5:
            a, b = b, a
        capacity = float(rng.randrange(300, 1450, 50))
        loss = round(rng.uniform(0.005, 0.06), 5)
        links.append(Link(f"link{i:02d}", a, b, capacity, loss))
    timesteps = tuple(range(HOURS))
    inputs = Inputs(regions, tuple(links), timesteps, price_table(rng, regions, timesteps))
    inputs.files["prices"] = d / "prices.csv"
    inputs.files["network"] = d / "network.yaml"
    write_prices(inputs.files["prices"], inputs.prices, timesteps)
    write_network(inputs.files["network"], regions, links, "prices.csv")
    return inputs


def irish(rng: random.Random, d: Path, steps: int, with_network: bool) -> Inputs:
    """The Irish four-link network over a generated hourly horizon.

    With ``with_network`` the network YAML is written too and references the
    prices; without it the run uses the bundled network and passes the
    prices with ``--prices``.
    """
    timesteps = tuple(range(steps))
    inputs = Inputs(
        IRISH_REGIONS, irish_links(), timesteps, price_table(rng, IRISH_PRICED, timesteps)
    )
    inputs.files["prices"] = d / "prices.csv"
    write_prices(inputs.files["prices"], inputs.prices, timesteps)
    if with_network:
        inputs.files["network"] = d / "network.yaml"
        write_network(inputs.files["network"], IRISH_REGIONS, inputs.links, "prices.csv")
    return inputs


def capacity_profiles(rng: random.Random, inputs: Inputs, d: Path) -> None:
    """Per-link dynamic capacity: rated most hours, derated or zero on some."""
    caps = {}
    for ln in inputs.links:
        row = []
        for _ in inputs.timesteps:
            u = rng.random()
            if u < 0.03:
                row.append(0.0)
            elif u < 0.25:
                row.append(float(rng.randrange(50, int(ln.capacity), 50)))
            else:
                row.append(ln.capacity)
        caps[ln.id] = row
    inputs.capacities = caps
    inputs.files["capacity"] = d / "capacity.json"
    inputs.files["capacity"].write_text(
        json.dumps({"timesteps": list(inputs.timesteps), "capacity_mw": caps}),
        encoding="utf-8",
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def describe(inputs: Inputs) -> dict:
    """Input descriptors: sizes and hashes of the generated data and files."""
    return {
        "regions": len(inputs.regions),
        "priced_regions": len(inputs.prices),
        "links": len(inputs.links),
        "steps": len(inputs.timesteps),
        "price_rows": len(inputs.prices) * len(inputs.timesteps),
        "files": {
            name: {"bytes": p.stat().st_size, "sha256": sha256(p)}
            for name, p in sorted(inputs.files.items())
        },
    }
