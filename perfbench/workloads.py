"""The benchmark's four workloads: inputs, the commands of one job, and checks.

Each job is a fixed list of commands run back to back from one driver, one
fresh process per command. Why each workload exists:

* fleet-year: 32 links over 6 regions for a year, totals only. Per-link
  scheduling and the arbitrage step dominate; parsing is small and no report
  is written, so report and ingest work is bypassed.
* year-reports: the bundled Irish network over a generated year, written as
  CSV, structured JSON and plot data. Report writing dominates time and
  memory; the three writers share decisions but emit them differently.
* point-queries: one-shot queries against a two-year price history that
  each command parses and validates in full to use a handful of rows.
  Start-up and ingest dominate; scheduling and reports are near zero.
* misaligned-capacity: a library driver with a dynamic capacity profile per
  link, scheduled aligned and then with one profile shifted by a step, which
  must raise AlignmentError. The only path with dynamic profiles; horizon
  alignment dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import gen


@dataclass
class Command:
    name: str
    argv: list[str]
    stdout: Callable[[str], str | None]
    out: str | None = None
    out_check: Callable[[str], str | None] | None = None


@dataclass
class Job:
    workload: str
    driver: str  # "cli": hvdcarb processes; "lib": the library driver
    commands: list[Command]
    descriptor: dict
    # (output a, output b, check of the pair)
    cross: list[tuple[str, str, Callable[[str, str], str | None]]] = field(default_factory=list)

    @property
    def entry(self) -> str:
        """The module a process of this workload imports first."""
        return "hvdcarb.cli" if self.driver == "cli" else "hvdcarb"


def exact(want: str) -> Callable[[str], str | None]:
    def compare(got: str) -> str | None:
        if got == want:
            return None
        return f"stdout {got[:300]!r}, want {want[:300]!r}"

    return compare


def _describe(inputs: gen.Inputs, bias: float, ref: check.Portfolio) -> dict:
    return {**gen.describe(inputs), "bias": bias, "direction_share": ref.direction_share()}


def fleet_year(seed: int, d: Path) -> Job:
    inputs = gen.fleet(random.Random(seed), d)
    ref = check.portfolio(inputs.links, inputs.prices, inputs.timesteps, 5.0)
    argv = ["schedule", "--network", str(inputs.files["network"]), "--bias", "5"]
    cmd = Command("schedule", argv, exact(check.schedule_stdout(ref)))
    return Job("fleet-year", "cli", [cmd], _describe(inputs, 5.0, ref))


def year_reports(seed: int, d: Path) -> Job:
    inputs = gen.irish(random.Random(seed), d, gen.HOURS, with_network=False)
    ref = check.portfolio(inputs.links, inputs.prices, inputs.timesteps, 5.0)
    common = ["--bias", "5", "--prices", str(inputs.files["prices"])]
    cmds = [
        Command(
            "schedule-csv",
            ["schedule", *common, "--out", "plan.csv"],
            exact(check.schedule_stdout(ref, "plan.csv")),
            "plan.csv",
            lambda text: check.check_schedule_csv(text, ref),
        ),
        Command(
            "schedule-structured",
            ["schedule", *common, "--format", "structured", "--out", "plan.json"],
            exact(check.schedule_stdout(ref, "plan.json")),
            "plan.json",
            lambda text: check.check_schedule_json(text, ref),
        ),
        Command(
            "plot-data",
            ["plot-data", *common, "--out", "plot.csv"],
            exact("report written to plot.csv\n"),
            "plot.csv",
            lambda text: check.check_plot(text, ref),
        ),
    ]
    return Job(
        "year-reports",
        "cli",
        cmds,
        _describe(inputs, 5.0, ref),
        [("plan.csv", "plan.json", check.check_csv_json_agree)],
    )


def point_queries(seed: int, d: Path) -> Job:
    rng = random.Random(seed)
    inputs = gen.irish(rng, d, 2 * gen.HOURS, with_network=True)
    network = ["--network", str(inputs.files["network"])]
    prices, steps = inputs.prices, len(inputs.timesteps)
    links = {ln.id: ln for ln in inputs.links}
    cmds = []
    for link_id in rng.sample(sorted(links), 3):
        ln, t = links[link_id], rng.randrange(steps)
        want = check.evaluate_stdout(ln, t, prices[ln.a][t], prices[ln.b][t])
        cmds.append(Command(f"evaluate-{link_id}", ["evaluate", link_id, "-t", str(t), *network], exact(want)))

    areas = ("france", "ireland", "scotland")
    r1, r2, c, x = links["celtic"].loss, links["moyle"].loss, 0.01, 400.0
    outcomes = [
        check.wheel_outcome(*(prices[a][t] for a in areas), r1, r2, c, x) for t in range(steps)
    ]
    feasible = [t for t, o in enumerate(outcomes) if o[0][2] or o[1][2]]
    for label, hours in (("feasible", feasible), ("infeasible", sorted(set(range(steps)) - set(feasible)))):
        t = rng.choice(hours)
        argv = [
            "wheel", *areas, "--via", "celtic", "moyle", "--transit-loss", str(c),
            "--quantity", "400", "-t", str(t), *network,
        ]
        cmds.append(Command(f"wheel-{label}", argv, exact(check.wheel_stdout(areas, t, outcomes[t]))))

    t = rng.randrange(steps - 23)
    day = check.portfolio(inputs.links, prices, inputs.timesteps, 0.0, lo=t, hi=t + 23)
    argv = ["schedule", *network, "--from", str(t), "--to", str(t + 23)]
    cmds.append(Command("schedule-day", argv, exact(check.schedule_stdout(day))))
    cmds.append(Command("case-ireland", ["case-ireland"], check.check_case_ireland))

    ref = check.portfolio(inputs.links, prices, inputs.timesteps, 0.0)
    return Job("point-queries", "cli", cmds, _describe(inputs, 0.0, ref))


def misaligned_capacity(seed: int, d: Path) -> Job:
    rng = random.Random(seed)
    inputs = gen.irish(rng, d, gen.HOURS, with_network=True)
    gen.capacity_profiles(rng, inputs, d)
    # Always the last link in id order, so every seed schedules the same
    # three aligned links before the failing one.
    shifted = max(inputs.links, key=lambda ln: ln.id)
    ref = check.portfolio(inputs.links, inputs.prices, inputs.timesteps, 5.0, inputs.capacities)
    argv = [str(inputs.files["network"]), str(inputs.files["capacity"]), "driver.json", shifted.id]
    cmd = Command(
        "driver",
        argv,
        exact(""),
        "driver.json",
        lambda text: check.check_misaligned(
            text, ref, shifted.id, (shifted.a, shifted.b), inputs.timesteps
        ),
    )
    descriptor = {**_describe(inputs, 5.0, ref), "shifted_link": shifted.id}
    return Job("misaligned-capacity", "lib", [cmd], descriptor)


WORKLOADS = {
    "fleet-year": fleet_year,
    "year-reports": year_reports,
    "point-queries": point_queries,
    "misaligned-capacity": misaligned_capacity,
}
