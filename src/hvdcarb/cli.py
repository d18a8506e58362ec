"""Command-line front door: evaluate, schedule, wheel, case-ireland, plot-data.

Batch-oriented: every command loads its inputs, computes, emits a
deterministic report, and exits. Exit codes: 0 success, 2 parse failure,
3 validation failure, 4 unresolvable reference.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from pathlib import Path

from .arbitrage import BiasPolicy, Direction, _check_duration, _check_loss, optimal_flow
# load_prices, write_report and validate_network are not called here;
# perfbench/tracer.py wraps each of them on cli by name.
from .dataio import (
    _plot_csv,
    _report,
    default_data_dir,
    load_case_study,
    load_network,
    load_prices,
    write_report,
)
from .errors import HvdcArbError, ParseError, ResolutionError
from .model import Network, validate_network
from .scheduler import extrapolate_annual, schedule_portfolio
from .wheeling import WheelScenario, WheelingChain, evaluate_wheel

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOLUTION = 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        return _fail(exc, EXIT_PARSE)
    except ResolutionError as exc:
        return _fail(exc, EXIT_RESOLUTION)
    except (HvdcArbError, ValueError) as exc:
        return _fail(exc, EXIT_VALIDATION)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvdcarb",
        allow_abbrev=False,
        description=(
            "Profit-optimal dispatch of lossy HVDC interconnectors from "
            "inter-area price spreads."
        ),
    )
    # Each option is declared once; a command takes the groups it reads, and no other.
    groups = [argparse.ArgumentParser(add_help=False) for _ in range(5)]
    inputs, bias, timestep, out, fmt = groups
    inputs.add_argument(
        "--network",
        type=Path,
        default=None,
        help="network config YAML (default: $HVDCARB_DATA_DIR/network.yaml "
        "or the bundled Irish study)",
    )
    inputs.add_argument(
        "--prices",
        type=Path,
        default=None,
        help="price CSV replacing the series referenced by the config",
    )
    inputs.add_argument(
        "--duration-hours",
        type=float,
        default=1.0,
        help="length of one timestep in hours (default 1)",
    )
    inputs.add_argument(
        "--from",
        dest="t_from",
        type=int,
        default=None,
        help="first timestep of the analysis horizon",
    )
    inputs.add_argument(
        "--to",
        dest="t_to",
        type=int,
        default=None,
        help="last timestep of the analysis horizon",
    )
    bias.add_argument(
        "--bias",
        type=float,
        default=0.0,
        help="minimum margin (EUR/MWh) required to dispatch; zero dispatches on "
        "any positive margin, which flips the link at full power for even "
        "negligible spreads, so set a bias to suppress low-return trades",
    )
    timestep.add_argument(
        "-t",
        "--timestep",
        type=int,
        default=None,
        help="timestep to evaluate (default: the first priced for the regions used)",
    )
    out.add_argument("--out", type=Path, default=None, help="write the report here")
    fmt.add_argument(
        "--format",
        choices=("csv", "structured"),
        default="csv",
        help="report format (default csv)",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser(
        "evaluate",
        allow_abbrev=False,
        parents=[inputs, bias, timestep],
        help="optimal flow for one link at one timestep",
    )
    p.add_argument("link", help="interconnector id")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser(
        "schedule",
        allow_abbrev=False,
        parents=[inputs, bias, out, fmt],
        help="optimal dispatch of every link over the horizon",
    )
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser(
        "wheel",
        allow_abbrev=False,
        parents=[inputs, timestep, out, fmt],
        help="3-area wheeling feasibility and profit at one timestep",
    )
    p.add_argument("area1", help="origin area id")
    p.add_argument("area2", help="transit area id")
    p.add_argument("area3", help="destination area id")
    p.add_argument(
        "--via",
        nargs=2,
        required=True,
        metavar=("LINK12", "LINK23"),
        help="link ids joining area1-area2 and area2-area3",
    )
    p.add_argument(
        "--transit-loss",
        type=float,
        default=0.0,
        help="loss fraction inside the transit area (default 0)",
    )
    p.add_argument(
        "--quantity", type=float, required=True, help="MW injected at the origin"
    )
    p.set_defaults(handler=_cmd_wheel)

    p = sub.add_parser(
        "case-ireland",
        allow_abbrev=False,
        parents=[out],
        help="reproduce the bundled Irish four-link study, reported vs computed",
    )
    p.add_argument(
        "--format",
        choices=("csv", "structured"),
        default="structured",
        help="report format for --out (default structured)",
    )
    p.set_defaults(handler=_cmd_case_ireland)

    p = sub.add_parser(
        "plot-data",
        allow_abbrev=False,
        parents=[inputs, bias, out],
        help="long-format CSV of per-step marginal value, dispatch, cumulative profit",
    )
    p.set_defaults(handler=_cmd_plotdata)

    return parser


def _load_run_network(args) -> Network:
    path = args.network if args.network is not None else default_data_dir() / "network.yaml"
    network = load_network(path, args.prices)  # validated before --from/--to, which keep it valid
    if args.t_from is not None or args.t_to is not None:
        network = network.with_prices(
            s.restricted(args.t_from, args.t_to) for s in network.price_series
        )
    _check_duration(args.duration_hours, "--duration-hours")
    return network


def _prices_at(network: Network, requested: int | None, regions) -> tuple[int, list[float]]:
    """The timestep (default: the first priced for ``regions``) and its prices."""
    t = requested
    if t is None:
        # Validated series are strictly increasing: each one starts at its minimum.
        used = [s for s in network.price_series if s.region_id in regions and s.timesteps]
        t = min((s.timesteps[0] for s in used), default=None)
        if t is None:
            raise ResolutionError(f"no priced timesteps for {', '.join(regions)}")
    prices = []
    for region_id in regions:
        try:
            prices.append(network.prices_for(region_id).price_at(t))
        except KeyError:
            raise ResolutionError(f"no price for region '{region_id}' at timestep {t}")
    return t, prices


def _emit(args, fragments: Iterable[str], summary: Iterable[str] = ()) -> None:
    """Print the summary's lines, then write a report's fragments as they are
    rendered: to ``--out`` or to the current ``sys.stdout``. ``--out`` is opened
    only now that the result is computed, and before anything is printed, so a
    refused computation creates no file and a refused ``--out`` prints nothing."""
    path = args.out
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as out:
        for line in summary:
            print(line)
        out.writelines(fragments)
    if path is not None:
        print(f"report written to {path}")


def _cmd_evaluate(args) -> int:
    network = _load_run_network(args)
    try:
        link = network.link(args.link)
    except KeyError:
        raise ResolutionError(f"unknown link '{args.link}'")
    t, prices = _prices_at(network, args.timestep, link.endpoints())
    decision = optimal_flow(
        *prices,
        link.loss_fraction,
        link.capacity_mw,
        BiasPolicy(args.bias).r_b,
        args.duration_hours,
        t,
    )
    print(f"link: {link.id}")
    print(f"timestep: {decision.timestep}")
    print(f"direction: {_describe_direction(decision.direction, link)}")
    print(f"quantity_mw: {decision.quantity_mw!r}")
    print(f"lambda_eur_mwh: {decision.marginal_value!r}")
    print(f"profit_eur: {decision.profit!r}")
    return EXIT_OK


def _describe_direction(direction: Direction, link) -> str:
    if direction is Direction.A_TO_B:
        return f"{direction.value} ({link.endpoint_a} -> {link.endpoint_b})"
    if direction is Direction.B_TO_A:
        return f"{direction.value} ({link.endpoint_b} -> {link.endpoint_a})"
    return direction.value


def _cmd_schedule(args) -> int:
    network = _load_run_network(args)
    result = schedule_portfolio(
        network, None, BiasPolicy(args.bias), args.duration_hours
    )
    summary = (
        f"links_scheduled: {len(result.schedules)}",
        f"grand_total_eur: {result.grand_total!r}",
        f"annualized_eur: {result.annualized!r}",
    )
    _emit(args, () if args.out is None else _report(result, args.format), summary)
    return EXIT_OK


def _cmd_wheel(args) -> int:
    network = _load_run_network(args)
    for area in (args.area1, args.area2, args.area3):
        try:
            network.region(area)
        except KeyError:
            raise ResolutionError(f"unknown region '{area}'")
    try:
        link12 = network.link(args.via[0])
        link23 = network.link(args.via[1])
    except KeyError as exc:
        raise ResolutionError(f"unknown link {exc}")
    # WheelingChain raises ValueError for a bad loss and for a broken path;
    # checking the loss first leaves only the path to the resolution error.
    _check_loss(args.transit_loss, "--transit-loss")
    try:
        chain = WheelingChain(
            args.area1, args.area2, args.area3, link12, link23, args.transit_loss
        )
    except ValueError as exc:
        raise ResolutionError(f"chain does not resolve: {exc}")
    t, prices = _prices_at(network, args.timestep, (args.area1, args.area2, args.area3))
    results = evaluate_wheel(chain, *prices, args.quantity, args.duration_hours)
    routes = {
        WheelScenario.S123: f"{args.area1} -> {args.area2} -> {args.area3}",
        WheelScenario.S321: f"{args.area3} -> {args.area2} -> {args.area1}",
    }
    summary = [f"timestep: {t}"]
    for r in results:
        summary += (
            f"scenario: {r.scenario.value} ({routes[r.scenario]})",
            f"  gate_a_eur_mwh: {r.gate_values[0]!r}",
            f"  gate_b_eur_mwh: {r.gate_values[1]!r}",
            f"  feasible: {str(r.feasible).lower()}",
            f"  dispatched_mw: {r.dispatched_mw!r}",
            f"  profit_eur: {r.profit!r}",
        )
    _emit(args, () if args.out is None else _report(results, args.format), summary)
    return EXIT_OK


def _cmd_case_ireland(args) -> int:
    bundle = load_case_study()
    result = schedule_portfolio(bundle.network, None, BiasPolicy(0.0), 1.0)
    expected_links = bundle.expected.get("links", {})
    expected_totals = bundle.expected.get("totals", {})
    annual = bundle.expected.get("annual", {})

    summary = [
        "Irish interconnector case study (one hour, zero bias)",
        "",
        f"{'link':<10} {'computed_eur':>13} {'reported_eur':>13} {'delta_eur':>10} status",
    ]
    rows = [
        (s.interconnector_id, s.total_profit, expected_links.get(s.interconnector_id, {}))
        for s in result.schedules
    ]
    rows.append(("total", result.grand_total, expected_totals))
    for name, computed, expected in rows:
        reported = expected.get("reported_eur")
        if reported is None:
            summary.append(f"{name:<10} {computed!r:>13} {'?':>13} {'?':>10} unchecked")
            continue
        delta = computed - reported
        status = "match" if abs(delta) < 0.005 else "delta"
        summary.append(f"{name:<10} {computed!r:>13} {reported!r:>13} {delta!r:>10} {status}")
    summary += ("", f"annualized_computed_eur: {result.annualized!r}")
    reported_total = expected_totals.get("reported_eur")
    if reported_total is not None:
        summary.append(f"annualized_reported_eur: {extrapolate_annual(reported_total)!r}")
    threshold = annual.get("claim_exceeds_eur")
    if threshold is not None:
        both = result.annualized > threshold and (
            reported_total is None or extrapolate_annual(reported_total) > threshold
        )
        summary.append(f"annual_income_exceeds_{threshold!r}_eur: {str(both).lower()}")
    report = () if args.out is None else _report(result, args.format, bundle.expected)
    _emit(args, report, summary)
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    network = _load_run_network(args)
    result = schedule_portfolio(
        network, None, BiasPolicy(args.bias), args.duration_hours
    )
    _emit(args, _plot_csv(result))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
