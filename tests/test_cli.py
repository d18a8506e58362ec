"""Command-line behavior: outputs, determinism, exit codes."""

import csv
import json
import math
import re
import shutil
import tracemalloc
from types import SimpleNamespace

import pytest

from hvdcarb import (
    Interconnector,
    Network,
    PortfolioResult,
    PriceSeries,
    Region,
    Schedule,
    save_network,
)
from hvdcarb import cli, dataio, scheduler
from hvdcarb.arbitrage import BiasPolicy
from hvdcarb.cli import main
from hvdcarb.dataio import PRICE_CSV_HEADER, default_data_dir, write_report
from hvdcarb.scheduler import schedule_portfolio
from hvdcarb.wheeling import WheelingChain, evaluate_wheel
from conftest import (
    DISJOINT_YEARS,
    EDGE_WHITESPACE_IDS,
    one_link_network,
    over_steps,
    tiny_network,
    write_config_declaring,
)
from fuzz_corpus import PRICE_MUTATIONS

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("HVDCARB_DATA_DIR", raising=False)


@pytest.fixture
def flat_network_dir(tmp_path):
    save_network(tiny_network(), tmp_path / "network.yaml")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_celtic_case_study(self, capsys):
        code, out, _ = run(capsys, "evaluate", "celtic", "-t", "1")
        assert code == 0
        assert "profit_eur: 30975.0" in out
        assert "lambda_eur_mwh: 44.25" in out
        assert "direction: B_to_A (france -> ireland)" in out

    def test_default_timestep_is_first(self, capsys):
        code, out, _ = run(capsys, "evaluate", "celtic")
        assert code == 0
        assert "timestep: 1" in out

    def test_default_timestep_is_the_smallest_first_timestep(self, capsys, tmp_path):
        # an unlinked region, declared first, starts after the linked ones
        network = Network(
            (Region("c"), Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("c", ((9, 1.0), (10, 1.0))),
                PriceSeries("a", ((5, 10.0), (6, 10.0))),
                PriceSeries("b", ((5, 30.0), (6, 10.0))),
            ),
        )
        save_network(network, tmp_path / "network.yaml")
        code, out, _ = run(
            capsys, "evaluate", "ab", "--network", str(tmp_path / "network.yaml")
        )
        assert code == 0
        assert "timestep: 5\n" in out

    def test_default_timestep_ignores_regions_the_link_does_not_use(self, capsys, tmp_path):
        # an unlinked region, declared first, is priced before the linked ones
        network = Network(
            (Region("c"), Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("c", ((2, 1.0), (3, 1.0))),
                PriceSeries("a", ((5, 10.0), (6, 10.0))),
                PriceSeries("b", ((5, 30.0), (6, 10.0))),
            ),
        )
        save_network(network, tmp_path / "network.yaml")
        code, out, err = run(
            capsys, "evaluate", "ab", "--network", str(tmp_path / "network.yaml")
        )
        assert (code, err) == (0, "")
        assert "timestep: 5\n" in out
        assert "profit_eur: 2000.0\n" in out

    def test_bias_above_margin_idles(self, capsys):
        code, out, _ = run(capsys, "evaluate", "celtic", "-t", "1", "--bias", "100")
        assert code == 0
        assert "direction: Idle" in out
        assert "profit_eur: 0.0" in out

    def test_equal_prices_idle(self, capsys, flat_network_dir):
        code, out, _ = run(
            capsys,
            "evaluate",
            "ab",
            "--network",
            str(flat_network_dir / "network.yaml"),
        )
        assert code == 0
        assert "direction: Idle" in out

    def test_a_loss_of_minus_zero_prints_what_the_schedule_writes(self, capsys, tmp_path):
        # with a loss of -0.0, prices -0.0 and 0.0 make the margin into a -0.0
        network = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, -0.0),),
            (PriceSeries("a", ((0, -0.0), (1, 50.0))), PriceSeries("b", ((0, 0.0), (1, -0.0)))),
        )
        config, report = tmp_path / "network.yaml", tmp_path / "plan.csv"
        save_network(network, config)
        code, out, _ = run(capsys, "evaluate", "ab", "-t", "0", "--network", str(config))
        assert code == 0
        evaluated = dict(line.split(": ", 1) for line in out.splitlines())
        assert run(capsys, "schedule", "--network", str(config), "--out", str(report))[0] == 0
        with open(report, newline="", encoding="utf-8") as f:
            (row,) = (row for row in csv.DictReader(f) if row["timestep"] == "0")
        printed = evaluated["lambda_eur_mwh"], evaluated["profit_eur"]
        assert printed == (row["lambda_eur_mwh"], row["profit_eur"]) == ("0.0", "0.0")

    def test_unknown_link_resolution_error(self, capsys):
        assert run(capsys, "evaluate", "nordlink") == (4, "", "error: unknown link 'nordlink'\n")

    def test_unknown_timestep_resolution_error(self, capsys):
        code, _, err = run(capsys, "evaluate", "celtic", "-t", "99")
        assert code == 4
        assert "timestep 99" in err

    def test_a_window_without_prices_resolution_error(self, capsys):
        assert run(capsys, "evaluate", "celtic", "--from", "100", "--to", "200") == (
            4, "", "error: no priced timesteps for ireland, france\n"
        )


class TestSchedule:
    def test_case_study_totals(self, capsys):
        code, out, _ = run(capsys, "schedule")
        assert code == 0
        assert "grand_total_eur: 63289.0" in out
        assert "annualized_eur: 554411640.0" in out

    def test_report_file_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "schedule", "--out", str(out1))[0] == 0
        assert run(capsys, "schedule", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0].startswith("timestep,link_id")

    def test_a_run_validates_its_inputs_once(self, capsys, tmp_path, monkeypatch):
        # once, with or without --prices, and before --from/--to restricts the series
        calls = []
        validate = dataio.validate_network
        monkeypatch.setattr(
            dataio,
            "validate_network",
            lambda network: calls.append(len(network.price_series[0].timesteps))
            or validate(network),
        )
        code, out, _ = run(capsys, "schedule", "--from", "1", "--to", "1")
        assert (code, calls) == (0, [1])
        assert "grand_total_eur: 63289.0\n" in out
        prices = tmp_path / "prices.csv"
        prices.write_text(
            (default_data_dir() / "prices.csv").read_text()
            + "".join(f"2,{r},1.0\n" for r in ("ireland", "scotland", "wales", "france"))
        )
        code, out, _ = run(capsys, "schedule", "--prices", str(prices), "--from", "1", "--to", "1")
        assert (code, calls) == (0, [1, 2])
        assert "grand_total_eur: 63289.0\n" in out

    def test_prices_are_validated_before_the_horizon_is_restricted(self, capsys, tmp_path):
        # b is not priced at t=0, which --from 1 would cut from both series
        network = Network(
            (Region("a"), Region("b")),
            (Interconnector("ab", "a", "b", 100.0, 0.0),),
            (
                PriceSeries("a", ((0, 10.0), (1, 30.0), (2, 50.0))),
                PriceSeries("b", ((1, 20.0), (2, 1.0))),
            ),
        )
        save_network(network, tmp_path / "n.yaml")
        config = ("schedule", "--network", str(tmp_path / "n.yaml"), "--from", "1")
        for argv in (config, (*config, "--prices", str(tmp_path / "prices.csv"))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.endswith(":\n- horizon mismatch: prices 'b' missing timesteps [0]\n")

    def test_disjoint_years_are_named_briefly(self, capsys, tmp_path):
        save_network(one_link_network(*DISJOINT_YEARS), tmp_path / "n.yaml")
        config, prices = tmp_path / "n.yaml", tmp_path / "prices.csv"
        code, out, err = run(capsys, "schedule", "--network", str(config), "--prices", str(prices))
        assert (code, out) == (3, "")
        heading = f"error: {config} and {prices}: inputs are invalid"
        assert err == heading + (
            ":\n- horizon mismatch: prices 'a' missing timesteps "
            "[10000, 10001, 10002, 10003, 10004, ...] (8760 in all); "
            "prices 'b' missing timesteps [0, 1, 2, 3, 4, ...] (8760 in all)\n"
        )
        assert len(err) - len(heading) < 300

    def test_prices_replace_a_missing_referenced_file(self, capsys, tmp_path):
        shutil.copy(default_data_dir() / "network.yaml", tmp_path / "network.yaml")
        prices = str(default_data_dir() / "prices.csv")
        code, out, _ = run(capsys, "schedule", "--network", str(tmp_path / "network.yaml"),
                           "--prices", prices)
        assert (code, out) == run(capsys, "schedule", "--prices", prices)[:2]
        assert code == 0
        code, out, err = run(capsys, "schedule", "--network", str(tmp_path / "network.yaml"))
        assert (code, out) == (2, "")
        assert "prices.csv" in err

    def test_single_link_network(self, capsys, tmp_path, bundle):
        net = bundle.network
        moyle_only = Network(net.regions, (net.link("moyle"),), net.price_series)
        save_network(moyle_only, tmp_path / "network.yaml")
        code, out, _ = run(
            capsys, "schedule", "--network", str(tmp_path / "network.yaml")
        )
        assert code == 0
        assert "grand_total_eur: 9619.0" in out

    def test_zero_capacity_network_idles(self, capsys, tmp_path, bundle):
        net = bundle.network
        dead = tuple(
            Interconnector(k.id, k.endpoint_a, k.endpoint_b, 0.0, k.loss_fraction)
            for k in net.interconnectors
        )
        save_network(Network(net.regions, dead, net.price_series), tmp_path / "network.yaml")
        code, out, _ = run(
            capsys, "schedule", "--network", str(tmp_path / "network.yaml")
        )
        assert code == 0
        assert "grand_total_eur: 0.0" in out

    def test_prices_override(self, capsys, tmp_path):
        prices = tmp_path / "prices.csv"
        rows = ["1,ireland,100.0", "1,scotland,100.0", "1,wales,100.0", "1,france,100.0"]
        prices.write_text(PRICE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        code, out, _ = run(capsys, "schedule", "--prices", str(prices))
        assert code == 0
        assert "grand_total_eur: 0.0" in out

    def test_malformed_prices_parse_error(self, capsys, tmp_path):
        prices = tmp_path / "prices.csv"
        prices.write_text("wrong,header\n")
        code, _, err = run(capsys, "schedule", "--prices", str(prices))
        assert code == 2
        assert "error:" in err

    def test_missing_network_file_parse_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "schedule", "--network", str(tmp_path / "nope.yaml")
        )
        assert code == 2
        assert "error:" in err and "nope.yaml" in err

    def test_invalid_network_validation_error(self, capsys, tmp_path):
        config = tmp_path / "network.yaml"
        config.write_text(
            "regions:\n- id: a\n- id: b\n"
            "links:\n- id: ab\n  from: a\n  to: b\n  capacity_mw: 10\n"
            "  loss_fraction: 1.0\n"
        )
        code, _, err = run(capsys, "schedule", "--network", str(config))
        assert code == 3
        assert "loss_fraction" in err

    def test_negative_bias_validation_error(self, capsys):
        code, _, err = run(capsys, "schedule", "--bias", "-1")
        assert code == 3
        assert "bias" in err


    def test_infinite_duration_validation_error(self, capsys):
        code, _, err = run(capsys, "schedule", "--duration-hours", "inf")
        assert code == 3
        assert "--duration-hours must be finite, got inf" in err

    @pytest.mark.parametrize("command", [["schedule"], ["evaluate", "celtic", "-t", "2"]])
    def test_overflowing_spread_validation_error(self, capsys, tmp_path, command):
        prices = tmp_path / "prices.csv"
        rows = [
            f"{t},{region},{price}"
            for t in (1, 2)
            for region, price in (
                ("ireland", 1e308), ("scotland", 100.0), ("wales", 100.0), ("france", -1e308)
            )
        ]
        prices.write_text(PRICE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, *command, "--prices", str(prices))
        assert code == 3
        assert out == ""
        assert "price spread at t=" in err and "is not finite" in err

    def test_empty_horizon_is_a_validation_error(self, capsys, tmp_path):
        report = tmp_path / "e.csv"
        code, out, err = run(capsys, "schedule", "--from", "7", "--to", "3", "--out", str(report))
        assert code == 3
        assert out == ""
        assert "horizon is empty" in err
        assert not report.exists()


@pytest.fixture
def overflow_network(tmp_path):
    """Finite prices, accepted by the loader, whose profits overflow."""
    network = Network(
        (Region("a"), Region("b"), Region("c")),
        (
            Interconnector("ab", "a", "b", 1000.0, 0.0),
            Interconnector("bc", "b", "c", 1000.0, 0.0),
        ),
        (
            PriceSeries("a", ((1, -1e308),)),
            PriceSeries("b", ((1, 1e300),)),
            PriceSeries("c", ((1, 1e308),)),
        ),
    )
    save_network(network, tmp_path / "network.yaml")
    return tmp_path / "network.yaml"


class TestProfitThatIsNotFinite:
    @pytest.mark.parametrize(
        "command, message",
        [
            (["schedule"], "profit at t=1 is not finite: p_a=-1e+308, p_b=1e+300"),
            (["evaluate", "ab"], "profit at t=1 is not finite: p_a=-1e+308, p_b=1e+300"),
            (["evaluate", "bc"], "profit at t=1 is not finite: p_a=1e+300, p_b=1e+308"),
            (["plot-data"], "profit at t=1 is not finite: p_a=-1e+308, p_b=1e+300"),
            (
                ["wheel", "a", "b", "c", "--via", "ab", "bc", "--quantity", "10"],
                "wheeling profit is not finite: origin price -1e+308, destination price 1e+308",
            ),
        ],
        ids=["schedule", "evaluate-ab", "evaluate-bc", "plot-data", "wheel"],
    )
    def test_is_a_validation_error_that_writes_nothing(
        self, capsys, tmp_path, overflow_network, command, message
    ):
        report = tmp_path / "report.csv"
        argv = [*command, "--network", str(overflow_network)]
        if command[0] != "evaluate":
            argv += ["--out", str(report)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}")
        assert "inf" not in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["schedule", "plot-data"])
    def test_a_grand_total_that_overflows_names_the_links(self, capsys, tmp_path, command):
        # each link's total is finite, their sum is not
        links = tuple(Interconnector(i, "a", "b", 1e300, 0.0) for i in ("l1", "l2"))
        prices = (PriceSeries("a", ((1, 1e8),)), PriceSeries("b", ((1, 0.0),)))
        save_network(Network((Region("a"), Region("b")), links, prices), tmp_path / "n.yaml")
        report = tmp_path / "report.csv"
        argv = [command, "--network", str(tmp_path / "n.yaml"), "--out", str(report)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: portfolio of links 'l1', 'l2': grand total profit is not finite\n"
        assert not report.exists()

    @pytest.mark.parametrize("command", ["schedule", "plot-data"])
    def test_an_annual_profit_that_overflows_names_the_link(self, capsys, tmp_path, command):
        # the link's total, 1e308, is finite; a year of it is not
        links = (Interconnector("l1", "a", "b", 1e300, 0.0),)
        prices = (PriceSeries("a", ((1, 1e8),)), PriceSeries("b", ((1, 0.0),)))
        save_network(Network((Region("a"), Region("b")), links, prices), tmp_path / "n.yaml")
        report = tmp_path / "report.csv"
        argv = [command, "--network", str(tmp_path / "n.yaml"), "--out", str(report)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: portfolio of links 'l1': annualised profit is not finite\n"
        assert not report.exists()


class TestErrorsNameTheirInput:
    def test_a_derived_loss_of_one_names_the_link(self, capsys, tmp_path):
        config = tmp_path / "network.yaml"
        config.write_text(
            "regions:\n- id: a\n- id: b\n"
            "links:\n- id: ab\n  from: a\n  to: b\n  capacity_mw: 10\n"
            "  length_km: 20000\n  loss_rate_per_100km: 0.01\n"
        )
        code, _, err = run(capsys, "schedule", "--network", str(config))
        assert code == 3
        assert err == (
            f"error: {config}: link 'ab': derived loss fraction 2.0 >= 1 for length "
            "20000 km at rate 0.01 per 100 km\n"
        )

    @pytest.mark.parametrize("replace_prices", [False, True])
    def test_a_violation_report_has_its_heading(self, capsys, tmp_path, replace_prices):
        network = tiny_network()
        lossy = Interconnector("ab", "a", "b", 100.0, 1.0)
        network = Network(network.regions, (lossy,), network.price_series)
        save_network(network, tmp_path / "network.yaml")
        config, prices = tmp_path / "network.yaml", tmp_path / "prices.csv"
        argv = ["schedule", "--network", str(config)]
        heading = f"{config}: network config is invalid"
        if replace_prices:
            argv += ["--prices", str(prices)]
            heading = f"{config} and {prices}: inputs are invalid"
        code, _, err = run(capsys, *argv)
        assert code == 3
        violation = "interconnector 'ab': loss_fraction must be in [0, 1), got 1.0"
        assert err == f"error: {heading}:\n- {violation}\n"


class TestColumnsBuiltOnRead:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = scheduler._schedule_columns

        def counting(*inputs):
            calls.append(inputs)
            return build(*inputs)

        monkeypatch.setattr(scheduler, "_schedule_columns", counting)
        return calls

    def test_totals_only_build_no_column(self, capsys, builds):
        code, out, _ = run(capsys, "schedule")
        assert code == 0
        assert "grand_total_eur: 63289.0\n" in out
        assert builds == []

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    def test_a_report_builds_each_link_once(self, capsys, tmp_path, builds, fmt):
        code, _, _ = run(capsys, "schedule", "--format", fmt, "--out", str(tmp_path / "r"))
        assert code == 0
        assert len(builds) == 4

    def test_plot_data_builds_each_link_once(self, capsys, builds):
        code, _, _ = run(capsys, "plot-data")
        assert code == 0
        assert len(builds) == 4


class TestWheel:
    WHEEL = (
        "wheel", "france", "ireland", "scotland",
        "--via", "celtic", "moyle",
        "--transit-loss", "0.01", "--quantity", "500", "-t", "1",
    )

    def test_france_to_scotland_wheel(self, capsys):
        code, out, _ = run(capsys, *self.WHEEL)
        assert code == 0
        gate_a = 120 * (1 - 0.00635) * 0.99 - 100
        gate_b = 100 * (1 - 0.0575) - 50
        profit = (120 * (1 - 0.0575) * (1 - 0.00635) * 0.99 - 50) * 500
        assert f"gate_a_eur_mwh: {gate_a!r}" in out
        assert f"gate_b_eur_mwh: {gate_b!r}" in out
        assert gate_b == 44.25
        assert "scenario: S123 (france -> ireland -> scotland)" in out
        assert out.count("feasible: true") == 1
        assert f"profit_eur: {profit!r}" in out

    def test_reversed_chain_mirrors(self, capsys):
        _, forward, _ = run(capsys, *self.WHEEL)
        code, backward, _ = run(
            capsys,
            "wheel", "scotland", "ireland", "france",
            "--via", "moyle", "celtic",
            "--transit-loss", "0.01", "--quantity", "500", "-t", "1",
        )
        assert code == 0

        def profits(text):
            return {
                line.split("(")[0].split(": ")[1].strip(): text.splitlines()[i + 5]
                for i, line in enumerate(text.splitlines())
                if line.startswith("scenario:")
            }

        fwd, bwd = profits(forward), profits(backward)
        assert fwd["S123"].split()[-1] == bwd["S321"].split()[-1]
        assert fwd["S321"].split()[-1] == bwd["S123"].split()[-1]

    def test_default_timestep_ignores_regions_the_chain_does_not_use(self, capsys, tmp_path):
        # an unlinked region, declared first, is priced before the three areas
        network = Network(
            tuple(map(Region, "dxyz")),
            (
                Interconnector("xy", "x", "y", 100.0, 0.0),
                Interconnector("yz", "y", "z", 100.0, 0.0),
            ),
            (
                PriceSeries("d", ((2, 1.0), (3, 1.0))),
                PriceSeries("x", ((5, 10.0), (6, 10.0))),
                PriceSeries("y", ((5, 20.0), (6, 20.0))),
                PriceSeries("z", ((5, 40.0), (6, 40.0))),
            ),
        )
        save_network(network, tmp_path / "network.yaml")
        code, out, err = run(
            capsys,
            "wheel", "x", "y", "z", "--via", "xy", "yz", "--quantity", "10",
            "--network", str(tmp_path / "network.yaml"),
        )
        assert (code, err) == (0, "")
        assert out.startswith("timestep: 5\n")
        assert "profit_eur: 300.0\n" in out

    def test_equal_prices_both_infeasible(self, capsys, tmp_path, bundle):
        prices = tmp_path / "prices.csv"
        rows = ["1,ireland,80.0", "1,scotland,80.0", "1,wales,80.0", "1,france,80.0"]
        prices.write_text(PRICE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        code, out, _ = run(capsys, *self.WHEEL, "--prices", str(prices))
        assert code == 0
        assert out.count("feasible: false") == 2

    def test_unresolvable_chain(self, capsys):
        code, _, err = run(
            capsys,
            "wheel", "france", "wales", "scotland",
            "--via", "celtic", "moyle", "--quantity", "10",
        )
        assert code == 4
        assert "does not resolve" in err

    @pytest.mark.parametrize("loss", ["nan", "1.5", "-0.1"])
    def test_bad_transit_loss_validation_error(self, capsys, loss):
        code, _, err = run(
            capsys,
            "wheel", "france", "ireland", "scotland",
            "--via", "celtic", "moyle", "--transit-loss", loss, "--quantity", "10",
        )
        assert code == 3
        assert f"--transit-loss must be in [0, 1), got {float(loss)}" in err

    def test_unknown_region(self, capsys):
        argv = ["wheel", "atlantis", "ireland", "scotland", "--via", "celtic", "moyle"]
        assert run(capsys, *argv, "--quantity", "10") == (
            4, "", "error: unknown region 'atlantis'\n"
        )

    def test_unknown_link(self, capsys):
        argv = ["wheel", "france", "ireland", "scotland", "--via", "nordlink", "moyle"]
        assert run(capsys, *argv, "--quantity", "10") == (
            4, "", "error: unknown link 'nordlink'\n"
        )

    def test_an_unknown_second_link_is_named_as_evaluate_names_it(self, capsys):
        argv = ["wheel", "france", "ireland", "scotland", "--via", "celtic", "o'neill"]
        assert run(capsys, *argv, "--quantity", "10") == (
            4, "", "error: unknown link 'o'neill'\n"
        )

    def test_capacity_error_names_binding_link(self, capsys):
        code, _, err = run(
            capsys,
            "wheel", "france", "ireland", "scotland",
            "--via", "celtic", "moyle", "--quantity", "600", "-t", "1",
        )
        assert code == 3
        assert "moyle" in err


class TestCaseIreland:
    def test_table_rows_and_flags(self, capsys):
        code, out, _ = run(capsys, "case-ireland")
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines() if line}
        assert lines["celtic"].split() == ["celtic", "30975.0", "30975.0", "0.0", "match"]
        assert lines["ewi"].split() == ["ewi", "11195.0", "11195.0", "0.0", "match"]
        assert lines["greenlink"].split() == [
            "greenlink", "11500.0", "11195.0", "305.0", "delta",
        ]
        assert lines["moyle"].split() == ["moyle", "9619.0", "9622.0", "-3.0", "delta"]
        assert lines["total"].split() == [
            "total", "63289.0", "61414.0", "1875.0", "delta",
        ]
        assert "annualized_computed_eur: 554411640.0" in out
        assert "annualized_reported_eur: 537986640.0" in out
        assert "annual_income_exceeds_525000000.0_eur: true" in out

    def test_a_link_without_a_reported_figure_is_unchecked(self, capsys, tmp_path, monkeypatch):
        shutil.copytree(default_data_dir(), tmp_path / "data")
        ledger = tmp_path / "data" / "expected.yaml"
        ledger.write_text(ledger.read_text().replace("    reported_eur: 9622.0\n", "", 1))
        monkeypatch.setenv("HVDCARB_DATA_DIR", str(tmp_path / "data"))
        code, out, _ = run(capsys, "case-ireland")
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines() if line}
        assert lines["moyle"].split() == ["moyle", "9619.0", "?", "?", "unchecked"]
        assert lines["total"].split() == ["total", "63289.0", "61414.0", "1875.0", "delta"]

    def test_deterministic_output(self, capsys):
        first = run(capsys, "case-ireland")
        second = run(capsys, "case-ireland")
        assert first == second

    @pytest.mark.parametrize(
        "ledger, message",
        [
            ("links: [a", "invalid YAML"),
            ("- 1\n- 2", "the root must be a mapping, got [1, 2]"),
            ("links: {celtic: 5}", "link 'celtic' must be a mapping, got 5"),
            ("links: [celtic]", "'links' must be a mapping"),
            ("links:", "'links' must be a mapping, got None"),
            ("totals: 61414.0", "'totals' must be a mapping"),
            ("annual: [8760]", "'annual' must be a mapping"),
            ("links: {celtic: {reported_eur: lots}}", "link 'celtic': 'reported_eur' must be"),
            ("totals: {reported_eur: true}", "'totals': 'reported_eur' must be a number"),
            ("annual: {claim_exceeds_eur: '5e8'}", "'annual': 'claim_exceeds_eur' must be"),
            ("totals: {reported_eur: .nan}", "'totals': 'reported_eur' must be finite and >= 0"),
            ("totals: {reported_eur: -5.0}", "'totals': 'reported_eur' must be finite and >= 0"),
            ("totals: {reported_eur: .inf}", "'totals': 'reported_eur' must be finite and >= 0"),
            ("links: {moyle: {reported_eur: .nan}}", "link 'moyle': 'reported_eur' must be finite"),
            ("links: {moyle: {reported_eur: -5.0}}", "link 'moyle': 'reported_eur' must be finite"),
            ("links: {moyle: {reported_eur: .inf}}", "link 'moyle': 'reported_eur' must be finite"),
            ("annual: {claim_exceeds_eur: -1}", "'annual': 'claim_exceeds_eur' must be finite"),
            ("links: {moyle: {computed_eur: .nan}}", "link 'moyle': 'computed_eur' must be finite"),
            ("links: {moyle: {computed_eur: .inf}}", "link 'moyle': 'computed_eur' must be finite"),
            ("links: {moyle: {computed_eur: -.inf}}", "link 'moyle': 'computed_eur' must be finite"),
            ("links: {moyle: {computed_eur: -5.0}}", "link 'moyle': 'computed_eur' must be finite"),
            ("totals: {computed_eur: .nan}", "'totals': 'computed_eur' must be finite and >= 0"),
            ("annual: {hours: .nan}", "'annual': 'hours' must be finite and >= 0, got nan"),
            ("annual: {hours: .inf}", "'annual': 'hours' must be finite and >= 0, got inf"),
            ("annual: {hours: -.inf}", "'annual': 'hours' must be finite and >= 0, got -inf"),
            ("annual: {hours: -1}", "'annual': 'hours' must be finite and >= 0, got -1"),
            ("note: 2020-01-01", "the root: unknown keys ['note']"),
            ("links: {moyle: {profit_eur: 1.0}}", "link 'moyle': unknown keys ['profit_eur']"),
            ("totals: {hours: 1, 7: 2, x: 3}", "'totals': unknown keys [7, 'x']"),
            ("links: {7: {reported_eur: 1.0}}", "'links': link id 7 must be a string"),
            ("links: {moyle: {computed_eur: yes}}", "'computed_eur' must be a number, got True"),
            pytest.param(
                f"totals: {{reported_eur: {10**400}}}",
                "'totals': 'reported_eur' must be finite and >= 0",
                id="int-too-large-for-a-float",
            ),
            pytest.param(
                "totals: {reported_eur: 1" + "0" * 5000 + "}",
                "invalid YAML: Exceeds the limit (4300 digits) for integer string conversion",
                id="int-too-long-to-convert",
            ),
        ],
    )
    def test_malformed_ledger_is_a_parse_error(
        self, capsys, tmp_path, monkeypatch, ledger, message
    ):
        for name in ("network.yaml", "prices.csv"):
            shutil.copy(default_data_dir() / name, tmp_path / name)
        (tmp_path / "expected.yaml").write_text(ledger)
        monkeypatch.setenv("HVDCARB_DATA_DIR", str(tmp_path))
        code, out, err = run(capsys, "case-ireland")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tmp_path / 'expected.yaml'}: ")
        assert message in err

    @pytest.mark.parametrize(
        "note", ["2020-01-01", "!!binary aGk=", "&a [*a]", "reviewed"],
        ids=["date", "binary", "cycle", "text"],
    )
    def test_a_ledger_with_a_note_is_refused_by_every_form(
        self, capsys, tmp_path, monkeypatch, note
    ):
        shutil.copytree(default_data_dir(), tmp_path / "data")
        ledger = tmp_path / "data" / "expected.yaml"
        ledger.write_text(ledger.read_text() + f"note: {note}\n")
        monkeypatch.setenv("HVDCARB_DATA_DIR", str(tmp_path / "data"))
        report = tmp_path / "case.out"
        for form in ([], ["--format", "csv", "--out", str(report)], ["--out", str(report)]):
            assert run(capsys, "case-ireland", *form) == (
                2, "", f"error: {ledger}: the root: unknown keys ['note']\n"
            )
            assert not report.exists()

    def test_structured_report_carries_expected(self, capsys, tmp_path):
        out_path = tmp_path / "case.json"
        code, _, _ = run(capsys, "case-ireland", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["expected"]["links"]["greenlink"]["computed_eur"] == 11500.0
        assert doc["grand_total_eur"] == 63289.0


    def test_csv_report(self, capsys, tmp_path, bundle):
        table = run(capsys, "case-ireland")[1]
        out_path = tmp_path / "case.csv"
        code, out, _ = run(capsys, "case-ireland", "--out", str(out_path), "--format", "csv")
        assert (code, out) == (0, table + f"report written to {out_path}\n")
        result = schedule_portfolio(bundle.network, None, BiasPolicy(0.0), 1.0)
        assert out_path.read_text() == write_report(result, "csv")


class TestPlotData:
    def test_case_study_shape(self, capsys):
        code, out, _ = run(capsys, "plot-data")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "timestep,link_id,lambda_eur_mwh,quantity_mw,cumulative_profit_eur"
        assert len(lines) == 5
        assert "1,celtic,44.25,700.0,30975.0" in lines

    def test_empty_horizon_is_a_validation_error(self, capsys):
        code, out, err = run(capsys, "plot-data", "--from", "7", "--to", "3")
        assert code == 3
        assert out == ""
        assert "horizon is empty" in err

    def test_sinusoidal_day(self, capsys, tmp_path):
        rows = []
        for t in range(1, 25):
            spread = 25 * math.sin(2 * math.pi * t / 24)
            rows.append(f"{t},ireland,{100 + spread!r}")
            rows.append(f"{t},scotland,{100 - spread!r}")
            rows.append(f"{t},wales,{100 - spread!r}")
            rows.append(f"{t},france,{100 + 2 * spread!r}")
        prices = tmp_path / "day.csv"
        prices.write_text(PRICE_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        code, out, _ = run(capsys, "plot-data", "--prices", str(prices))
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 96
        cumulative = {}
        for line in lines:
            _, link_id, _, _, running = line.split(",")
            assert float(running) >= cumulative.get(link_id, 0.0)
            cumulative[link_id] = float(running)


def reference_plot_csv(result) -> str:
    """The plot-data CSV built row by row, each link's profit summed from 0.0."""
    lines = ["timestep,link_id,lambda_eur_mwh,quantity_mw,cumulative_profit_eur"]
    for s in result.schedules:
        running = 0.0
        for t, quantity, lam, profit in zip(s.timesteps, s.quantities, s.lambdas, s.profits):
            running += profit
            lines.append(f"{t},{s.interconnector_id},{lam!r},{quantity!r},{running!r}")
    return "\n".join(lines) + "\n"


def streamed(capsys, tmp_path, fragments):
    """What ``_emit`` writes of the fragments ``fragments()`` to stdout, and to a file."""
    cli._emit(SimpleNamespace(out=None), fragments())
    out = capsys.readouterr().out
    path = tmp_path / "report"
    cli._emit(SimpleNamespace(out=path), fragments())
    assert capsys.readouterr().out == f"report written to {path}\n"
    return out, path.read_bytes()


def _empty_link():
    return PortfolioResult((Schedule("x", (), (), (), (), (), 0.0),), 0.0, 0.0)


def _many_rows(bundle):
    # more than one block of rows in every link
    return schedule_portfolio(over_steps(bundle.network, 2 * dataio._BLOCK_ROWS + 7))


def _wheeling(bundle):
    network = bundle.network
    chain = WheelingChain(
        "france", "ireland", "scotland", network.link("celtic"), network.link("moyle"), 0.01
    )
    return evaluate_wheel(chain, 50.0, 100.0, 120.0, 500.0)


class TestStreamedReports:
    """The bytes the command line streams are write_report's document."""

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda bundle: schedule_portfolio(bundle.network).schedules[0],
            lambda bundle: PortfolioResult((), 0.0, 0.0),
            lambda bundle: _empty_link(),
            _many_rows,
            _wheeling,
        ],
        ids=["schedule", "no-links", "empty-horizon-link", "many-rows", "wheeling"],
    )
    def test_equal_write_report(self, capsys, tmp_path, bundle, make, fmt):
        result = make(bundle)
        want = write_report(result, fmt)
        out, written = streamed(capsys, tmp_path, lambda: dataio._report(result, fmt))
        assert out == want
        assert written == want.encode("utf-8")

    def test_case_study_with_expected(self, capsys, tmp_path, bundle):
        result = schedule_portfolio(bundle.network)
        want = write_report(result, "structured", bundle.expected)
        out, written = streamed(
            capsys, tmp_path, lambda: dataio._report(result, "structured", bundle.expected)
        )
        assert out == want
        assert written == want.encode("utf-8")
        code, _, _ = run(capsys, "case-ireland", "--out", str(tmp_path / "case.json"))
        assert code == 0
        assert (tmp_path / "case.json").read_text(encoding="utf-8") == want

    @pytest.mark.parametrize(
        "make", [_many_rows, lambda bundle: _empty_link()], ids=["many-rows", "empty-link"]
    )
    def test_plot_data(self, capsys, tmp_path, bundle, make):
        result = make(bundle)
        want = reference_plot_csv(result)
        out, written = streamed(capsys, tmp_path, lambda: dataio._plot_csv(result))
        assert out == want
        assert written == want.encode("utf-8")

    def test_plot_data_stdout_is_its_out_file(self, capsys, tmp_path, bundle):
        network = over_steps(bundle.network, 2 * dataio._BLOCK_ROWS + 7)
        save_network(network, tmp_path / "network.yaml")
        inputs = ["--network", str(tmp_path / "network.yaml"), "--bias", "1"]
        code, out, _ = run(capsys, "plot-data", *inputs)
        assert code == 0
        assert out == reference_plot_csv(schedule_portfolio(network, bias=BiasPolicy(1.0)))
        code, _, _ = run(capsys, "plot-data", *inputs, "--out", str(tmp_path / "plot.csv"))
        assert code == 0
        assert (tmp_path / "plot.csv").read_text(encoding="utf-8") == out


class TestLinkIdsInCsvReports:
    """A link id that CSV would quote breaks the id rule, so the schedule and
    plot-data commands refuse it before they write a row; a valid id is written
    bare."""

    @staticmethod
    def config(tmp_path, link_id):
        network = over_steps(
            Network(
                (Region("a"), Region("b")),
                (Interconnector(link_id, "a", "b", 100.0, 0.01),),
            ),
            3,
        )
        save_network(network, tmp_path / "network.yaml")
        return str(tmp_path / "network.yaml")

    @pytest.mark.parametrize("command", ["schedule", "plot-data"])
    @pytest.mark.parametrize("link_id", ["x,y", 'say "hi"', "a\rb"])
    def test_an_id_csv_would_quote_is_refused(self, capsys, tmp_path, command, link_id):
        code, out, err = run(capsys, command, "--network", self.config(tmp_path, link_id))
        assert (code, out) == (3, "")
        assert f"interconnector id {link_id!r} breaks the id rule" in err

    @pytest.mark.parametrize("command", ["schedule", "plot-data"])
    def test_a_valid_id_is_written_bare(self, capsys, tmp_path, command):
        out = tmp_path / "report.csv"
        argv = ["--network", self.config(tmp_path, "ab"), "--out", str(out)]
        code, _, _ = run(capsys, command, *argv)
        assert code == 0
        with open(out, newline="", encoding="utf-8") as stream:
            header, *rows = csv.reader(stream)
        assert len(rows) == 3
        assert {len(row) for row in rows} == {len(header)}
        assert {row[header.index("link_id")] for row in rows} == {"ab"}
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith("0,ab,")


@pytest.mark.parametrize("region_id", EDGE_WHITESPACE_IDS)
def test_a_region_id_with_edge_whitespace_is_refused(capsys, tmp_path, region_id):
    # both price readers strip the id field, so such an id could not be read back
    config = write_config_declaring(tmp_path, region_id)
    code, out, err = run(capsys, "schedule", "--network", str(config))
    assert (code, out) == (3, "")
    assert f"region id {region_id!r} breaks the id rule" in err


def _streaming_peak(bundle, tmp_path, steps: int) -> tuple[int, int]:
    """tracemalloc's peak while a 4-link structured report over ``steps`` steps is
    streamed to a file, with its columns built beforehand, and the file's size."""
    result = schedule_portfolio(over_steps(bundle.network, steps))
    for schedule in result.schedules:
        schedule.directions  # builds the four step columns
    path = tmp_path / f"plan-{steps}.json"
    args = SimpleNamespace(out=path)
    tracemalloc.start()
    try:
        cli._emit(args, dataio._report(result, "structured"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, path.stat().st_size


class TestStreamingMemory:
    def test_a_year_streams_in_a_tenth_of_its_length(self, capsys, tmp_path, bundle):
        year, length = _streaming_peak(bundle, tmp_path, 8760)
        assert year < length / 10
        # a longer horizon streams in the same blocks
        two_years, _ = _streaming_peak(bundle, tmp_path, 2 * 8760)
        assert two_years <= 1.2 * year


WHEEL = ["wheel", "france", "ireland", "scotland", "--via", "celtic", "moyle", "--quantity", "500"]


def _wheel_report(network):
    link = network.link
    chain = WheelingChain("france", "ireland", "scotland", link("celtic"), link("moyle"), 0.01)
    prices = (network.prices_for(a).price_at(1) for a in ("france", "ireland", "scotland"))
    return write_report(evaluate_wheel(chain, *prices, 500.0, 2.0), "structured")


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "celtic", "-t", "1", "--out", "x"],
            ["evaluate", "celtic", "-t", "1", "--format", "csv"],
            [*WHEEL, "-t", "1", "--bias", "1"],
            ["plot-data", "--format", "structured", "--out", "x"],
        ],
    )
    def test_a_flag_the_command_does_not_read_is_rejected(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--form", "structured", "--o", "x"],
            ["plot-data", "--f", "1", "--t", "1", "--out", "x"],
            ["evaluate", "celtic", "--time", "1"],
            [*WHEEL[:-2], "--quant", "500", "-t", "1", "--out", "x"],
        ],
    )
    def test_an_abbreviated_flag_is_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, stdout, report",
        [
            (
                ["evaluate", "moyle", "-t", "1", "--bias", "1"],
                "link: moyle\ntimestep: 1\ndirection: A_to_B (ireland -> scotland)\n"
                "quantity_mw: 500.0\nlambda_eur_mwh: 18.238\nprofit_eur: 18238.0\n",
                None,
            ),
            (
                ["schedule", "--bias", "1", "--out", "r", "--format", "structured"],
                "links_scheduled: 4\ngrand_total_eur: 122178.0\n"
                "annualized_eur: 535139640.0\nreport written to r\n",
                lambda network: write_report(
                    schedule_portfolio(network, None, BiasPolicy(1.0), 2.0), "structured"
                ),
            ),
            (
                [*WHEEL, "--transit-loss", "0.01", "-t", "1", "--out", "r", "--format",
                 "structured"],
                "timestep: 1\n"
                "scenario: S123 (france -> ireland -> scotland)\n"
                "  gate_a_eur_mwh: 18.04562\n  gate_b_eur_mwh: 44.25\n  feasible: true\n"
                "  dispatched_mw: 500.0\n  profit_eur: 61257.996849999996\n"
                "scenario: S321 (scotland -> ireland -> france)\n"
                "  gate_a_eur_mwh: -53.34625\n  gate_b_eur_mwh: -20.63499999999999\n"
                "  feasible: false\n  dispatched_mw: 0.0\n  profit_eur: 0.0\n"
                "report written to r\n",
                _wheel_report,
            ),
            (
                ["plot-data", "--bias", "1", "--out", "r"],
                "report written to r\n",
                lambda network: "timestep,link_id,lambda_eur_mwh,quantity_mw,"
                "cumulative_profit_eur\n1,celtic,43.25,700.0,60550.0\n"
                "1,ewi,21.39,500.0,21390.0\n1,greenlink,22.0,500.0,22000.0\n"
                "1,moyle,18.238,500.0,18238.0\n",
            ),
        ],
    )
    def test_every_flag_the_command_keeps(
        self, capsys, tmp_path, monkeypatch, bundle, argv, stdout, report
    ):
        monkeypatch.chdir(tmp_path)
        data = default_data_dir()
        inputs = ["--network", str(data / "network.yaml"), "--prices", str(data / "prices.csv"),
                  "--duration-hours", "2", "--from", "1", "--to", "1"]
        assert run(capsys, *argv, *inputs) == (0, stdout, "")
        if report is not None:
            assert (tmp_path / "r").read_text() == report(bundle.network)


class TestUnreadableInput:
    def test_over_long_csv_field_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(f"{PRICE_CSV_HEADER}\n1,a,10.0\n1,{'x' * 200_000},5.0\n")
        code, out, err = run(capsys, "schedule", "--prices", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: line 3: field larger than field limit ({csv.field_size_limit()})\n"
        )

    @pytest.mark.parametrize("name", ["prices.csv", "network.yaml", "expected.yaml"])
    def test_a_byte_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path, monkeypatch, name):
        for each in ("network.yaml", "prices.csv", "expected.yaml"):
            shutil.copy(default_data_dir() / each, tmp_path / each)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff")
        monkeypatch.setenv("HVDCARB_DATA_DIR", str(tmp_path))
        code, out, err = run(capsys, "case-ireland")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ")


class TestDataDirOverride:
    def test_env_var_moves_the_default_network(self, capsys, tmp_path, monkeypatch, bundle):
        save_network(bundle.network, tmp_path / "network.yaml")
        monkeypatch.setenv("HVDCARB_DATA_DIR", str(tmp_path))
        code, out, _ = run(capsys, "schedule")
        assert code == 0
        assert "grand_total_eur: 63289.0" in out


def _hostile_price_files() -> dict[str, str]:
    """The bundled price file's mutations, and files the loader accepts that push
    the scheduler and the wheel to their edges."""
    base = (default_data_dir() / "prices.csv").read_text(encoding="utf-8")
    files = {name: mutate(base) for name, mutate, _ in PRICE_MUTATIONS}

    def hours(prices: dict[str, float], steps=(1, 2), skip=()) -> str:
        rows = [
            f"{t},{rid},{p!r}" for t in steps for rid, p in prices.items() if (t, rid) not in skip
        ]
        return "\n".join([PRICE_CSV_HEADER, *rows, ""])

    regions = {"ireland": 100.0, "scotland": 120.0, "wales": 75.0, "france": 50.0}
    # ireland - france overflows, so only celtic's spread does
    files["spread_overflows_on_one_link"] = hours({**regions, "ireland": 1e308, "france": -1e308})
    files["negative_zero_prices"] = hours(dict.fromkeys(regions, -0.0))
    files["a_region_missing_one_timestep"] = hours(regions, skip={(2, "wales")})
    files["empty_body"] = PRICE_CSV_HEADER + "\n"
    header, body = base.split("\n", 1)
    row, rest = body.split("\n", 1)
    price = "9" * 100_000
    files["a_100000_character_price"] = f"{header}\n{row.rpartition(',')[0]},{price}\n{rest}"
    files["a_100000_character_header"] = f"{'x' * 100_000}\n{body}"
    # a region id the run refuses: a repeated row, a row out of order, an undeclared region
    long_id = "r" * 100_000
    files["a_100000_character_region_repeated"] = f"{base}1,{long_id},1.0\n1,{long_id},2.0\n"
    files["a_100000_character_region_out_of_order"] = f"{base}2,{long_id},1.0\n1,{long_id},2.0\n"
    files["a_100000_character_region_undeclared"] = f"{base}1,{long_id},1.0\n"
    return files


_HOSTILE_PRICES = _hostile_price_files()
# A report holds no value that is not finite.
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


class TestHostilePriceFiles:
    """Every command over a hostile price file exits with a documented code."""

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["schedule"], None),
            (["schedule", "--out", "r.csv"], "r.csv"),
            (["schedule", "--format", "structured", "--out", "r.json"], "r.json"),
            (["plot-data", "--out", "p.csv"], "p.csv"),
            (["evaluate", "celtic"], None),
            (["wheel", "france", "ireland", "scotland", "--via", "celtic", "moyle",
              "--quantity", "400"], None),
        ],
        ids=["schedule", "schedule-csv", "schedule-structured", "plot-data", "evaluate", "wheel"],
    )
    @pytest.mark.parametrize("name", _HOSTILE_PRICES)
    def test_exit_code_is_documented_and_a_report_is_finite(
        self, capsys, tmp_path, monkeypatch, name, argv, out
    ):
        monkeypatch.chdir(tmp_path)
        text = _HOSTILE_PRICES[name]
        (tmp_path / "prices.csv").write_text(text, encoding="utf-8")
        code, stdout, err = run(capsys, *argv, "--prices", "prices.csv")
        assert code in (0, 2, 3, 4)
        assert len(err.encode()) < 1024
        if code == 0:
            assert not _NOT_FINITE.search(stdout)
            if out is not None:
                assert not _NOT_FINITE.search((tmp_path / out).read_text(encoding="utf-8"))
        else:
            assert stdout == "" and err.startswith("error: ")
