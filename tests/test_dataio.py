"""File ingestion, report emission, round-trips, and mutation fuzzing."""

import csv
import io
import json
import math
import re

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvdcarb import (
    ConfigConflictError,
    Direction,
    DuplicateRowError,
    Interconnector,
    PriceSeries,
    Network,
    ParseError,
    PortfolioResult,
    Region,
    Schedule,
    ValidationError,
    WheelingResult,
    WheelScenario,
    evaluate_wheel,
    load_case_study,
    load_network,
    load_prices,
    save_network,
    schedule_portfolio,
    write_report,
)
from hvdcarb import dataio, model
from hvdcarb.dataio import (
    PRICE_CSV_HEADER,
    default_data_dir,
    network_to_yaml,
    prices_to_csv,
)
from conftest import over_steps, tiny_network
from fuzz_corpus import CONFIG_MUTATIONS, PARSE_ERRORS, PRICE_MUTATIONS, mutated_config
from test_wheeling import make_chain

CASE_CSV = """timestep,region_id,price_eur_mwh
1,ireland,100.0
1,scotland,120.0
1,wales,75.0
1,france,50.0
"""


class TestLoadPrices:
    def test_case_study_levels(self):
        series = load_prices(io.StringIO(CASE_CSV))
        assert set(series) == {"ireland", "scotland", "wales", "france"}
        assert series["ireland"].price_at(1) == 100.0
        assert series["scotland"].price_at(1) == 120.0
        assert series["wales"].price_at(1) == 75.0
        assert series["france"].price_at(1) == 50.0

    def test_header_only_gives_empty_set(self):
        assert load_prices(io.StringIO(PRICE_CSV_HEADER + "\n")) == {}

    def test_nan_price_rejected_with_line(self):
        bad = CASE_CSV.replace("1,wales,75.0", "1,wales,NaN")
        with pytest.raises(ParseError, match="line 4"):
            load_prices(io.StringIO(bad))

    def test_duplicate_row_rejected(self):
        with pytest.raises(DuplicateRowError, match="line 6"):
            load_prices(io.StringIO(CASE_CSV + "1,france,51.0\n"))

    def test_out_of_order_rejected(self):
        bad = CASE_CSV + "3,france,51.0\n2,france,52.0\n"
        with pytest.raises(ParseError, match="out of order"):
            load_prices(io.StringIO(bad))

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            load_prices(io.StringIO("t,region,price\n1,a,2.0\n"))

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError, match="3 fields"):
            load_prices(io.StringIO(PRICE_CSV_HEADER + "\n1,a\n"))

    def test_from_path(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(CASE_CSV)
        assert load_prices(path)["france"].price_at(1) == 50.0

    def test_a_refused_file_is_named_with_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(CASE_CSV + "1,france,51.0\n")
        with pytest.raises(DuplicateRowError) as err:
            load_prices(path)
        assert str(err.value) == f"{path}: line 6: duplicate timestep 1 for region 'france'"
        assert err.value.line == 6

    def test_rows_are_numbered_by_the_lines_csv_reads(self):
        # a quoted field on lines 2-3, then a bad row on line 4
        with pytest.raises(ParseError) as err:
            load_prices(io.StringIO(_csv('0,"a\nb",1.0', "1,a,cheap")))
        assert str(err.value) == "stream: line 4: price 'cheap' is not a number"
        assert err.value.line == 4
        # a bad row that spans lines 2-3 is named by its last line
        with pytest.raises(ParseError) as err:
            load_prices(io.StringIO(_csv('0,"a\nb",cheap')))
        assert err.value.line == 3


def row_by_row_prices(text: str) -> dict[str, tuple[tuple[int, ...], tuple[float, ...]]]:
    """Reference reader: the price CSV parsed and checked one row at a time."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PRICE_CSV_HEADER:
        raise ParseError(
            f"expected header '{PRICE_CSV_HEADER}', got "
            f"{lines[0].strip() if lines else '<empty file>'!r}",
            line=1,
        )
    steps: dict[str, list[tuple[int, float]]] = {}
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    for offset, row in enumerate(reader):
        lineno = offset + 2
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        raw_t, region_id, raw_price = (field.strip() for field in row)
        try:
            t = int(raw_t)
        except ValueError:
            raise ParseError(f"timestep {raw_t!r} is not an integer", line=lineno)
        if t < 0:
            raise ParseError(f"timestep {t} is negative", line=lineno)
        if not region_id:
            raise ParseError("empty region_id", line=lineno)
        try:
            price = float(raw_price)
        except ValueError:
            raise ParseError(f"price {raw_price!r} is not a number", line=lineno)
        if not math.isfinite(price):
            raise ParseError(f"price {raw_price!r} is not finite", line=lineno)
        series = steps.setdefault(region_id, [])
        if series:
            last_t = series[-1][0]
            if t == last_t:
                raise DuplicateRowError(
                    f"duplicate timestep {t} for region '{region_id}'", line=lineno
                )
            if t < last_t:
                raise ParseError(
                    f"timestep {t} for region '{region_id}' is out of order "
                    f"(last was {last_t})",
                    line=lineno,
                )
        series.append((t, price))
    return {
        rid: (tuple(t for t, _ in s), tuple(p for _, p in s)) for rid, s in steps.items()
    }


_ODD_TIMESTEPS = ["1_000", "+5", " 7 ", "-1", "1.5", "x", "", "\u0663", "\u20037", "\x1f3"]
_ODD_PRICES = [
    "nan", "inf", "-inf", "1e309", "1e308", "-1e308", " 50.5 ", "1_0.5",
    "cheap", "", "+5", "\xa01.0",
]
_ODD_REGIONS = ["", " ", " a", "a ", "\tb", "\x1fa"]
_price_cells = st.one_of(
    st.floats(-200, 200).map(repr), st.sampled_from(["1e308", "1.7e308", "-0.0"])
)


@st.composite
def price_csv_texts(draw):
    """Price CSVs, mostly well formed, with the quirks a row reader meets."""
    regions = draw(st.lists(st.sampled_from(["a", "b", "ireland"]), min_size=1, max_size=3, unique=True))
    start = draw(st.integers(0, 3))
    timesteps = range(start, start + draw(st.integers(0, 6)))
    # Each region may cover the next stretch of time instead of the same one.
    shift = draw(st.sampled_from([0, len(timesteps)]))
    rows = [
        [str(t + shift * j), r, draw(_price_cells)]
        for t in timesteps
        for j, r in enumerate(regions)
    ]
    if draw(st.booleans()):  # region-blocked instead of interleaved
        rows.sort(key=lambda row: regions.index(row[1]))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        kind = draw(
            st.sampled_from(
                ["timestep", "price", "region", "fields", "quote", "blank", "swap", "repeat"]
            )
        )
        if kind == "blank" or not rows:
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
            continue
        row = list(rows[i])
        if kind == "timestep":
            row[0] = draw(st.sampled_from(_ODD_TIMESTEPS))
        elif kind == "price":
            row[2] = draw(st.sampled_from(_ODD_PRICES))
        elif kind == "region":
            row[1] = draw(st.sampled_from(_ODD_REGIONS))
        elif kind == "fields":
            row = row[:2] if draw(st.booleans()) else row + ["9"]
        elif kind == "quote":
            k = draw(st.integers(0, 2))
            row[k] = f'"{row[k]}"'
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        else:
            lines.insert(i, lines[i])
            continue
        lines[i] = ",".join(row)
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return sep.join([PRICE_CSV_HEADER, *lines]) + draw(st.sampled_from(["", sep]))


def _csv(*rows: str, sep: str = "\n") -> str:
    return sep.join([PRICE_CSV_HEADER, *rows]) + sep


class TestBulkIngestMatchesRowByRow:
    @settings(max_examples=400)
    @given(price_csv_texts())
    @example(_csv("0,a,1.0", "0,b,2.0", "1,a,3.0", "1,b,4.0"))  # interleaved
    @example(_csv("0,a,1.0", "1,a,3.0", "0,b,2.0", "1,b,4.0"))  # region-blocked
    @example(_csv("0,a,1.0", "1,a,3.0", "2,b,2.0", "3,b,4.0"))
    @example(_csv("0,a,1.0", "1,a,3.0", "2,a,5.0", "0,b,2.0"))  # blocked, apart
    @example(_csv("0,a,1.0", "0,b,2.0", "1,a,3.0"))  # a returns after b
    @example(_csv("1,a,1.0", "0,a,3.0", "0,b,2.0"))  # blocked, out of order
    @example(_csv("0,a,1.0", "0,b,2.0", "1,b,4.0", "1,a,3.0"))  # neither
    @example(_csv("5,a,1.0", "05,b,2.0", "6,a,3.0", "6,b,4.0"))  # same steps, spelt apart
    @example(_csv("0,a,1.0", "0,b,2.0", "1,a,3.0", "2,b,4.0"))  # interleaved, apart
    @example(_csv('0,"a",1.0', "1,a,2.0"))
    @example(_csv(' 0 , a , 1.0 ', "1,\ta,2.0"))
    @example(_csv("0,a,1.0", "", "1,a,2.0"))
    @example(_csv("0,a,1.0", "   ", "1,a,2.0"))
    @example(_csv("0,a,1.0", "1,a,2.0", sep="\r\n"))
    @example(_csv("0,a,1.0", "1,a,2.0", sep="\r"))
    @example(_csv("1_000,a,1.0", "+5,b,2.0"))
    @example(_csv("0,a,nan"))
    @example(_csv("0,a,inf"))
    @example(_csv("0,a,1e309"))
    @example(_csv("0,a,1e308", "1,a,1e308"))  # finite prices, overflowing sum
    @example(_csv("-1,a,1.0"))
    @example(_csv("0,a,1.0", "0,a,2.0"))
    @example(_csv("1,a,1.0", "0,a,2.0"))
    @example(_csv("0, ,1.0"))
    @example(_csv("0,a"))
    @example(_csv("0,a,1.0,2"))
    @example(_csv("0,a,1.0,2", "a,3.0"))  # 4 + 2 fields: 6 in total
    @example(_csv("0,a\x00b,1.0"))
    @example(_csv())
    @example("")
    @example("t,region,price\n0,a,1.0\n")
    def test_columns_and_errors_match(self, text):
        try:
            expected = row_by_row_prices(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_prices(io.StringIO(text))
            assert type(err.value) is type(exc)
            assert str(err.value) == f"stream: {exc}"
            assert err.value.line == exc.line
            return
        got = load_prices(io.StringIO(text))
        assert list(got) == list(expected)
        for rid, (timesteps, prices) in expected.items():
            assert got[rid].region_id == rid
            assert repr(got[rid].timesteps) == repr(timesteps)
            assert repr(got[rid].prices) == repr(prices)

    def test_over_long_field_is_a_parse_error_with_its_line(self):
        text = _csv("0,a,1.0", "1,a" + "a" * csv.field_size_limit() + ",1.0")
        with pytest.raises(csv.Error):
            row_by_row_prices(text)  # the csv module refuses the field
        with pytest.raises(ParseError) as err:
            load_prices(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value) == (
            f"stream: line 3: field larger than field limit ({csv.field_size_limit()})"
        )

    def test_written_file_is_read_as_columns_and_written_back_byte_identical(
        self, monkeypatch
    ):
        series = [
            PriceSeries(rid, tuple((t, t / 7 - 3.0) for t in range(start, stop)))
            for rid, start, stop in (("a", 0, 5), ("b", 0, 5), ("c", 2, 4))
        ]
        text = prices_to_csv(series)
        monkeypatch.setattr(
            dataio, "_load_price_rows", lambda lines: pytest.fail("read row by row")
        )
        loaded = load_prices(io.StringIO(text))
        assert list(loaded.values()) == series
        assert prices_to_csv(loaded.values()) == text
        assert loaded["a"].timesteps is loaded["b"].timesteps

    def test_loaded_series_equal_series_built_from_steps(self):
        got = load_prices(io.StringIO(_csv("0,a,1.0", "0,b,2.0", "1,a,3.0", "1,b,4.0")))
        assert got == {
            "a": PriceSeries("a", ((0, 1.0), (1, 3.0))),
            "b": PriceSeries("b", ((0, 2.0), (1, 4.0))),
        }


class TestSharedTimesteps:
    def test_regions_of_a_regular_file_share_one_timesteps_tuple(self):
        text = _csv(*(f"{t},{r},{t}.5" for t in range(4) for r in "abc"))
        series = load_prices(io.StringIO(text))
        a, b, c = series.values()
        assert a.timesteps == (0, 1, 2, 3)
        assert a.timesteps is b.timesteps is c.timesteps
        assert [s.violations() for s in series.values()] == [[], [], []]

    def test_timesteps_spelt_differently_load_like_the_row_reader(self):
        text = _csv("5,a,1.0", "05,b,2.0", "6,a,3.0", " 6,b,4.0", "7,a,5.0", "7,b,6.0")
        series = load_prices(io.StringIO(text))
        expected = row_by_row_prices(text)
        assert {rid: (s.timesteps, s.prices) for rid, s in series.items()} == expected
        assert series["a"].timesteps == series["b"].timesteps == (5, 6, 7)
        assert series["a"] == PriceSeries("a", ((5, 1.0), (6, 3.0), (7, 5.0)))

    def test_each_series_is_checked_once_from_load_to_schedule(self, monkeypatch, tmp_path):
        network = Network(
            tuple(map(Region, "abc")),
            (Interconnector("ab", "a", "b", 10.0, 0.0), Interconnector("bc", "b", "c", 5.0, 0.1)),
        )
        (tmp_path / "network.yaml").write_text(network_to_yaml(network, "prices.csv"))
        (tmp_path / "prices.csv").write_text(
            _csv(*(f"{t},{r},{(t * 7 + ord(r)) % 11}.5" for t in range(20) for r in "abc"))
        )
        calls = []
        check = model._strictly_increasing
        monkeypatch.setattr(
            model, "_strictly_increasing", lambda ts: calls.append(ts) or check(ts)
        )
        loaded = load_network(tmp_path / "network.yaml")
        schedule_portfolio(loaded)
        a, b, c = loaded.price_series
        assert a.timesteps is b.timesteps is c.timesteps  # read as whole columns
        assert calls == [a.timesteps] * 3


def yaml_corpus() -> dict[str, str]:
    """The bundled YAML files, each config mutation, and hostile documents."""
    directory = default_data_dir()
    base = yaml.safe_load((directory / "network.yaml").read_text())
    texts = {
        name: (directory / name).read_text() for name in ("network.yaml", "expected.yaml")
    }
    for name, mutate, _ in CONFIG_MUTATIONS:
        texts[name] = yaml.safe_dump(mutated_config(base, mutate), sort_keys=False)
    texts.update(
        {
            "unclosed_flow": "regions: [a, b",
            "nested_mapping_value": "a: b: c",
            "tab_indent": "\tregions: []",
            "unterminated_quote": "key: 'open",
            "list_then_mapping": "- a\nb: c",
            "python_tag": "!!python/object:os.system x",
            "undefined_alias": "a: &x 1\nb: *y",
            "control_character": "x: \x07",
            "yaml_2": "%YAML 2.0\n---\na: 1",
            "two_documents": "a: 1\n---\nb: 2",
            "duplicate_keys": "{a: 1, a: 2}",
            "aliases": "a: &x [1, 2]\nb: *x",
            "scalars": "a: [yes, off, ~, 1_000, 0o17, 0x1f, .inf, -.NaN, 2001-12-14, 1e3]",
            "unicode": "name: \"\\u00e9ire\\U0001F600\"\nother: ñ",
            "block_scalars": "a: |\n  one\n  two\nb: >-\n  three\n  four\n",
            "empty": "",
            "null": "~",
            "int_too_long_to_convert": "capacity_mw: 1" + "0" * 5000,
            "nested_600_deep": "regions: " + "[" * 600 + "]" * 600,
        }
    )
    return texts


_YAML_CORPUS = yaml_corpus()


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoaders:
    def test_the_libyaml_loader_is_used(self):
        assert dataio._YAML_LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("text", _YAML_CORPUS.values(), ids=_YAML_CORPUS.keys())
    def test_both_loaders_give_the_same_document_or_a_parse_error(self, text, monkeypatch):
        """Only the pure-Python loader may fail where libyaml reads the document:
        by nesting deeper than the recursion limit, which is a ParseError too."""
        outcomes = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            try:
                outcomes.append(repr(yaml.load(text, Loader=loader)))
            except (yaml.YAMLError, ValueError, RecursionError) as exc:
                monkeypatch.setattr(dataio, "_YAML_LOADER", loader)
                with pytest.raises(ParseError, match="^stream: invalid YAML: "):
                    load_network(io.StringIO(text))
                outcomes.append(RecursionError if isinstance(exc, RecursionError) else ParseError)
        assert outcomes[0] in (outcomes[1], RecursionError)


def write_two_region_config(tmp_path, link_lines: str):
    (tmp_path / "p.csv").write_text(PRICE_CSV_HEADER + "\n1,a,10.0\n1,b,20.0\n")
    config = tmp_path / "net.yaml"
    config.write_text(
        "regions:\n- id: a\n- id: b\n"
        "links:\n- id: ab\n  from: a\n  to: b\n  capacity_mw: 100\n"
        + link_lines
        + "prices_csv: p.csv\n"
    )
    return config


class TestLoadNetwork:
    def test_bundled_irish_network(self):
        net = load_network(default_data_dir() / "network.yaml")
        assert len(net.regions) == 5
        assert len(net.interconnectors) == 4
        assert net.link("celtic").loss_fraction == 0.0575
        assert net.prices_for("wales").price_at(1) == 75.0

    def test_loss_from_length_and_rate(self, tmp_path):
        config = write_two_region_config(
            tmp_path, "  length_km: 575\n  loss_rate_per_100km: 0.01\n"
        )
        assert load_network(config).link("ab").loss_fraction == 0.0575

    def test_conflicting_loss_declarations(self, tmp_path):
        config = write_two_region_config(
            tmp_path,
            "  loss_fraction: 0.2\n  length_km: 575\n  loss_rate_per_100km: 0.01\n",
        )
        with pytest.raises(ConfigConflictError):
            load_network(config)

    def test_agreeing_loss_declarations(self, tmp_path):
        config = write_two_region_config(
            tmp_path,
            "  loss_fraction: 0.0575\n  length_km: 575\n  loss_rate_per_100km: 0.01\n",
        )
        assert load_network(config).link("ab").loss_fraction == 0.0575

    @pytest.mark.parametrize(
        "loader, text",
        [
            (None, "regions: [unclosed\n"),
            ("SafeLoader", "capacity_mw: 1" + "0" * 5000),
            ("SafeLoader", "regions: " + "[" * 600 + "]" * 600),
            ("CSafeLoader", "capacity_mw: 1" + "0" * 5000),
        ],
        ids=["unclosed", "int-too-long", "nested-600-deep", "int-too-long-libyaml"],
    )
    def test_invalid_yaml_is_a_parse_error_naming_the_file(
        self, tmp_path, monkeypatch, loader, text
    ):
        if loader is not None:
            if not hasattr(yaml, loader):
                pytest.skip(f"PyYAML has no {loader}")
            monkeypatch.setattr(dataio, "_YAML_LOADER", getattr(yaml, loader))
        config = tmp_path / "net.yaml"
        config.write_text(text)
        with pytest.raises(ParseError) as err:
            load_network(config)
        assert str(err.value).startswith(f"{config}: invalid YAML: ")

    def test_non_mapping_root(self, tmp_path):
        config = tmp_path / "net.yaml"
        config.write_text("- just\n- a\n- list\n")
        with pytest.raises(ParseError, match="mapping"):
            load_network(config)

    def test_stream_without_base_dir_cannot_resolve_prices(self):
        with pytest.raises(ParseError, match="base_dir"):
            load_network(io.StringIO("regions: []\nlinks: []\nprices_csv: p.csv\n"))

    def test_stream_with_base_dir(self, tmp_path):
        (tmp_path / "p.csv").write_text(PRICE_CSV_HEADER + "\n1,a,10.0\n1,b,20.0\n")
        doc = (
            "regions:\n- id: a\n- id: b\n"
            "links:\n- id: ab\n  from: a\n  to: b\n  capacity_mw: 5\n"
            "  loss_fraction: 0.0\n"
            "prices_csv: p.csv\n"
        )
        net = load_network(io.StringIO(doc), base_dir=tmp_path)
        assert net.prices_for("b").price_at(1) == 20.0


class TestRoundTrips:
    def test_bundle_files_are_canonical(self):
        directory = default_data_dir()
        net = load_network(directory / "network.yaml")
        assert network_to_yaml(net, "prices.csv") == (
            directory / "network.yaml"
        ).read_text()
        assert prices_to_csv(net.price_series) == (directory / "prices.csv").read_text()

    def test_write_load_write_network_is_byte_stable(self, tmp_path, bundle):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        save_network(bundle.network, first / "network.yaml")
        reloaded = load_network(first / "network.yaml")
        assert reloaded == bundle.network
        save_network(reloaded, second / "network.yaml")
        assert (first / "network.yaml").read_bytes() == (
            second / "network.yaml"
        ).read_bytes()
        assert (first / "prices.csv").read_bytes() == (second / "prices.csv").read_bytes()

    def test_prices_round_trip_identity(self):
        series = load_prices(io.StringIO(CASE_CSV))
        assert prices_to_csv(series.values()) == CASE_CSV

    @given(
        st.lists(
            # csv quotes these; the reader strips surrounding whitespace, and turns
            # "\r" and the other line breaks of str.splitlines into "\n"
            st.text('ab,"\n x', min_size=1, max_size=5).filter(lambda s: s == s.strip()),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @example(["a,b", 'q"x', "c\nd", 'e,"\nf'])
    def test_ids_that_csv_quotes_round_trip(self, tmp_path_factory, ids):
        network = Network(
            tuple(map(Region, ids)),
            (),
            tuple(PriceSeries(rid, ((0, 1.5), (1, -2.25))) for rid in ids),
        )
        first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
        save_network(network, first / "network.yaml")
        reloaded = load_network(first / "network.yaml")
        assert reloaded == network
        save_network(reloaded, second / "network.yaml")
        for name in ("network.yaml", "prices.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_network_without_prices(self, tmp_path):
        net = Network(tiny_network().regions, tiny_network().interconnectors, ())
        save_network(net, tmp_path / "net.yaml")
        text = (tmp_path / "net.yaml").read_text()
        assert "prices_csv" not in text
        assert not (tmp_path / "prices.csv").exists()
        # round-trips only if no linked region demands prices; here it fails
        with pytest.raises(ValidationError):
            load_network(tmp_path / "net.yaml")


class TestWriteReport:
    def test_same_input_twice_is_byte_identical(self, bundle):
        result = schedule_portfolio(bundle.network)
        assert write_report(result, "csv") == write_report(result, "csv")
        assert write_report(result, "structured") == write_report(result, "structured")

    def test_schedule_csv_schema(self, bundle):
        result = schedule_portfolio(bundle.network)
        lines = write_report(result, "csv").splitlines()
        assert lines[0] == "timestep,link_id,direction,quantity_mw,lambda_eur_mwh,profit_eur"
        assert lines[1] == "1,celtic,B_to_A,700.0,44.25,30975.0"
        assert len(lines) == 5

    def test_empty_schedule_is_header_only(self):
        doc = write_report(Schedule("x", (), (), (), (), (), 0.0), "csv")
        assert doc == "timestep,link_id,direction,quantity_mw,lambda_eur_mwh,profit_eur\n"

    def test_single_schedule_csv(self):
        schedule = Schedule("ab", (3,), (Direction.A_TO_B,), (10.0,), (2.5,), (25.0,), 25.0)
        doc = write_report(schedule, "csv")
        assert "3,ab,A_to_B,10.0,2.5,25.0" in doc

    def test_wheeling_csv_schema(self):
        results = evaluate_wheel(make_chain(), 50, 75, 100, 100)
        lines = write_report(results, "csv").splitlines()
        assert lines[0] == (
            "scenario,feasible,gate_a_eur_mwh,gate_b_eur_mwh,dispatched_mw,profit_eur"
        )
        assert lines[1].startswith("S123,true,")
        assert lines[2].startswith("S321,false,")

    def test_structured_carries_decisions_and_expected(self, bundle):
        import json

        result = schedule_portfolio(bundle.network)
        doc = json.loads(write_report(result, "structured", expected=bundle.expected))
        assert doc["type"] == "portfolio"
        assert doc["grand_total_eur"] == 63289.0
        assert doc["annualized_eur"] == 554411640.0
        assert [s["link_id"] for s in doc["schedules"]] == [
            "celtic",
            "ewi",
            "greenlink",
            "moyle",
        ]
        assert [s["total_profit_eur"] for s in doc["schedules"]] == [
            30975.0,
            11195.0,
            11500.0,
            9619.0,
        ]
        assert doc["schedules"][0]["decisions"][0]["quantity_mw"] == 700.0
        assert doc["expected"]["links"]["moyle"]["reported_eur"] == 9622.0
        assert doc["expected"]["links"]["moyle"]["computed_eur"] == 9619.0

    def test_unknown_format_rejected(self, bundle):
        with pytest.raises(ValueError, match="format"):
            write_report(schedule_portfolio(bundle.network), "xml")
        # before any fragment is asked for
        with pytest.raises(ValueError, match="format"):
            dataio._report(schedule_portfolio(bundle.network), "xml")

    def test_a_fragment_holds_at_most_a_block_of_rows(self, bundle):
        block = dataio._BLOCK_ROWS
        result = schedule_portfolio(over_steps(bundle.network, 3 * block + 1))
        writers = {
            "csv": (dataio._report(result, "csv"), "\n"),
            "structured": (dataio._report(result, "structured"), '"timestep"'),
            "plot": (dataio._plot_csv(result), "\n"),
        }
        for name, (fragments, row) in writers.items():
            rows = [fragment.count(row) for fragment in fragments]
            # four blocks per link, each of at most a block of rows
            assert max(rows) <= block, name
            assert sum(count > 0 for count in rows) >= 4 * len(result.schedules), name


def reference_structured_report(result, expected=None) -> str:
    """The structured report built as a dict tree and encoded by json.dumps."""

    def schedule_dict(s):
        return {
            "link_id": s.interconnector_id,
            "total_profit_eur": s.total_profit,
            "decisions": [
                {
                    "timestep": t,
                    "direction": direction.value,
                    "quantity_mw": quantity,
                    "lambda_eur_mwh": lam,
                    "profit_eur": profit,
                }
                for t, direction, quantity, lam, profit in zip(
                    s.timesteps, s.directions, s.quantities, s.lambdas, s.profits
                )
            ],
        }

    if isinstance(result, Schedule):
        doc = {"type": "schedule", **schedule_dict(result)}
    elif isinstance(result, PortfolioResult):
        doc = {
            "type": "portfolio",
            "grand_total_eur": result.grand_total,
            "annualized_eur": result.annualized,
            "schedules": [schedule_dict(s) for s in result.schedules],
        }
    else:
        doc = {
            "type": "wheeling",
            "scenarios": [
                {
                    "scenario": r.scenario.value,
                    "feasible": r.feasible,
                    "gate_a_eur_mwh": r.gate_values[0],
                    "gate_b_eur_mwh": r.gate_values[1],
                    "dispatched_mw": r.dispatched_mw,
                    "profit_eur": r.profit,
                }
                for r in result
            ],
        }
    if expected is not None:
        doc["expected"] = expected
    return json.dumps(doc, indent=2) + "\n"


SPECIAL_NUMBERS = (-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf)
HOSTILE_IDS = (
    'say "hi"',
    "back\\slash",
    "100%s %d %%",
    "Moyle–Éire ✓",
    "tab\tnl\n\x00\x1f",
)
numbers = st.one_of(
    st.floats(), st.sampled_from(SPECIAL_NUMBERS), st.integers(), st.booleans()
)
ledgers = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


@st.composite
def report_schedules(draw):
    n = draw(st.integers(0, 4))

    def column(*values):
        return tuple(
            draw(st.one_of([st.lists(v, min_size=n, max_size=n) for v in values]))
        )

    finite = st.floats(allow_nan=False, allow_infinity=False)
    return Schedule(
        draw(st.text() | st.sampled_from(HOSTILE_IDS)),
        column(st.integers(), numbers),
        column(st.sampled_from(Direction)),
        column(finite, numbers),
        column(finite, numbers),
        column(finite, numbers),
        draw(numbers),
    )


@st.composite
def report_results(draw):
    kind = draw(st.sampled_from(["schedule", "portfolio", "wheeling"]))
    if kind == "schedule":
        return draw(report_schedules())
    if kind == "portfolio":
        schedules = tuple(draw(st.lists(report_schedules(), max_size=3)))
        return PortfolioResult(schedules, draw(numbers), draw(numbers))
    return tuple(
        WheelingResult(
            draw(st.sampled_from(WheelScenario)),
            draw(st.booleans()),
            (draw(numbers), draw(numbers)),
            draw(numbers),
            draw(numbers),
        )
        for _ in range(draw(st.integers(0, 2)))
    )


def special_schedules():
    """Every special number in every column and total."""
    columns = (
        (0, 1, 2, 3),
        (Direction.IDLE, Direction.A_TO_B, Direction.B_TO_A, Direction.IDLE),
        (-0.0, 1e16, math.inf, 0.0),  # quantities
        (5e-324, math.inf, 1e16, 0.0),  # lambdas
        (-0.0, math.nan, -math.inf, 5e-324),  # profits
    )
    built = [
        Schedule(link_id, *columns, total)
        for link_id, total in zip(HOSTILE_IDS, SPECIAL_NUMBERS)
    ]
    timesteps = (0, 1, 2)
    directions = (Direction.A_TO_B, Direction.B_TO_A, Direction.IDLE)
    ones, zeros = (1.0,) * 3, (0.0,) * 3
    for value in SPECIAL_NUMBERS:
        column = (1.5, value, 2.0)
        built += [
            Schedule("q", timesteps, directions, column, zeros, ones, value),
            Schedule("l", timesteps, directions, ones, column, zeros, 0.0),
            Schedule("p", timesteps, directions, ones, zeros, column, 0.0),
        ]
    # ints, bools and None among the floats, and an int total
    mixed = (Direction.IDLE,) * 3
    built.append(
        Schedule("m", (0, True, 2), mixed, (0, 1.0, False), (1, 2, 3), (0.5, 2, None), 7)
    )
    return built


class TestStructuredReportMatchesJsonDumps:
    """write_report's structured form, byte for byte against json.dumps(indent=2)."""

    @settings(max_examples=300)
    @given(result=report_results(), expected=st.none() | ledgers)
    def test_random_results(self, result, expected):
        want = reference_structured_report(result, expected)
        assert write_report(result, "structured", expected) == want

    @pytest.mark.parametrize("steps", [None, 2 * dataio._BLOCK_ROWS + 7], ids=["one", "blocks"])
    def test_case_study(self, bundle, steps):
        # over more than two blocks of rows per link, the seams between blocks
        network = bundle.network if steps is None else over_steps(bundle.network, steps)
        result = schedule_portfolio(network)
        for doc in (result, *result.schedules):
            for expected in (None, bundle.expected):
                assert write_report(doc, "structured", expected) == (
                    reference_structured_report(doc, expected)
                )

    @pytest.mark.parametrize("schedule", special_schedules())
    def test_special_values_alone_and_in_a_portfolio(self, schedule):
        total = schedule.total_profit
        for result in (schedule, PortfolioResult((schedule, schedule), total, math.nan)):
            want = reference_structured_report(result)
            assert write_report(result, "structured") == want

    @pytest.mark.parametrize(
        "result",
        [
            PortfolioResult((), 0.0, 0.0),
            PortfolioResult((), -0.0, math.inf),
            Schedule("x", (), (), (), (), (), 0.0),
            PortfolioResult((Schedule("x", (), (), (), (), (), 0),), 0.0, 0.0),
        ],
        ids=["no-schedules", "special-totals", "empty-horizon", "empty-link"],
    )
    def test_empty(self, result):
        assert write_report(result, "structured") == reference_structured_report(result)

    def test_expected_ledger(self):
        ledger = {
            "links": {"moyle": {"reported_eur": 9622.0, "note": None, "ok": False}},
            "list": [1, [2.5, {"deep": True}], [], {}],
            "unicode": "Éire “quoted” ✓",
            "special": [math.nan, -0.0, 5e-324, 1e16],
        }
        schedule = Schedule('id "q"', (1,), (Direction.A_TO_B,), (2.0,), (3.0,), (6.0,), 6.0)
        for result in (schedule, PortfolioResult((schedule,), 6.0, 1.0), ()):
            for expected in (ledger, {}, [], "text", None):
                assert write_report(result, "structured", expected) == (
                    reference_structured_report(result, expected)
                )

    def test_wheeling(self):
        results = evaluate_wheel(make_chain(), 50, 75, 100, 100)
        want = reference_structured_report(results)
        assert write_report(results, "structured") == want


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a ParseError naming the file."""

    def assert_names(self, err, path):
        assert str(err.value).startswith(f"{path}: not UTF-8 text: ")

    def test_price_csv(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(CASE_CSV.encode() + b"2,ireland\xff,1.0\n")
        with pytest.raises(ParseError) as err:
            load_prices(path)
        self.assert_names(err, path)
        stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        with pytest.raises(ParseError, match="^stream: not UTF-8 text: "):
            load_prices(stream)

    def test_network_yaml(self, tmp_path):
        path = tmp_path / "network.yaml"
        save_network(tiny_network(), path)
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        with pytest.raises(ParseError) as err:
            load_network(path)
        self.assert_names(err, path)

    def test_expected_ledger(self, tmp_path, bundle):
        save_network(bundle.network, tmp_path / "network.yaml")
        path = tmp_path / "expected.yaml"
        path.write_bytes(b"totals: {reported_eur: 1.0}\n# \xff\n")
        with pytest.raises(ParseError) as err:
            load_case_study(tmp_path)
        self.assert_names(err, path)


class TestCaseStudyBundle:
    def test_bundle_matches_published_parameters(self, bundle):
        net = bundle.network
        assert net.link("moyle").capacity_mw == 500.0
        assert net.link("moyle").loss_fraction == 0.00635
        assert net.link("ewi").capacity_mw == 500.0
        assert net.link("ewi").loss_fraction == 0.0261
        assert net.link("greenlink").capacity_mw == 500.0
        assert net.link("greenlink").loss_fraction == 0.02
        assert net.link("celtic").capacity_mw == 700.0
        assert net.link("celtic").loss_fraction == 0.0575
        assert net.prices_for("ireland").price_at(1) == 100.0
        assert net.prices_for("scotland").price_at(1) == 120.0
        assert net.prices_for("wales").price_at(1) == 75.0
        assert net.prices_for("france").price_at(1) == 50.0

    def test_expected_ledger_tags_both_sources(self, bundle):
        links = bundle.expected["links"]
        assert links["celtic"] == {"reported_eur": 30975.0, "computed_eur": 30975.0}
        assert links["greenlink"]["computed_eur"] == 11500.0
        assert links["greenlink"]["reported_eur"] == 11195.0
        assert bundle.expected["totals"] == {
            "reported_eur": 61414.0,
            "computed_eur": 63289.0,
        }

    def test_custom_data_dir(self, tmp_path, bundle):
        save_network(bundle.network, tmp_path / "network.yaml")
        moved = load_case_study(tmp_path)
        assert moved.network == bundle.network
        assert moved.expected == {}  # no expected.yaml in the copy


class _Corpus:
    def __init__(self):
        directory = default_data_dir()
        self.config_doc = yaml.safe_load((directory / "network.yaml").read_text())
        self.prices_text = (directory / "prices.csv").read_text()


@pytest.fixture(scope="module")
def corpus():
    return _Corpus()


class TestMutationFuzzing:
    @pytest.mark.parametrize(
        "name,mutate,ok", CONFIG_MUTATIONS, ids=[m[0] for m in CONFIG_MUTATIONS]
    )
    def test_config_mutations(self, tmp_path, corpus, name, mutate, ok):
        doc = mutated_config(corpus.config_doc, mutate)
        (tmp_path / "network.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
        (tmp_path / "prices.csv").write_text(corpus.prices_text)
        if ok:
            load_network(tmp_path / "network.yaml")
        else:
            refusal = ParseError if name in PARSE_ERRORS else (ParseError, ValidationError)
            with pytest.raises(refusal) as err:
                load_network(tmp_path / "network.yaml")
            assert not re.search(r"\binf\b", str(err.value))

    def test_a_refused_number_is_named_as_written(self, tmp_path, corpus):
        config = (default_data_dir() / "network.yaml").read_text()
        (tmp_path / "network.yaml").write_text(config.replace("500.0", "-5", 1))
        (tmp_path / "prices.csv").write_text(corpus.prices_text)
        with pytest.raises(ValidationError) as err:
            load_network(tmp_path / "network.yaml")
        assert str(err.value).endswith(
            "interconnector 'moyle': capacity_mw must be finite and >= 0, got -5"
        )

    @pytest.mark.parametrize(
        "name,mutate,ok", PRICE_MUTATIONS, ids=[m[0] for m in PRICE_MUTATIONS]
    )
    def test_price_mutations(self, tmp_path, corpus, name, mutate, ok):
        (tmp_path / "network.yaml").write_text(
            yaml.safe_dump(corpus.config_doc, sort_keys=False)
        )
        (tmp_path / "prices.csv").write_text(mutate(corpus.prices_text))
        if ok:
            load_network(tmp_path / "network.yaml")
        else:
            with pytest.raises((ParseError, ValidationError)):
                load_network(tmp_path / "network.yaml")
