"""File ingestion and report emission.

Formats (all stable):

* Price CSV: header ``timestep,region_id,price_eur_mwh``, one row per
  (timestep, region), UTF-8, decimal point. Timesteps must be strictly
  increasing within each region. Fields may be quoted or padded with
  whitespace. A line ends where csv ends one, at ``\\n``, ``\\r\\n`` or ``\\r``
  (``\\x85`` or ``\\u2028`` is text). :func:`load_prices` reads a plain file as
  whole columns.
* Network config: YAML with a ``regions`` list, a ``links`` list, and an
  optional ``prices_csv`` reference resolved relative to the config file,
  which the caller's ``prices`` replaces (:func:`load_network`).
  A link carries either ``loss_fraction`` directly or ``length_km`` plus
  ``loss_rate_per_100km``; giving both is accepted only when they agree.
* Reports: CSV, a structured JSON document carrying every per-timestep
  decision, or the ``plot-data`` CSV. A row's JSON keys are its CSV header's
  fields: a decision's are the schedule CSV's without ``link_id``, a wheeling
  scenario's the wheeling CSV's. ``json.dumps`` writes the structured document
  around its decision arrays, which are rendered straight from the schedule
  columns, so the whole is byte-identical to ``json.dumps(doc, indent=2)`` of
  the nested dicts. Every writer is a generator of fragments, each of at most
  a fixed block of rows (wheeling JSON is one fragment), so the command line
  writes a report as it is rendered and never holds the whole document;
  :func:`write_report` joins the same fragments into one string.

Writers are deterministic: identical inputs yield byte-identical output,
and write -> load -> write is byte-identical. A loaded file is not always
written back as it was: the price writer lists each region's rows in turn.
Ids are written bare: the id rule (:func:`validate_network`) admits none that CSV quotes.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from pathlib import Path

import yaml

from .arbitrage import _check_nonnegative, _shown
from .errors import (
    ConfigConflictError,
    DuplicateRowError,
    InvalidLossError,
    ParseError,
    ValidationError,
)
from .model import (
    Interconnector,
    Network,
    PriceSeries,
    Region,
    _broken,
    loss_from_length,
    validate_network,
)
from .scheduler import PortfolioResult, Schedule
from .wheeling import WheelingResult

# The package republishes these; the other public names here are dataio's own.
__all__ = [
    "CaseStudyBundle",
    "load_prices",
    "save_prices",
    "load_network",
    "save_network",
    "write_report",
    "load_case_study",
]

PRICE_CSV_HEADER = "timestep,region_id,price_eur_mwh"
SCHEDULE_CSV_HEADER = "timestep,link_id,direction,quantity_mw,lambda_eur_mwh,profit_eur"
WHEELING_CSV_HEADER = "scenario,feasible,gate_a_eur_mwh,gate_b_eur_mwh,dispatched_mw,profit_eur"

DATA_DIR_ENV = "HVDCARB_DATA_DIR"
_BUNDLED_DATA = Path(__file__).resolve().parent / "data" / "ireland"

TYPE_CHECKING = False
if TYPE_CHECKING:  # an alias for annotations; typing is not imported at run time
    from typing import IO, Union
    Source = Union[str, Path, IO[str]]

# libyaml's safe loader when PyYAML has it: the same documents, read faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _name(source: Source) -> str:
    """How an error names ``source``: its path, or a stream's name."""
    return getattr(source, "name", "stream") if hasattr(source, "read") else str(source)


def _read_text(source: Source) -> str:
    stream = hasattr(source, "read")
    try:  # a file's bytes decoded, so that its line ends reach csv as written
        return source.read() if stream else Path(source).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{_name(source)}: not UTF-8 text: {exc}") from exc


def _read_yaml(source: Source):
    """The YAML document in ``source``; a ParseError naming it if it cannot be read."""
    text = _read_text(source)
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ParseError(f"{_name(source)}: invalid YAML: {exc}") from exc


# ---------------------------------------------------------------------------
# price CSV


def load_prices(source: Source) -> dict[str, PriceSeries]:
    """Parse a price CSV into one series per region, keyed by region id.

    The body is split, converted and checked as whole columns. Anything
    unusual (a quote, a blank line, a line without exactly three fields, a
    value that does not convert, regions neither listed in the same order
    at every timestep nor each in one contiguous run, a series with
    violations) sends the file through the row-by-row reader instead,
    which accepts it or raises the error of its first bad row.

    Raises:
        ParseError: bad header, malformed row, over-long field, non-finite
            price, out-of-order timesteps (with the offending line number),
            or text that is not UTF-8. The message names the source.
        DuplicateRowError: a (timestep, region) pair repeats.
    """
    text = _read_text(source)
    # The header is the first line as csv ends one: at "\n", "\r\n" or "\r".
    header, end, body = text.partition("\n")
    if "\r" in header:
        header, _, rest = header.partition("\r")
        body = rest + end + body if rest else body
    try:
        if header.strip() != PRICE_CSV_HEADER:
            got = header.strip() if text else "<empty file>"
            raise ParseError(f"expected header '{PRICE_CSV_HEADER}', got {_shown(got)}", line=1)
        series = _load_price_columns(body)
        if series is None:
            series = _load_price_rows(body)
    except ParseError as exc:  # keeps its type and line
        exc.args = (f"{_name(source)}: {exc}",)
        raise
    return series


def _load_price_columns(body: str) -> dict[str, PriceSeries] | None:
    """The body's series read as whole columns, or None for the row-by-row reader."""
    # csv interprets quotes, NUL and the breaks only str.splitlines ends a line at,
    # and refuses over-long fields; a blank line has no comma.
    if any(map(body.__contains__, '"\0\v\f\x1c\x1d\x1e\x85\u2028\u2029')):
        return None
    lines = body.splitlines()
    if set(map(str.count, lines, repeat(","))) != {2}:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    joined = ",".join(lines)
    del lines  # the line strings, before the fields take their place
    fields = joined.split(",")
    del joined
    regions = list(map(str.strip, fields[1::3]))
    # Each region's rows are one (start, stop, stride) slice of the rows when
    # the regions are listed in the same order at every timestep (interleaved)
    # or each occupy one contiguous run (blocked, as prices_to_csv writes
    # them). Any other order is read row by row.
    order = list(dict.fromkeys(regions))
    n, k = len(regions), len(order)
    if "" in order:
        return None
    if regions == order * (n // k):
        slices = [(i, n, k) for i in range(k)]
    elif sum(map(operator.ne, regions, islice(regions, 1, None))) == k - 1:
        starts = [0]
        for rid in order[1:]:
            starts.append(regions.index(rid, starts[-1]))
        slices = list(zip(starts, [*starts[1:], n], repeat(1)))
    else:
        return None
    del regions
    # Regions that list the first region's timestep strings share its column.
    steps = [fields[3 * start : 3 * stop : 3 * step] for start, stop, step in slices]
    try:
        prices = [
            tuple(map(float, fields[3 * start + 2 : 3 * stop : 3 * step]))
            for start, stop, step in slices
        ]
        first = tuple(map(int, steps[0]))
        timesteps = [first if s == steps[0] else tuple(map(int, s)) for s in steps]
    except ValueError:
        return None
    del fields, steps
    series = {
        rid: PriceSeries._checked(rid, ts, column)
        for rid, ts, column in zip(order, timesteps, prices)
    }
    # A series with violations (found once, and kept for every later
    # reader) leaves the file to the row reader, which names the bad line.
    if any(map(PriceSeries.violations, series.values())):
        return None
    return series


def _load_price_rows(body: str) -> dict[str, PriceSeries]:
    """The body, after the header's line, read row by row; raises the error of
    its first bad row, naming the last line that csv read for it."""
    columns: dict[str, tuple[list[int], list[float]]] = {}
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        for row in reader:
            lineno = reader.line_num + 1
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
            raw_t, region_id, raw_price = (field.strip() for field in row)
            try:
                t = int(raw_t)
            except ValueError:
                raise ParseError(f"timestep {_shown(raw_t)} is not an integer", line=lineno)
            if t < 0:
                raise ParseError(f"timestep {_shown(t)} is negative", line=lineno)
            if not region_id:
                raise ParseError("empty region_id", line=lineno)
            try:
                price = float(raw_price)
            except ValueError:
                raise ParseError(f"price {_shown(raw_price)} is not a number", line=lineno)
            if not math.isfinite(price):
                raise ParseError(f"price {_shown(raw_price)} is not finite", line=lineno)
            timesteps, prices = columns.setdefault(region_id, ([], []))
            if timesteps:
                last_t = timesteps[-1]
                if t == last_t:
                    raise DuplicateRowError(
                        f"duplicate timestep {_shown(t)} for region {_shown(region_id)}",
                        line=lineno,
                    )
                if t < last_t:
                    raise ParseError(
                        f"timestep {_shown(t)} for region {_shown(region_id)} is out of order "
                        f"(last was {_shown(last_t)})",
                        line=lineno,
                    )
            timesteps.append(t)
            prices.append(price)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num + 1) from exc
    return {
        rid: PriceSeries._checked(rid, tuple(ts), tuple(ps)) for rid, (ts, ps) in columns.items()
    }


def prices_to_csv(series: Iterable[PriceSeries]) -> str:
    """Render price series back to the CSV format, deterministically."""
    rows = [PRICE_CSV_HEADER + "\n"]
    for s in series:
        rows += (f"{t},{s.region_id},{price!r}\n" for t, price in zip(s.timesteps, s.prices))
    return "".join(rows)


def save_prices(series: Iterable[PriceSeries], path: str | Path) -> None:
    Path(path).write_text(prices_to_csv(series), encoding="utf-8")


# ---------------------------------------------------------------------------
# network config


_REGION_KEYS = {"id", "name"}
_LINK_KEYS = {
    "id",
    "from",
    "to",
    "capacity_mw",
    "loss_fraction",
    "length_km",
    "loss_rate_per_100km",
}
_TOP_KEYS = {"regions", "links", "prices_csv"}
_LEDGER_KEYS = {"links", "totals", "annual"}
_LEDGER_ENTRY_KEYS = {"reported_eur", "computed_eur", "hours", "claim_exceeds_eur"}


def _number(mapping: dict, key: str, context: str) -> float | int | None:
    """``mapping[key]`` as the file writes it, or None if absent; it must be a number."""
    if key not in mapping:
        return None
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}: '{key}' must be a number, got {_shown(value)}")
    return value


def _mapping(value, keys: set | None, context: str) -> dict:
    """``value``, which must be a mapping with no key outside ``keys`` (if given)."""
    if not isinstance(value, dict):
        raise ParseError(f"{context} must be a mapping, got {_shown(value)}")
    if keys is not None and not keys.issuperset(value):
        raise ParseError(f"{context}: unknown keys {sorted(set(value) - keys, key=str)}")
    return value


def _entries(doc: dict, name: str, keys: set, required: tuple, file: str) -> Iterator[dict]:
    """The entries of the config's ``name`` list, each checked before it is yielded:
    a mapping, no key outside ``keys``, and a string at each ``required`` key and
    at ``name``, if the entry has one. A ParseError names the config ``file``."""
    entries = doc.get(name)
    if entries is None:
        return
    if not isinstance(entries, list):
        raise ParseError(f"{file}: '{name}' must be a list of mappings")
    kind = f"{file}: {name[:-1]} entry"  # a region or a link entry
    for entry in entries:
        _mapping(entry, keys, kind)
        for key in required + (("name",) if "name" in entry else ()):
            if not isinstance(entry.get(key), str):
                raise ParseError(f"{kind} {_shown(entry)}: '{key}' must be a string")
        yield entry


def load_network(source: Source, prices: Source | None = None) -> Network:
    """Load and validate a network config with its prices.

    The prices are those of the config's ``prices_csv`` reference, resolved
    relative to the config file, unless ``prices`` (a path or a stream) is
    given: it replaces the reference, which is then not read. A config read
    from a stream has no directory, so a reference in it needs ``prices``.

    Raises:
        ParseError: the document does not match the schema, or a stream's
            reference is given no ``prices``.
        ConfigConflictError: a link's declared and length-derived losses
            disagree.
        ValidationError: the loaded network violates a model invariant;
            the message names the config (and ``prices``, if given) and lists
            every violation.
    """
    file = _name(source)
    doc = _mapping(_read_yaml(source), _TOP_KEYS, f"{file}: config root")

    regions = [
        Region(entry["id"], entry.get("name", ""))
        for entry in _entries(doc, "regions", _REGION_KEYS, ("id",), file)
    ]
    links = []
    for entry in _entries(doc, "links", _LINK_KEYS, ("id", "from", "to"), file):
        context = f"{file}: link '{entry['id']}'"
        capacity = _number(entry, "capacity_mw", context)
        if capacity is None:
            raise ParseError(f"{context}: 'capacity_mw' is missing")
        length = _number(entry, "length_km", context)
        links.append(
            Interconnector(
                id=entry["id"],
                endpoint_a=entry["from"],
                endpoint_b=entry["to"],
                capacity_mw=capacity,
                loss_fraction=_resolve_loss(entry, length, context),
                length_km=length,
            )
        )
    network = Network(tuple(regions), tuple(links))

    ref = doc.get("prices_csv")
    if ref is not None and not isinstance(ref, str):
        raise ParseError(f"{file}: 'prices_csv' must be a path string, got {_shown(ref)}")
    heading = f"{file}: network config is invalid"
    if prices is not None:
        heading = f"{file} and {_name(prices)}: inputs are invalid"
    elif ref is not None:
        if hasattr(source, "read"):
            raise ParseError(f"{file}: a stream's prices_csv cannot be resolved; pass prices")
        prices = Path(source).parent / ref
    if prices is not None:
        network = network.with_prices(load_prices(prices).values())
    report = validate_network(network)
    if report:
        raise ValidationError(f"{heading}:\n" + "\n".join(f"- {v}" for v in report))
    return network


def _resolve_loss(entry: dict, length: float | None, context: str) -> float:
    """Loss fraction from a link entry; a declared loss in [0, 1) must match a derived one."""
    declared = _number(entry, "loss_fraction", context)
    rate = _number(entry, "loss_rate_per_100km", context)
    derived = None
    if rate is not None:
        if length is None:
            raise ParseError(
                f"{context}: 'loss_rate_per_100km' requires 'length_km'"
            )
        try:
            derived = loss_from_length(length, rate)
        except InvalidLossError as exc:
            raise InvalidLossError(f"{context}: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"{context}: {exc}") from exc
    if declared is not None:
        if derived is not None and 0 <= declared < 1 and abs(declared - derived) > 1e-12:
            raise ConfigConflictError(
                f"{context}: loss_fraction {declared} disagrees with "
                f"length-derived value {derived}"
            )
        return declared
    if derived is not None:
        return derived
    raise ParseError(
        f"{context}: needs 'loss_fraction' or 'length_km' + 'loss_rate_per_100km'"
    )


def network_to_yaml(network: Network, prices_csv: str | None = None) -> str:
    """Render a network to the config format, deterministically."""
    doc: dict = {"regions": [], "links": []}
    for region in network.regions:
        entry: dict = {"id": region.id}
        if region.name:
            entry["name"] = region.name
        doc["regions"].append(entry)
    for link in network.interconnectors:
        entry = {
            "id": link.id,
            "from": link.endpoint_a,
            "to": link.endpoint_b,
            "capacity_mw": link.capacity_mw,
            "loss_fraction": link.loss_fraction,
        }
        if link.length_km is not None:
            entry["length_km"] = link.length_km
        doc["links"].append(entry)
    if prices_csv is not None:
        doc["prices_csv"] = prices_csv
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def save_network(network: Network, path: str | Path) -> None:
    """Write the config file, plus ``prices.csv`` beside it if prices exist."""
    path = Path(path)
    ref = "prices.csv" if network.price_series else None
    path.write_text(network_to_yaml(network, ref), encoding="utf-8")
    if ref is not None:
        save_prices(network.price_series, path.parent / ref)


# ---------------------------------------------------------------------------
# reports

# Every writer yields its document in fragments of at most this many rows
# (steps, plot points or wheeling scenarios), never a whole link or document.
_BLOCK_ROWS = 256

_PLOT_CSV_HEADER = "timestep,link_id,lambda_eur_mwh,quantity_mw,cumulative_profit_eur"


def write_report(
    result: Schedule | PortfolioResult | Sequence[WheelingResult],
    fmt: str = "csv",
    expected: dict | None = None,
) -> str:
    """Render a result as a document string.

    ``fmt`` is ``csv`` (schema fixed per result kind) or ``structured``
    (JSON carrying every decision). ``expected`` attaches a ledger of
    reference values to the structured form; the case-study command uses
    it to keep reported-vs-computed figures side by side.

    The document is rendered in fragments of at most a fixed block of rows,
    which the command line writes to its destination as they are made; this
    function joins them, so it returns (and holds) the whole document.
    """
    return "".join(_report(result, fmt, expected))


def _report(result, fmt: str, expected: dict | None = None) -> Iterator[str]:
    """The fragments of :func:`write_report`'s document. A bad format raises before
    any fragment is asked for; the result's kind gives the schedules and the JSON
    head, or the wheeling rows that both formats read."""
    if fmt not in ("csv", "structured"):
        raise ValueError(f"unknown report format {_shown(fmt)} (use 'csv' or 'structured')")

    def head(s: Schedule) -> dict:
        return dict(link_id=s.interconnector_id, total_profit_eur=s.total_profit, decisions=[])

    if isinstance(result, Schedule):
        schedules, doc = (result,), {"type": "schedule", **head(result)}
    elif isinstance(result, PortfolioResult):
        schedules = result.schedules
        doc = {
            "type": "portfolio",
            "grand_total_eur": result.grand_total,
            "annualized_eur": result.annualized,
            "schedules": list(map(head, schedules)),
        }
    else:
        rows = [(r.scenario.value, r.feasible, r.gate_values[0], r.gate_values[1],
                 r.dispatched_mw, r.profit) for r in result]
        if fmt == "csv":
            return _wheeling_csv(rows)
        schedules = ()
        doc = {"type": "wheeling", "scenarios": [dict(zip(_WHEELING_KEYS, row)) for row in rows]}
    if fmt == "csv":
        return _schedule_csv(schedules)
    if expected is not None:
        doc["expected"] = expected
    return _structured(doc, schedules)


def _blocks(rows: Iterable[str], sep: str = "") -> Iterator[str]:
    """``sep.join(rows)`` in fragments of at most ``_BLOCK_ROWS`` rows each."""
    rows, lead = iter(rows), ""
    while block := list(islice(rows, _BLOCK_ROWS)):
        yield lead + sep.join(block)
        lead = sep


def _schedule_csv(schedules: Sequence[Schedule]) -> Iterator[str]:
    yield SCHEDULE_CSV_HEADER + "\n"
    for s in schedules:
        names = {d: d.value for d in set(s.directions)}
        columns = s.timesteps, s.directions, s.quantities, s.lambdas, s.profits
        yield from _blocks(
            f"{t},{s.interconnector_id},{names[d]},{quantity!r},{lam!r},{profit!r}\n"
            for t, d, quantity, lam, profit in zip(*columns)
        )


def _wheeling_csv(rows: Iterable[tuple]) -> Iterator[str]:
    yield WHEELING_CSV_HEADER + "\n"
    yield from _blocks(
        f"{scenario},{str(feasible).lower()},{gate_a!r},{gate_b!r},{mw!r},{profit!r}\n"
        for scenario, feasible, gate_a, gate_b, mw, profit in rows
    )


def _plot_csv(result: PortfolioResult) -> Iterator[str]:
    """The ``plot-data`` CSV: each link's marginal value, dispatch and running
    profit per step, the profit summed left to right from 0.0."""
    yield _PLOT_CSV_HEADER + "\n"
    for s in result.schedules:
        running = islice(accumulate(s.profits, initial=0.0), 1, None)
        yield from _blocks(
            f"{t},{s.interconnector_id},{lam!r},{quantity!r},{total!r}\n"
            for t, quantity, lam, total in zip(s.timesteps, s.quantities, s.lambdas, running)
        )


# The structured report: json.dumps(doc, indent=2) writes all but the decision
# arrays, which are rendered from the schedule columns as json.dumps would. Its
# keys are the CSV headers' fields, a decision's without the schedule's link_id.
_DECISION_KEYS = tuple(key for key in SCHEDULE_CSV_HEADER.split(",") if key != "link_id")
_WHEELING_KEYS = tuple(WHEELING_CSV_HEADER.split(","))


def _json(value) -> str:
    import json  # here, so that reading files never imports it

    return json.dumps(value, indent=2)


def _json_column(column: Sequence) -> Iterator[str]:
    # json.dumps writes an int, or a float other than NaN and ±inf, as its
    # repr; bools and subclasses take the per-value path
    types = set(map(type, column))
    if types == {int} or (types == {float} and math.isfinite(sum(column))):
        return map(repr, column)
    return map(_json, column)


def _decisions(s: Schedule, pad: str) -> Iterator[str]:
    """Fragments of a schedule's decision array, its key on a line indented by ``pad``."""
    if not s.timesteps:
        yield "[]"
        return
    row, field = pad + "  ", pad + "    "
    members = ",\n".join(f'{field}"{key}": %s' for key in _DECISION_KEYS)
    template = f"{row}{{\n{members}\n{row}}}"
    directions = {d: _json(d.value) for d in set(s.directions)}
    columns = (
        _json_column(s.timesteps),
        map(directions.__getitem__, s.directions),
        *map(_json_column, (s.quantities, s.lambdas, s.profits)),
    )
    yield "[\n"
    yield from _blocks(map(template.__mod__, zip(*columns)), ",\n")
    yield f"\n{pad}]"


def _structured(doc: dict, schedules: Sequence[Schedule]) -> Iterator[str]:
    """``json.dumps(doc, indent=2)``'s text, each ``"decisions": []`` replaced by the
    next schedule's decision array, indented as its line. json.dumps escapes every
    quote inside a string, so that text unescaped is a key, and the ledger comes
    after every schedule, so the split stops before it."""
    chunks = (_json(doc) + "\n").split('"decisions": []', len(schedules))
    yield chunks[0]
    for s, before, text in zip(schedules, chunks, chunks[1:]):
        yield '"decisions": '
        yield from _decisions(s, before.rpartition("\n")[2])
        yield text


# ---------------------------------------------------------------------------
# bundled case study


@dataclass(frozen=True)
class CaseStudyBundle:
    """The Irish four-link study: network, prices, and reference figures.

    ``expected`` maps link ids (plus totals and the annual extrapolation)
    to reported and independently computed profit values; the two disagree
    for some links, and the case-study report keeps both visible.
    """

    network: Network
    expected: dict


def default_data_dir() -> Path:
    """Bundled case-study directory, overridable via HVDCARB_DATA_DIR."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return _BUNDLED_DATA


def load_case_study(data_dir: str | Path | None = None) -> CaseStudyBundle:
    """Load the bundled Irish case study through the regular file loaders."""
    directory = Path(data_dir) if data_dir is not None else default_data_dir()
    network = load_network(directory / "network.yaml")
    ledger = directory / "expected.yaml"
    return CaseStudyBundle(network, _load_ledger(ledger) if ledger.exists() else {})


def _load_ledger(path: Path) -> dict:
    """The reference ledger, checked as the config is: the root, ``links``,
    ``totals``, ``annual`` and each ``links.<id>`` entry are mappings holding only
    the bundled ledger's keys, link ids are strings, and every value is a number,
    finite and >= 0. A ParseError names the file and the key."""
    ledger = _read_yaml(path)
    ledger = _mapping({} if ledger is None else ledger, _LEDGER_KEYS, f"{path}: the root")
    entries = {f"{path}: '{key}'": ledger.get(key, {}) for key in ("totals", "annual")}
    for link_id, entry in _mapping(ledger.get("links", {}), None, f"{path}: 'links'").items():
        if not isinstance(link_id, str):
            raise ParseError(f"{path}: 'links': link id {_shown(link_id)} must be a string")
        entries[f"{path}: link '{link_id}'"] = entry
    for context, entry in entries.items():
        for key in _mapping(entry, _LEDGER_ENTRY_KEYS, context):
            value = _number(entry, key, context)
            for message in _broken(_check_nonnegative, value, f"'{key}'"):
                raise ParseError(f"{context}: {message}")
    return ledger
