"""Output checker, independent of the program.

Every figure is recomputed here from the generated inputs with the paper's
formulas, in the program's expression order (``p_a - p_b - r*p_a``), and
compared through ``repr``, so a match is bit for bit. Totals are recomputed
as left-to-right sums. Nothing in this module imports the package under
test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HOURS_PER_YEAR = 8760
# Every workload runs with the default step length of one hour.
STEP_HOURS = 1.0

# Figures of the bundled one-hour Irish study (computed column, zero bias).
CASE_IRELAND = {"celtic": 30975.0, "ewi": 11195.0, "greenlink": 11500.0, "moyle": 9619.0}


def decide(p_a: float, p_b: float, r: float, x_max: float, r_b: float):
    """(direction, quantity, lambda, profit) of one link at one step."""
    m_a = p_a - p_b - r * p_a
    m_b = p_b - p_a - r * p_b
    lam = max(m_a - r_b, m_b - r_b, 0.0)
    if lam > 0 and x_max > 0:
        direction = "B_to_A" if m_a >= m_b else "A_to_B"
        quantity = x_max
    else:
        direction = "Idle"
        quantity = 0.0
    return direction, quantity, lam, quantity * STEP_HOURS * lam


@dataclass
class Portfolio:
    """Reference schedule: per link (id, rows, total), in link-id order."""

    links: list[tuple[str, list[tuple], float]]
    grand_total: float
    annualized: float

    def direction_share(self) -> dict[str, float]:
        counts = {"A_to_B": 0, "B_to_A": 0, "Idle": 0}
        for _, rows, _ in self.links:
            for row in rows:
                counts[row[1]] += 1
        n = sum(counts.values())
        return {k: v / n for k, v in counts.items()}


def portfolio(links, prices, timesteps, r_b, caps=None, lo=None, hi=None) -> Portfolio:
    """Reference portfolio schedule of one-hour steps over timesteps[lo..hi] (inclusive)."""
    lo = 0 if lo is None else lo
    hi = len(timesteps) - 1 if hi is None else hi
    out = []
    for ln in sorted(links, key=lambda ln: ln.id):
        pa, pb = prices[ln.a], prices[ln.b]
        cap = caps[ln.id] if caps else None
        rows = []
        total = 0
        for i in range(lo, hi + 1):
            x_max = cap[i] if cap else ln.capacity
            rows.append((timesteps[i], *decide(pa[i], pb[i], ln.loss, x_max, r_b)))
            total += rows[-1][4]
        out.append((ln.id, rows, total))
    grand = 0
    for _, _, total in out:
        grand += total
    hours = (hi - lo + 1) * STEP_HOURS
    return Portfolio(out, grand, grand / hours * HOURS_PER_YEAR)


def schedule_stdout(ref: Portfolio, out: str | None = None) -> str:
    text = (
        f"links_scheduled: {len(ref.links)}\n"
        f"grand_total_eur: {ref.grand_total!r}\n"
        f"annualized_eur: {ref.annualized!r}\n"
    )
    if out is not None:
        text += f"report written to {out}\n"
    return text


def decision_lines(ref: Portfolio) -> list[str]:
    """Schedule CSV rows: timestep,link_id,direction,quantity,lambda,profit."""
    return [
        f"{t},{lid},{d},{q!r},{lam!r},{p!r}"
        for lid, rows, _ in ref.links
        for t, d, q, lam, p in rows
    ]


def _first_diff(got: list[str], want: list[str]) -> str:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: got {g!r}, want {w!r}"
    return f"{len(got)} lines, want {len(want)}"


def check_schedule_csv(text: str, ref: Portfolio) -> str | None:
    want = ["timestep,link_id,direction,quantity_mw,lambda_eur_mwh,profit_eur"]
    want += decision_lines(ref)
    got = text.split("\n")
    if got[-1] != "":
        return "CSV does not end with a newline"
    got.pop()
    return None if got == want else _first_diff(got, want)


def _left_to_right(values) -> float:
    total = 0
    for v in values:
        total += v
    return total


def json_rows(text: str) -> tuple[dict, list[str]]:
    """Parse a structured portfolio report into (document, CSV-style rows)."""
    doc = json.loads(text)
    rows = [
        f"{d['timestep']},{s['link_id']},{d['direction']},{d['quantity_mw']!r},"
        f"{d['lambda_eur_mwh']!r},{d['profit_eur']!r}"
        for s in doc["schedules"]
        for d in s["decisions"]
    ]
    return doc, rows


def check_schedule_json(text: str, ref: Portfolio) -> str | None:
    doc, rows = json_rows(text)
    if doc.get("type") != "portfolio":
        return f"type is {doc.get('type')!r}"
    for key, want in (("grand_total_eur", ref.grand_total), ("annualized_eur", ref.annualized)):
        if repr(doc.get(key)) != repr(want):
            return f"{key}: got {doc.get(key)!r}, want {want!r}"
    if [s["link_id"] for s in doc["schedules"]] != [lid for lid, _, _ in ref.links]:
        return "schedules are not the links in id order"
    for s, (_, _, total) in zip(doc["schedules"], ref.links):
        if repr(s["total_profit_eur"]) != repr(total):
            return f"{s['link_id']} total: got {s['total_profit_eur']!r}, want {total!r}"
        own = _left_to_right(d["profit_eur"] for d in s["decisions"])
        if repr(own) != repr(s["total_profit_eur"]):
            return f"{s['link_id']} total is not the left-to-right sum of its profits"
        for d in s["decisions"]:
            if set(d) != {"timestep", "direction", "quantity_mw", "lambda_eur_mwh", "profit_eur"}:
                return f"decision keys {sorted(d)}"
            if type(d["timestep"]) is not int:
                return f"timestep {d['timestep']!r} is not an integer"
    own_grand = _left_to_right(s["total_profit_eur"] for s in doc["schedules"])
    if repr(own_grand) != repr(doc["grand_total_eur"]):
        return "grand total is not the left-to-right sum of link totals"
    want = decision_lines(ref)
    return None if rows == want else _first_diff(rows, want)


def check_csv_json_agree(csv_text: str, json_text: str) -> str | None:
    csv_rows = csv_text.split("\n")[1:-1]
    _, rows = json_rows(json_text)
    return None if csv_rows == rows else "CSV and JSON reports disagree: " + _first_diff(csv_rows, rows)


def check_plot(text: str, ref: Portfolio) -> str | None:
    want = ["timestep,link_id,lambda_eur_mwh,quantity_mw,cumulative_profit_eur"]
    for lid, rows, _ in ref.links:
        running = 0.0
        for t, _, q, lam, p in rows:
            running += p
            want.append(f"{t},{lid},{lam!r},{q!r},{running!r}")
    got = text.split("\n")
    if got[-1] != "":
        return "plot data does not end with a newline"
    got.pop()
    return None if got == want else _first_diff(got, want)


def evaluate_stdout(link, t: int, p_a: float, p_b: float, r_b: float = 0.0) -> str:
    direction, q, lam, profit = decide(p_a, p_b, link.loss, link.capacity, r_b)
    described = {
        "A_to_B": f"A_to_B ({link.a} -> {link.b})",
        "B_to_A": f"B_to_A ({link.b} -> {link.a})",
        "Idle": "Idle",
    }[direction]
    return (
        f"link: {link.id}\ntimestep: {t}\ndirection: {described}\n"
        f"quantity_mw: {q!r}\nlambda_eur_mwh: {lam!r}\nprofit_eur: {profit!r}\n"
    )


def wheel_outcome(p1, p2, p3, r1, r2, c, x):
    """Both scenarios of a 3-area wheel: (name, gates, feasible, dispatched, profit)."""
    scenarios = (
        (
            "S123",
            (p3 * (1 - r2) * (1 - c) - p2, p2 * (1 - r1) - p1),
            p3 * (1 - r1) * (1 - r2) * (1 - c) - p1,
        ),
        (
            "S321",
            (p1 * (1 - r1) * (1 - c) - p2, p2 * (1 - r2) - p3),
            p1 * (1 - r1) * (1 - r2) * (1 - c) - p3,
        ),
    )
    out = []
    for name, gates, margin in scenarios:
        feasible = gates[0] > 0 and gates[1] > 0
        if feasible:
            out.append((name, gates, True, x, margin * x * STEP_HOURS))
        else:
            out.append((name, gates, False, 0.0, 0.0))
    return out


def wheel_stdout(areas, t, outcome) -> str:
    a1, a2, a3 = areas
    routes = {"S123": f"{a1} -> {a2} -> {a3}", "S321": f"{a3} -> {a2} -> {a1}"}
    lines = [f"timestep: {t}"]
    for name, gates, feasible, dispatched, profit in outcome:
        lines += [
            f"scenario: {name} ({routes[name]})",
            f"  gate_a_eur_mwh: {gates[0]!r}",
            f"  gate_b_eur_mwh: {gates[1]!r}",
            f"  feasible: {str(feasible).lower()}",
            f"  dispatched_mw: {dispatched!r}",
            f"  profit_eur: {profit!r}",
        ]
    return "\n".join(lines) + "\n"


def check_case_ireland(stdout: str) -> str | None:
    computed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in CASE_IRELAND:
            computed[fields[0]] = fields[1]
    for link, want in CASE_IRELAND.items():
        if computed.get(link) != repr(want):
            return f"case-ireland {link}: got {computed.get(link)}, want {want!r}"
    return None


def check_misaligned(text: str, ref: Portfolio, shifted: str, regions, timesteps) -> str | None:
    """The library driver's record: aligned results, then the shifted call's error."""
    doc = json.loads(text)
    aligned, error = doc["aligned"], doc["shifted"]
    want = {
        "grand_total_eur": repr(ref.grand_total),
        "annualized_eur": repr(ref.annualized),
        "totals": {lid: repr(total) for lid, _, total in ref.links},
        "decisions_sha256": hashlib.sha256(
            "\n".join(decision_lines(ref)).encode()
        ).hexdigest(),
    }
    for key, value in want.items():
        if aligned.get(key) != value:
            return f"aligned {key}: got {aligned.get(key)!r}, want {value!r}"
    if error.get("error_type") != "AlignmentError":
        return f"shifted profile raised {error.get('error_type')}, want AlignmentError"
    a, b = regions
    after = timesteps[-1] + 1
    want_missing = {
        f"prices '{a}'": [after],
        f"prices '{b}'": [after],
        f"capacity '{shifted}'": [timesteps[0]],
    }
    if error.get("missing") != want_missing:
        return f"missing timesteps: got {error.get('missing')}, want {want_missing}"
    message = error.get("message", "")
    for part in (f"link '{shifted}'", f"missing timesteps [{after}]", f"missing timesteps [{timesteps[0]}]"):
        if part not in message:
            return f"error message lacks {part!r}: {message[:200]!r}"
    return None


class Checks:
    """Tally of checks attempted and failed, with file verdicts cached by sha256."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._verdicts: dict[tuple, str | None] = {}

    def expect(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problem}")

    def verdict(self, key: tuple, validate) -> str | None:
        """Run ``validate`` once per distinct key (file hashes) and reuse the result.

        An output the validator cannot read (bad JSON, missing keys) fails.
        """
        if key not in self._verdicts:
            try:
                self._verdicts[key] = validate()
            except Exception as exc:  # malformed output of any shape
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return self._verdicts[key]


def file_sha(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None
