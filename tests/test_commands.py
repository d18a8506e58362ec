"""The README's examples and the exit codes, run as a user runs them: each command
is a fresh ``python -m hvdcarb.cli`` in a temporary directory, importing ``hvdcarb``
from where this process did (``src`` in a checkout, or the installed package).
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hvdcarb
from hvdcarb import Interconnector, Network, PriceSeries, Region, save_network

PACKAGE = Path(hvdcarb.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def python(*args, cwd, data_dir=None) -> subprocess.CompletedProcess:
    """``python *args`` in ``cwd``, importing hvdcarb from where this process did."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("HVDCARB_DATA_DIR", None)
    if data_dir is not None:
        env["HVDCARB_DATA_DIR"] = str(data_dir)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def readme_block(heading: str) -> str:
    """The first fenced block after ``heading`` in the README, without its fences."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return section.split("```", 2)[1].split("\n", 1)[1]


def readme_commands() -> list[list[str]]:
    """The command-line examples, continuation lines joined and comments dropped."""
    lines = readme_block("## Command line").replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines]


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("readme")
    runs = []
    for argv in readme_commands():
        assert argv[0] == "hvdcarb"
        runs.append((argv[1:], python("-m", "hvdcarb.cli", *argv[1:], cwd=cwd)))
    return cwd, runs


def test_the_readme_commands_succeed(readme_runs):
    cwd, runs = readme_runs
    assert len(runs) == 5
    for argv, child in runs:
        assert (child.returncode, child.stderr) == (0, ""), argv
        if "--out" in argv:
            assert (cwd / argv[argv.index("--out") + 1]).stat().st_size > 0, argv


def test_the_readme_table_is_what_case_ireland_prints(readme_runs):
    out = next(child.stdout for argv, child in readme_runs[1] if argv == ["case-ireland"])
    assert out.split("\n\n")[1] + "\n" == readme_block("### The case-study figures")


def test_the_readme_library_example(monkeypatch):
    monkeypatch.delenv("HVDCARB_DATA_DIR", raising=False)
    block = readme_block("## Library")
    namespace = {}
    exec(block, namespace)
    shown = " ".join(line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line)
    result = namespace["result"]
    totals = repr((result.grand_total, result.annualized))
    decision = repr(namespace["decision"])
    assert totals == "(52289.0, 458051640.0)"
    assert decision == (
        "FlowDecision(timestep=0, direction=<Direction.B_TO_A: 'B_to_A'>, "
        "quantity_mw=700.0, marginal_value=44.25, profit=30975.0)"
    )
    assert totals in shown and decision in shown


# Five levels of 9-way aliases, 227 bytes as lines, the last holding 9**5
# ones: a writer that expands aliases writes every one.
ALIAS_LEVELS = ["&a0 [1,1,1,1,1,1,1,1,1]"] + [
    f"&a{i} [{','.join([f'*a{i - 1}'] * 9)}]" for i in range(1, 5)
]
ALIAS_CHAIN = "".join(f"note{i}: {level}\n" for i, level in enumerate(ALIAS_LEVELS))

# 200 regions in a chain, each priced at its own timestep only: every linked
# region misses the other 199 timesteps.
CHAIN = 200
CHAIN_CONFIG = "".join(
    ["regions:\n", *(f"- id: r{i}\n" for i in range(CHAIN)), "links:\n"]
    + [f"- {{id: l{i}, from: r{i}, to: r{i + 1}, capacity_mw: 1.0, loss_fraction: 0.0}}\n"
       for i in range(CHAIN - 1)]
    + ["prices_csv: prices.csv\n"]
)
CHAIN_PRICES = "timestep,region_id,price_eur_mwh\n" + "".join(
    f"{i},r{i},1.0\n" for i in range(CHAIN)
)
REPEATED_IDS = (
    "- id: ireland\nlinks:\n"
    "- {id: moyle, from: ireland, to: scotland, capacity_mw: 1.0, loss_fraction: 0.0}\n"
)

# Case-study copies, by directory: the file each rewrites, and its new text
# from the bundled one.
DATA_DIRS = {
    "dated": ("expected.yaml", lambda text: text + "note: 2020-01-01\n"),
    "huge": ("expected.yaml", lambda text: f"totals: {{reported_eur: {10**400}}}\n"),
    "alias-chain": ("expected.yaml", lambda text: text + ALIAS_CHAIN),
    "alias-value": (
        "expected.yaml", lambda text: f"totals: {{reported_eur: [{', '.join(ALIAS_LEVELS)}]}}\n"
    ),
    "nan-computed": ("expected.yaml", lambda text: "links: {moyle: {computed_eur: .nan}}\n"),
    "long": ("network.yaml", lambda text: text.replace("500.0", "1" + "0" * 5000, 1)),
    "negative-capacity": ("network.yaml", lambda text: text.replace("500.0", "-5", 1)),
    "price-not-a-number": (
        "prices.csv", lambda text: text.replace("1,scotland,120.0", "1,scotland,abc")
    ),
    "to-7": ("network.yaml", lambda text: text.replace("to: scotland", "to: 7", 1)),
    "padded-id": ("network.yaml", lambda text: text.replace("id: ireland", 'id: " ireland"', 1)),
    "repeated-ids": ("network.yaml", lambda text: text.replace("links:\n", REPEATED_IDS, 1)),
    "null-name": ("network.yaml", lambda text: text.replace("name: Ireland", "name: null", 1)),
    "chain": ("network.yaml", lambda text: CHAIN_CONFIG),
    "to-aliases": (
        "network.yaml",
        lambda text: text.replace("to: scotland", f"to: [{', '.join(ALIAS_LEVELS)}]", 1),
    ),
}


def write_data_dirs(directory: Path) -> None:
    bundled = PACKAGE / "data" / "ireland"
    for name, (file, rewrite) in DATA_DIRS.items():
        shutil.copytree(bundled, directory / name)
        (directory / name / file).write_text(rewrite((bundled / file).read_text()))
    # the chain's own prices, which its config references
    (directory / "chain" / "prices.csv").write_text(CHAIN_PRICES)


@pytest.mark.parametrize(
    "argv, data_dir, code, named",
    [
        (["evaluate", "celtic", "-t", "1", "--out", "x"], None, 2, "--out"),
        (["schedule", "--form", "structured", "--o", "x"], None, 2, "--form"),
        (["schedule", "--from", "5", "--to", "2", "--out", "x"], None, 3, "horizon is empty"),
        (["wheel", "france", "ireland", "atlantis", "--via", "celtic", "moyle",
          "--quantity", "1", "--out", "x"], None, 4, "atlantis"),
        (["case-ireland", "--out", "x"], "dated", 2, "note"),
        (["case-ireland", "--out", "x"], "huge", 2, "reported_eur"),
        (["case-ireland", "--out", "x"], "alias-chain", 2, "note0"),
        (["case-ireland", "--out", "x"], "alias-value", 2, "reported_eur"),
        (["case-ireland", "--out", "x"], "nan-computed", 2, "computed_eur"),
        (["schedule", "--out", "x"], "long", 2, "network.yaml"),
        (["schedule", "--out", "x"], "to-7", 2, "'to'"),
        (["schedule", "--out", "x"], "to-aliases", 2, "'to'"),
        (["case-ireland", "--out", "x"], "negative-capacity", 3, "capacity_mw"),
        (["schedule", "--out", "x"], "padded-id", 3, "region id ' ireland'"),
        (["schedule", "--out", "x"], "repeated-ids", 3,
         "duplicate region id 'ireland'\n- duplicate interconnector id 'moyle'"),
        (["schedule", "--out", "x"], "chain", 3, "and 195 more sources"),
        (["schedule", "--out", "x"], "null-name", 2, "'name' must be a string"),
        (["case-ireland", "--out", "x"], "price-not-a-number", 2, "line 3: price 'abc'"),
        (["schedule", "--out", "missing/x"], None, 2, "missing/x"),
        (["wheel", "france", "ireland", "scotland", "--via", "celtic", "moyle",
          "--quantity", "1", "--out", "missing/x"], None, 2, "missing/x"),
        (["case-ireland", "--out", "missing/x"], None, 2, "missing/x"),
    ],
    ids=["flag-not-read", "abbreviated-flag", "empty-horizon", "unknown-region",
         "ledger-date", "ledger-int-too-large", "ledger-alias-chain", "ledger-alias-value",
         "ledger-nan-computed", "config-int-too-long", "config-link-to-7",
         "config-link-to-aliases", "config-negative-capacity", "config-padded-region-id",
         "config-repeated-ids", "prices-200-disjoint-horizons", "config-null-name",
         "price-not-a-number",
         "schedule-out-in-missing-dir", "wheel-out-in-missing-dir",
         "case-ireland-out-in-missing-dir"],
)
def test_a_refused_command_exits_with_its_code_and_writes_nothing(
    tmp_path, argv, data_dir, code, named
):
    """Its stderr is one message under 1 KB that names what is refused; a
    refused ledger's, config's or price file's message names the file too, once.
    An ``--out`` that cannot be opened prints none of the command's result."""
    write_data_dirs(tmp_path)
    data_dir = data_dir and tmp_path / data_dir
    child = python("-m", "hvdcarb.cli", *argv, cwd=tmp_path, data_dir=data_dir)
    assert (child.returncode, child.stdout) == (code, ""), child.stderr
    assert not (tmp_path / "x").exists() and not (tmp_path / "missing").exists()
    assert len(child.stderr.encode()) < 1024 and named in child.stderr, child.stderr[:1024]
    if data_dir:
        assert child.stderr.count(str(data_dir / DATA_DIRS[data_dir.name][0])) == 1
    assert not re.search(r"\binf\b", child.stderr)
    assert "Traceback" not in child.stderr


def test_schedule_on_a_2000_region_chain(tmp_path):
    # 500 times the case study's regions; test_model counts the lookups' comparisons.
    n = 2000
    regions = [Region(f"r{i}") for i in range(n)]
    links = [Interconnector(f"l{i}", f"r{i}", f"r{i + 1}", 100.0, 0.02) for i in range(n - 1)]
    series = [PriceSeries(f"r{i}", ((t, float(i % 7 + t)) for t in range(4))) for i in range(n)]
    save_network(Network(regions, links, series), tmp_path / "chain.yaml")
    child = python("-m", "hvdcarb.cli", "schedule", "--network", "chain.yaml", cwd=tmp_path)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.splitlines()[0] == f"links_scheduled: {n - 1}"


def test_importing_the_cli_imports_neither_typing_nor_json(tmp_path):
    child = python("-X", "importtime", "-c", "import hvdcarb.cli", cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    lines = child.stderr.splitlines()
    # the lines after site's are the imports that hvdcarb.cli causes
    site = next(i for i, line in enumerate(lines) if re.search(r"\| site$", line))
    caused = lines[site + 1:]
    assert caused[-1].endswith("| hvdcarb.cli")
    assert [line for line in caused if re.search(r"\|\s+(typing|json)(\.|$)", line)] == []
