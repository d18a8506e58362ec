"""Checks that need a fresh interpreter, each run as a child process."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_imports_neither_typing_nor_json(tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hvdcarb.cli"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    lines = child.stderr.splitlines()
    # the lines after site's are the imports that hvdcarb.cli causes
    site = next(i for i, line in enumerate(lines) if re.search(r"\| site$", line))
    caused = lines[site + 1:]
    assert caused[-1].endswith("| hvdcarb.cli")
    assert [line for line in caused if re.search(r"\|\s+(typing|json)(\.|$)", line)] == []
