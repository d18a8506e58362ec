"""Library driver for the misaligned-capacity workload.

Usage: python libdriver.py NETWORK_YAML CAPACITY_JSON OUT_JSON SHIFTED_LINK

Loads the network and one dynamic capacity profile per link, schedules the
portfolio with the profiles aligned, then again with SHIFTED_LINK's profile
moved one step later, which must fail. OUT_JSON records what happened; the
benchmark's checker judges it. Library names are looked up on the package at
call time, so a traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import hvdcarb


def run(argv: list[str]) -> int:
    network_path, capacity_path, out_path, shifted = argv
    network = hvdcarb.load_network(network_path)
    doc = json.loads(Path(capacity_path).read_text(encoding="utf-8"))
    timesteps = doc["timesteps"]
    profiles = {
        link_id: hvdcarb.CapacityProfile(link_id, tuple(zip(timesteps, caps)))
        for link_id, caps in doc["capacity_mw"].items()
    }
    bias = hvdcarb.BiasPolicy(5.0)

    result = hvdcarb.schedule_portfolio(network, profiles, bias, 1.0)
    lines = "\n".join(
        f"{d.timestep},{s.interconnector_id},{d.direction.value},"
        f"{d.quantity_mw!r},{d.marginal_value!r},{d.profit!r}"
        for s in result.schedules
        for d in s.decisions
    )
    aligned = {
        "grand_total_eur": repr(result.grand_total),
        "annualized_eur": repr(result.annualized),
        "totals": {s.interconnector_id: repr(s.total_profit) for s in result.schedules},
        "decisions_sha256": hashlib.sha256(lines.encode()).hexdigest(),
    }

    moved = profiles[shifted]
    profiles[shifted] = hvdcarb.CapacityProfile(
        shifted, tuple((t + 1, x) for t, x in moved.steps)
    )
    try:
        hvdcarb.schedule_portfolio(network, profiles, bias, 1.0)
        outcome = {"error_type": None}
    except hvdcarb.HvdcArbError as exc:
        outcome = {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "missing": {k: list(v) for k, v in getattr(exc, "missing", {}).items()},
        }
    Path(out_path).write_text(
        json.dumps({"aligned": aligned, "shifted": outcome}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
