"""hvdcarb benchmark: seeded inputs, fixed jobs of fresh processes, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. The driver generates the workload's
inputs from the seed, then runs its job (a fixed list of commands, one fresh
process each, back to back) again and again for S seconds. The program sees
only generated files and argv; every output is checked by check.py.

--trace 0 reports the end-to-end metrics: job wall time (median and tail),
CPU time of the job's processes, set-up time (a fresh interpreter importing
the workload's entry module) and peak memory. --trace 1 runs the job in
process under tracer.py instead and reports the per-layer metrics. The last
line of standard output is one JSON object with the result; details of the
run (input descriptors, samples, output hashes, spans) are written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "job_s": "s",
    "job_s_tail": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "python.startup_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "dataio.load_prices.s": "s",
    "dataio.load_prices.calls": "count",
    "dataio.load_prices.rows": "count",
    "dataio.load_prices.rows_used_ratio": "ratio",
    "dataio.yaml_load.s": "s",
    "dataio.load_network.self_s": "s",
    "dataio.write_report.csv_s": "s",
    "dataio.write_report.structured_s": "s",
    "dataio.write_report.bytes": "bytes",
    "model.validate_network.s": "s",
    "model.validate_network.calls": "count",
    "model.with_prices.s": "s",
    "model.restricted.s": "s",
    "model.price_at.s": "s",
    "model.price_at.calls": "count",
    "scheduler.schedule_portfolio.self_s": "s",
    "scheduler.schedule_link.s": "s",
    "scheduler.schedule_link.link_steps": "count",
    "scheduler.schedule_link.s_per_link_step": "s",
    "scheduler.schedule_link.error_s": "s",
    "arbitrage.optimal_flow.calls": "count",
    "wheeling.evaluate_wheel.s": "s",
    "wheeling.evaluate_wheel.calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.untraced_s": "s",
    "trace.unattributed_s": "s",
}

# What the installed console script `hvdcarb` runs.
LAUNCH = "import sys\nfrom hvdcarb.cli import main\nsys.exit(main())"
PROCESS_TIMEOUT_S = 60
# Fresh interpreters timed per run for set-up metrics; the median is reported.
SETUP_REPEATS = 9
# The tail is the slowest job that still has this many slower jobs beyond it.
TAIL_BEYOND = 10


def spawn(argv, cwd: Path, env, stdout: Path | None = None, stderr: Path | None = None,
          timeout: float = PROCESS_TIMEOUT_S) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, user+sys CPU s, max RSS MB, exit code)."""
    with open(stdout or os.devnull, "wb") as out, open(stderr or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HVDCARB_DATA_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def command_argv(job: workloads.Job, cmd: workloads.Command) -> list[str]:
    if job.driver == "cli":
        return [sys.executable, "-c", LAUNCH, *cmd.argv]
    return [sys.executable, str(HERE / "libdriver.py"), *cmd.argv]


def run_job(job: workloads.Job, d: Path, env) -> dict:
    cpu, rss, codes = 0.0, 0.0, {}
    start = time.perf_counter()
    for cmd in job.commands:
        _, c, m, codes[cmd.name] = spawn(
            command_argv(job, cmd), d, env, d / f"{cmd.name}.stdout", d / f"{cmd.name}.stderr"
        )
        cpu += c
        rss = max(rss, m)
    wall = time.perf_counter() - start
    record = {
        cmd.name: {
            "exit": codes[cmd.name],
            "stdout": (d / f"{cmd.name}.stdout").read_text(encoding="utf-8", errors="replace"),
            "stderr": (d / f"{cmd.name}.stderr").read_text(encoding="utf-8", errors="replace")[-2000:],
            "out_sha": check.file_sha(d / cmd.out) if cmd.out else None,
        }
        for cmd in job.commands
    }
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "cmds": record}


def interpreter_s(codes: list[str], d: Path, env, checks: check.Checks) -> list[float]:
    """Median wall time of a fresh interpreter running each snippet, interleaved."""
    samples = [[] for _ in codes]
    for i in range(SETUP_REPEATS + 1):
        for code, out in zip(codes, samples):
            wall, _, _, exit_code = spawn([sys.executable, "-c", code], d, env)
            if i == 0:  # warm-up: compiles bytecode, fills the file cache
                checks.expect(f"interpreter {code!r}", None if exit_code == 0 else f"exit {exit_code}")
            else:
                out.append(wall)
    return [statistics.median(s) for s in samples]


def _validate(path: Path, sha: str | None, validate) -> str | None:
    if sha is None:
        return "not written"
    if check.file_sha(path) != sha:
        return "output differs between jobs, so this job's copy was not checked"
    return validate(path.read_text(encoding="utf-8"))


def check_records(job: workloads.Job, d: Path, records: list[dict], checks: check.Checks) -> None:
    for rec in records:
        shas = {}
        for cmd in job.commands:
            r = rec[cmd.name]
            checks.expect(
                f"{cmd.name} exit code",
                None if r["exit"] == 0 else f"exit {r['exit']}: {r['stderr'][-300:]!r}",
            )
            checks.expect(f"{cmd.name} stdout", cmd.stdout(r["stdout"]))
            if cmd.out is not None:
                sha = shas[cmd.out] = r["out_sha"]
                checks.expect(
                    f"{cmd.name} {cmd.out}",
                    checks.verdict((cmd.out, sha), lambda: _validate(d / cmd.out, sha, cmd.out_check)),
                )
        for a, b, agree in job.cross:
            checks.expect(
                f"{a} vs {b}",
                checks.verdict(
                    (a, shas[a], b, shas[b]),
                    lambda: agree((d / a).read_text(encoding="utf-8"), (d / b).read_text(encoding="utf-8")),
                ),
            )


def output_hashes(job: workloads.Job, record: dict) -> dict[str, str | None]:
    """sha256 of every output of one job (stdout and report files), for byte stability."""
    hashes = {}
    for cmd in job.commands:
        r = record[cmd.name]
        hashes[f"{cmd.name}.stdout"] = hashlib.sha256(r["stdout"].encode("utf-8")).hexdigest()
        if cmd.out is not None:
            hashes[cmd.out] = r["out_sha"]
    return hashes


def tail(samples: list[float]) -> tuple[float, dict]:
    """Highest order statistic with TAIL_BEYOND samples beyond it, or the median.

    With fewer than 2 * TAIL_BEYOND + 1 samples that order statistic lies at
    or below the median, and the median is reported instead. The description
    says which it is and how many samples the run had.
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n > 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], {"statistic": f"p{100 * rank / n:.0f}", "rank": rank, "samples": n}
    return median, {"statistic": "median", "samples": n}


def measure(job: workloads.Job, d: Path, env, seconds: int, checks: check.Checks):
    entry_s, = interpreter_s([f"import {job.entry}"], d, env, checks)
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run_job(job, d, env))
        # Stop at the job boundary nearest to the deadline.
        if time.perf_counter() - start + jobs[-1]["wall_s"] / 2 > seconds:
            break
    check_records(job, d, [j["cmds"] for j in jobs], checks)
    walls = [j["wall_s"] for j in jobs]
    tail_s, tail_info = tail(walls)
    metrics = {
        "job_s": statistics.median(walls),
        "job_s_tail": tail_s,
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "setup_s": entry_s,
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
    }
    detail = {
        "job_tail": tail_info,
        "jobs": [{k: j[k] for k in ("wall_s", "cpu_s", "rss_mb")} for j in jobs],
        "output_sha256": output_hashes(job, jobs[-1]["cmds"]),
    }
    return metrics, detail


def measure_traced(job: workloads.Job, d: Path, env, seconds: int, checks: check.Checks):
    startup_s, entry_s = interpreter_s(["pass", f"import {job.entry}"], d, env, checks)
    spec = {
        "driver": job.driver,
        "commands": [[cmd.name, cmd.argv, cmd.out] for cmd in job.commands],
        "seconds": seconds,
    }
    (d / "trace_spec.json").write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(HERE / "tracer.py"), "trace_spec.json", "trace_result.json", "spans.json"]
    _, _, _, code = spawn(argv, d, env, d / "tracer.stdout", d / "tracer.stderr", timeout=150)
    if code != 0:
        raise RuntimeError(
            f"traced run failed (exit {code}): {(d / 'tracer.stderr').read_text()[-2000:]}"
        )
    result = json.loads((d / "trace_result.json").read_text(encoding="utf-8"))
    check_records(job, d, result["records"], checks)
    metrics = {
        "python.startup_s": startup_s,
        "cli.import_s": entry_s - startup_s,
        **result["metrics"],
    }
    detail = {
        "untraced_s": result["untraced_s"],
        "traced_s": result["traced_s"],
        "spans": "spans.json",
        "output_sha256": output_hashes(job, result["records"][-1]),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On termination, unwind through spawn() so that the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hvdcarb" / "cli.py").is_file():
        print(f"error: no hvdcarb sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    d = OUT / args.workload
    shutil.rmtree(d, ignore_errors=True)
    (d / "inputs").mkdir(parents=True)
    job = workloads.WORKLOADS[args.workload](args.seed, d / "inputs")
    env = child_env()
    checks = check.Checks()
    if args.trace:
        metrics, detail = measure_traced(job, d, env, args.seconds, checks)
        units = PER_LAYER
    else:
        metrics, detail = measure(job, d, env, args.seconds, checks)
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match the declared set")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": job.descriptor,
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "metrics": metrics,
        **detail,
    }
    (d / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name:40} {value:14.6g} {units[name]}", file=sys.stderr)
    if not args.trace:
        t = detail["job_tail"]
        print(f"job_s_tail is the {t['statistic']} of {t['samples']} jobs", file=sys.stderr)
    print(
        f"checks: {checks.attempted} attempted, {checks.failed} failed "
        f"(failed_frac {checks.failed / checks.attempted:.4g})",
        file=sys.stderr,
    )
    for failure in checks.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
