"""In-process traced run of one benchmark job.

Usage: python tracer.py SPEC_JSON RESULT_JSON SPANS_JSON

Runs the job's commands in this process, alternating an untraced job with a
traced one until the spec's time is used. For a traced job, the package's
public functions are wrapped where their callers look them up (for example
``hvdcarb.cli.load_network`` and ``hvdcarb.dataio.yaml.safe_load``); each
call records a span (id, name, parent, start, end, attributes) in memory.
Spans are written to SPANS_JSON when the run ends. The per-layer metrics are
derived from them: ``self_s`` is a span's duration minus the part its child
spans cover. Calls too frequent for a span (the per-step arbitrage call) are
only counted. The package itself is not modified.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hvdcarb
import hvdcarb.cli
import hvdcarb.dataio
import hvdcarb.model
import hvdcarb.scheduler

import libdriver

class Recorder:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, start_ns, end_ns, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.used: dict[str, set] = defaultdict(set)  # region -> timesteps read
        self.rows_used = 0
        self._installed: list[tuple] = []

    def span(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, self.stack[-1] if self.stack else None, 0, 0, None]
            self.spans.append(span)
            self.stack.append(span[0])
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[3], span[4] = start, time.perf_counter_ns()
                self.stack.pop()
            if annotate is not None:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rows(self, args, kwargs, result):
        return {"rows": sum(len(s.steps) for s in result.values())}

    def _link_rows(self, args, kwargs, result):
        for series in args[:2]:
            self.used[series.region_id].update(series.timesteps)
        return {"steps": len(result.decisions)}

    def _price_row(self, args, kwargs, result):
        self.used[args[0].region_id].add(args[1])

    def _report(self, args, kwargs, result):
        fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "csv")
        return {"fmt": fmt, "bytes": len(result.encode("utf-8"))}

    def targets(self):
        cli, dataio, model, sched = hvdcarb.cli, hvdcarb.dataio, hvdcarb.model, hvdcarb.scheduler
        span, count = self.span, self.count
        return [
            (cli, "main", lambda f: span("cli.main", f)),
            (cli, "load_network", lambda f: span("dataio.load_network", f)),
            (dataio, "load_network", lambda f: span("dataio.load_network", f)),
            (hvdcarb, "load_network", lambda f: span("dataio.load_network", f)),
            (cli, "load_case_study", lambda f: span("dataio.load_case_study", f)),
            (cli, "load_prices", lambda f: span("dataio.load_prices", f, self._rows)),
            (dataio, "load_prices", lambda f: span("dataio.load_prices", f, self._rows)),
            (dataio.yaml, "safe_load", lambda f: span("dataio.yaml_load", f)),
            (cli, "validate_network", lambda f: span("model.validate_network", f)),
            (dataio, "validate_network", lambda f: span("model.validate_network", f)),
            (model.Network, "with_prices", lambda f: span("model.with_prices", f)),
            (model.PriceSeries, "restricted", lambda f: span("model.restricted", f)),
            (model.PriceSeries, "price_at", lambda f: span("model.price_at", f, self._price_row)),
            (cli, "schedule_portfolio", lambda f: span("scheduler.schedule_portfolio", f)),
            (hvdcarb, "schedule_portfolio", lambda f: span("scheduler.schedule_portfolio", f)),
            (sched, "schedule_link", lambda f: span("scheduler.schedule_link", f, self._link_rows)),
            (sched, "optimal_flow", lambda f: count("arbitrage.optimal_flow", f)),
            (cli, "optimal_flow", lambda f: count("arbitrage.optimal_flow", f)),
            (cli, "write_report", lambda f: span("dataio.write_report", f, self._report)),
            (cli, "evaluate_wheel", lambda f: span("wheeling.evaluate_wheel", f)),
        ]

    def install(self):
        for obj, attr, make in self.targets():
            original = obj.__dict__[attr]
            self._installed.append((obj, attr, original))
            setattr(obj, attr, make(original))

    def uninstall(self):
        for obj, attr, original in reversed(self._installed):
            setattr(obj, attr, original)
        self._installed.clear()

    def end_command(self):
        self.rows_used += sum(len(ts) for ts in self.used.values())
        self.used.clear()

    def take(self):
        """Spans, counts and rows used since the last take."""
        out = (self.spans, dict(self.counts), self.rows_used)
        self.spans, self.counts, self.rows_used = [], defaultdict(int), 0
        return out


def _dur(span) -> float:
    return (span[4] - span[3]) / 1e9


def layer_metrics(spans, counts, rows_used, wall_s) -> dict[str, float]:
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[2] is not None:
            children[s[2]].append(s)

    def self_s(s) -> float:
        covered, cursor = 0, s[3]
        for c in sorted(children[s[0]], key=lambda c: c[3]):
            lo, hi = max(c[3], cursor), min(c[4], s[4])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (s[4] - s[3] - covered) / 1e9

    def total(name, keep=lambda s: True, of=_dur) -> float:
        return sum(of(s) for s in by_name[name] if keep(s))

    def attr(name, key) -> int:
        return sum((s[5] or {}).get(key, 0) for s in by_name[name])

    def is_fmt(fmt):
        return lambda s: (s[5] or {}).get("fmt") == fmt

    def failed(s):
        return bool(s[5] and "error" in s[5])

    rows = attr("dataio.load_prices", "rows")
    link_steps = attr("scheduler.schedule_link", "steps")
    link_s = total("scheduler.schedule_link", lambda s: not failed(s))
    return {
        "cli.main.self_s": total("cli.main", of=self_s),
        "dataio.load_prices.s": total("dataio.load_prices"),
        "dataio.load_prices.calls": len(by_name["dataio.load_prices"]),
        "dataio.load_prices.rows": rows,
        "dataio.load_prices.rows_used_ratio": rows_used / rows if rows else 0.0,
        "dataio.yaml_load.s": total("dataio.yaml_load"),
        "dataio.load_network.self_s": total("dataio.load_network", of=self_s),
        "dataio.write_report.csv_s": total("dataio.write_report", is_fmt("csv")),
        "dataio.write_report.structured_s": total("dataio.write_report", is_fmt("structured")),
        "dataio.write_report.bytes": attr("dataio.write_report", "bytes"),
        "model.validate_network.s": total("model.validate_network"),
        "model.validate_network.calls": len(by_name["model.validate_network"]),
        "model.with_prices.s": total("model.with_prices"),
        "model.restricted.s": total("model.restricted"),
        "model.price_at.s": total("model.price_at"),
        "model.price_at.calls": len(by_name["model.price_at"]),
        "scheduler.schedule_portfolio.self_s": total("scheduler.schedule_portfolio", of=self_s),
        "scheduler.schedule_link.s": link_s,
        "scheduler.schedule_link.link_steps": link_steps,
        "scheduler.schedule_link.s_per_link_step": link_s / link_steps if link_steps else 0.0,
        "scheduler.schedule_link.error_s": total("scheduler.schedule_link", failed),
        "arbitrage.optimal_flow.calls": counts.get("arbitrage.optimal_flow", 0),
        "wheeling.evaluate_wheel.s": total("wheeling.evaluate_wheel"),
        "wheeling.evaluate_wheel.calls": len(by_name["wheeling.evaluate_wheel"]),
        "trace.unattributed_s": wall_s - sum(_dur(s) for s in spans if s[2] is None),
    }


def run_command(driver: str, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if driver == "cli":
                code = hvdcarb.cli.main(argv)
            else:
                code = libdriver.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_job(spec, recorder: Recorder | None) -> tuple[float, dict]:
    results = {}
    start = time.perf_counter()
    for name, argv, _ in spec["commands"]:
        results[name] = run_command(spec["driver"], argv)
        if recorder is not None:
            recorder.end_command()
    wall = time.perf_counter() - start
    record = {}
    for name, _, out in spec["commands"]:
        code, stdout, stderr = results[name]
        sha = None
        if out is not None and Path(out).exists():
            sha = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        record[name] = {"exit": code, "stdout": stdout, "stderr": stderr[-2000:], "out_sha": sha}
    return wall, record


def main(spec_path: str, result_path: str, spans_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    recorder = Recorder()
    untraced, traced, layers, all_spans = [], [], [], []
    start = time.perf_counter()
    # Warm-up job, not reported: first calls fill the interpreter's lazy caches.
    records = [run_job(spec, None)[1]]
    while True:
        wall, record = run_job(spec, None)
        untraced.append(wall)
        records.append(record)
        recorder.install()
        try:
            wall, record = run_job(spec, recorder)
        finally:
            recorder.uninstall()
        spans, counts, rows_used = recorder.take()
        traced.append(wall)
        records.append(record)
        layers.append(layer_metrics(spans, counts, rows_used, wall))
        all_spans.append({"job": len(traced) - 1, "counts": counts, "spans": spans})
        pair = untraced[-1] + traced[-1]
        # Stop at the pair boundary nearest to the deadline.
        if time.perf_counter() - start + pair / 2 > spec["seconds"]:
            break

    metrics = {
        name: statistics.median(job[name] for job in layers) for name in layers[0]
    }
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) - metrics["trace.untraced_s"]
    ) / metrics["trace.untraced_s"]
    Path(spans_path).write_text(
        json.dumps({"fields": ["id", "name", "parent", "start_ns", "end_ns", "attrs"], "jobs": all_spans}),
        encoding="utf-8",
    )
    Path(result_path).write_text(
        json.dumps({"metrics": metrics, "untraced_s": untraced, "traced_s": traced, "records": records}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
