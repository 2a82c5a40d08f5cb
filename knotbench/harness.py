"""Closed loop: one client in one thread sends each request as soon
as the previous one has answered. Requests go through ``knotqc.cli.main``
in-process with stdout captured; exact traces call
``knotqc.jones_via_trace``, which no CLI command reaches.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import random
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import knotqc
import knotqc.anyon
import knotqc.cli

from . import checks
from .tracing import Patches, SkeinCounter, SpanRecorder
from .workloads import BURAU_POINT, Request, Workload

SETUP_REPEATS = 5
_WARM_BRAID = "n=3 1 -2 1 1"


class RequestFailed(Exception):
    """The CLI answered with a nonzero exit code."""


@dataclass
class Outcome:
    index: int
    request: Request
    latency_s: float
    output: str | complex | None
    error: str | None = None
    skein_nodes: int = 0
    skein_memo_hits: int = 0

    def normalized(self) -> str:
        """The output without its timing, as the fingerprint digests it."""
        if self.error is not None:
            return f"error {self.error}"
        if isinstance(self.output, complex):
            return f"{self.output.real:.10g}{self.output.imag:+.10g}i"
        return "\n".join(
            line for line in self.output.splitlines() if not line.startswith("time_ms=")
        )


def anyon_caches() -> dict:
    """The anyon module's lru_caches, looked up before anything is wrapped."""
    return {name: f for name, f in vars(knotqc.anyon).items() if hasattr(f, "cache_info")}


def clear_caches(caches: dict) -> None:
    for cache in caches.values():
        cache.cache_clear()


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = knotqc.cli.main(argv)
    if code != 0:
        raise RequestFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def send(index: int, req: Request, counter: SkeinCounter) -> Outcome:
    if req.op == "trace":
        word = knotqc.BraidWord(req.strands, req.letters)
        call = lambda: knotqc.jones_via_trace(word)  # noqa: E731
    else:
        argv = req.argv()
        call = lambda: _cli(argv)  # noqa: E731
    nodes, hits = counter.nodes, counter.memo_hits
    start = time.perf_counter()
    try:
        output, error = call(), None
    except Exception as exc:  # a failed request is counted, and the loop goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return Outcome(index, req, latency, output, error,
                   counter.nodes - nodes, counter.memo_hits - hits)


def warm_up(workload: str) -> None:
    """Untimed first calls; for anyon, every generator of every strand
    count the workload uses, which fills the sigma_unitary cache."""
    if workload == "invariant":
        for extra in (["jones"], ["homfly"], ["coeff", "--k", "0"], ["burau"],
                      ["burau", "--t", BURAU_POINT]):
            _cli(["invariant", "--braid", _WARM_BRAID, "--invariant"] + extra)
    elif workload == "table":
        _cli(["table", "--strands", "2", "--maxlen", "4"])
    else:
        for n in range(8, 15):
            word = knotqc.BraidWord(n, tuple(range(1, n)))
            knotqc.jones_via_trace(word)
            if n <= 12:
                _cli(["estimate", "--braid", word.to_text(), "--epsilon", "0.5",
                      "--delta", "0.5"])


def set_up(workload: Workload, seed: int, caches: dict):
    """Generate the inputs and warm up, from cold caches, SETUP_REPEATS
    times; returns the median time, the number of requests in the
    min_blocks the fingerprint covers, and the block stream."""
    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches(caches)
        start = time.perf_counter()
        blocks = workload.blocks(seed)
        prefix = [next(blocks) for _ in range(workload.min_blocks)]
        warm_up(workload.name)
        times.append(time.perf_counter() - start)
    prefix_len = sum(len(block) for block in prefix)
    return statistics.median(times), prefix_len, itertools.chain(prefix, blocks)


def closed_loop(blocks, min_blocks: int, seconds: float, counter: SkeinCounter):
    """Whole blocks, at least min_blocks, until ``seconds`` have passed."""
    outcomes: list[Outcome] = []
    done = 0
    start = time.perf_counter()
    while done < min_blocks or time.perf_counter() - start < seconds:
        for req in next(blocks):
            outcomes.append(send(len(outcomes), req, counter))
        done += 1
    return outcomes, time.perf_counter() - start, done


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def estimate_samples(outcomes) -> int:
    total = 0
    for o in outcomes:
        if o.request.op == "estimate" and o.error is None:
            total += int(knotqc.InvariantReport.from_text(o.output).metadata["total_samples"])
    return total


def fingerprint(outcomes: list[Outcome]) -> dict:
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(f"{o.index}:{o.normalized()}\n".encode())
    return {
        "requests": len(outcomes),
        "skein.nodes": sum(o.skein_nodes for o in outcomes),
        "skein.memo_hits": sum(o.skein_memo_hits for o in outcomes),
        "anyon.samples": estimate_samples(outcomes),
        "digest": digest.hexdigest()[:16],
    }


def check_outcomes(outcomes: list[Outcome], seed: int) -> tuple[dict[int, str], dict]:
    """Failures by request index, and what the checks covered."""
    failures: dict[int, str] = {}
    table_verdicts: dict[str, str | None] = {}
    traces: list[Outcome] = []
    for o in outcomes:
        if o.error is not None:
            failures[o.index] = o.error
            continue
        op = o.request.op
        try:
            if op == "invariant":
                reason = checks.check_invariant(o.request, o.output)
            elif op == "estimate":
                reason = checks.check_estimate(o.request, o.output)
            elif op == "trace":
                reason = checks.check_trace(o.output)
                traces.append(o)
            else:
                if o.output not in table_verdicts:
                    table_verdicts[o.output] = checks.check_table(o.request, o.output)
                reason = table_verdicts[o.output]
        except Exception as exc:  # an output the checker cannot read is wrong
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[o.index] = reason
    random.Random(seed).shuffle(traces)
    skein_checked = skein_skipped = 0
    for o in traces:
        if skein_checked == checks.TRACE_SKEIN_CHECKS or skein_skipped == checks.TRACE_SKEIN_PASSES:
            break
        if o.index in failures:
            continue
        reason = checks.check_trace_against_skein(o.request, o.output)
        if reason is False:
            skein_skipped += 1
        else:
            skein_checked += 1
            if reason is not None:
                failures[o.index] = reason
    coverage = {
        "outputs": len(outcomes),
        "distinct_tables": len(table_verdicts),
        "traces_vs_skein": skein_checked,
        "traces_over_skein_budget": skein_skipped,
    }
    return failures, coverage


@dataclass
class Result:
    attempted: int
    failures: dict[int, str]
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    fingerprint: dict


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: Path) -> Result:
    caches = anyon_caches()
    setup_s, prefix_len, blocks = set_up(workload, seed, caches)
    counter = SkeinCounter()
    hits = {name: cache.cache_info().hits for name, cache in caches.items()}
    with Patches() as patches:
        counter.install(patches)
        outcomes, wall, done = closed_loop(
            blocks, workload.min_blocks, 0 if trace else seconds, counter
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = [
        f"workload={workload.name} seed={seed} blocks={done} requests={len(outcomes)} "
        f"wall_s={wall:.3f}",
        "anyon cache hits while timed: " + " ".join(
            f"{name}={cache.cache_info().hits - hits[name]}" for name, cache in caches.items()
        ),
    ]
    if trace:
        metrics, replay_failures = _traced_replay(workload, outcomes, wall, caches, out_dir, notes)
    else:
        metrics, replay_failures = {}, {}
    failures, coverage = check_outcomes(outcomes, seed)
    for index, reason in replay_failures.items():
        failures.setdefault(index, reason)
    notes.append("checks " + " ".join(f"{k}={v}" for k, v in coverage.items()))
    if not trace:
        metrics = _end_to_end(outcomes, failures, wall, setup_s + import_s, peak_rss_mb, notes)
        notes.append(f"setup_s = median knotqc import {import_s:.4f} s + median of "
                     f"{SETUP_REPEATS} generate-and-warm-up runs {setup_s:.4f} s")
    return Result(len(outcomes), failures, metrics, notes,
                  fingerprint(outcomes[:prefix_len]))


def _end_to_end(outcomes, failures, wall, setup_s, peak_rss_mb, notes):
    latencies = sorted(
        math.inf if o.index in failures else o.latency_s for o in outcomes
    )
    n = len(latencies)
    beyond_p90 = n - math.ceil(0.9 * n)
    notes.append(f"latency samples={n} beyond_p90={beyond_p90}")
    if beyond_p90 < 10:
        raise RuntimeError(f"only {beyond_p90} samples beyond p90; need 10")
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": ((n - len(failures)) / wall, "1/s"),
        "latency_p50_ms": (1000.0 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000.0 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _traced_replay(workload, outcomes, untraced_wall, caches, out_dir, notes):
    """Replays the untraced requests with every layer wrapped, from the
    same cache state; returns the per-layer metrics and any request whose
    traced output differs."""
    clear_caches(caches)
    recorder = SpanRecorder()
    with Patches() as patches:
        missing = recorder.install(patches)
        warm_up(workload.name)
        start = time.perf_counter()
        replay = []
        for o in outcomes:
            recorder.request_id = o.index
            replay.append(send(o.index, o.request, recorder.skein))
        traced_wall = time.perf_counter() - start
    failures = {
        o.index: "traced output differs from untraced output"
        for o, r in zip(outcomes, replay) if o.normalized() != r.normalized()
    }
    metrics = recorder.layer_metrics()
    infos = [c.cache_info() for c in caches.values()]
    lookups = sum(i.hits + i.misses for i in infos)
    metrics.update({
        "skein.nodes": recorder.skein.nodes,
        "skein.memo_hits": recorder.skein.memo_hits,
        "skein.memo_hit_ratio": recorder.skein.memo_hits / recorder.skein.nodes
        if recorder.skein.nodes else 0.0,
        "anyon.samples": estimate_samples(replay),
        "anyon.cache_entries": sum(i.currsize for i in infos),
        "anyon.cache_hit_ratio": sum(i.hits for i in infos) / lookups if lookups else 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.npz"
    recorder.save(spans_path)
    if missing:
        notes.append("not traced, gone from the program: " + " ".join(missing))
    notes.append(
        f"traced replay: {len(recorder)} spans, wall_s={traced_wall:.3f} vs untraced "
        f"{untraced_wall:.3f}, spans in {spans_path.name}"
    )
    return {name: (value, _unit(name)) for name, value in metrics.items()}, failures


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"
