"""Tests of the benchmark itself:

    python3 -m pytest knotbench/tests -q
"""

import inspect
import itertools

import numpy as np
import pytest

import knotqc
import knotqc.cli
from knotbench import checks, harness
from knotbench.tracing import TARGETS, Patches, SkeinCounter, SpanRecorder, knotqc_namespaces, self_times
from knotbench.workloads import WORKLOADS, Request


def _first_blocks(name, seed, count=3):
    return list(itertools.islice(WORKLOADS[name].blocks(seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_always_generates_the_same_requests(name):
    assert _first_blocks(name, 7) == _first_blocks(name, 7)
    assert _first_blocks(name, 7) != _first_blocks(name, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_run_has_a_hundred_requests_for_p90(name):
    workload = WORKLOADS[name]
    assert sum(len(b) for b in _first_blocks(name, 1, workload.min_blocks)) >= 100


def test_anyon_braids_are_all_distinct():
    requests = [r for block in _first_blocks("anyon", 3, 10) for r in block]
    assert len({(r.strands, r.letters) for r in requests}) == len(requests)


def test_timed_anyon_requests_never_hit_the_braid_matrix_cache():
    caches = harness.anyon_caches()
    harness.clear_caches(caches)
    harness.warm_up("anyon")
    before = caches["_braid_matrix"].cache_info()
    block = [r for r in next(WORKLOADS["anyon"].blocks(5)) if r.strands <= 10 or r.op == "trace"]
    counter = SkeinCounter()
    outcomes = [harness.send(i, r, counter) for i, r in enumerate(block)]
    after = caches["_braid_matrix"].cache_info()
    assert all(o.error is None for o in outcomes)
    assert after.hits == before.hits
    assert after.misses > before.misses


def _run_cli(argv):
    return harness._cli(argv)


def test_checker_accepts_and_flags_invariant_outputs():
    letters = (1, -2, 1, 1, -2, 3)
    for invariant, k, t in (("jones", None, None), ("homfly", None, None),
                            ("coeff", 1, None), ("burau", None, None),
                            ("burau", None, "0.6+0.8i")):
        req = Request("invariant", 4, letters, invariant=invariant, k=k, t=t)
        output = _run_cli(req.argv())
        assert checks.check_invariant(req, output) is None
        report = knotqc.InvariantReport.from_text(output)
        if invariant == "burau":
            corrupted = output.replace(report.value, report.value.replace("1", "2", 1))
        else:
            corrupted = output.replace(f"value={report.value}", f"value={report.value} + 1", 1)
        assert checks.check_invariant(req, corrupted) is not None, invariant


def test_checker_flags_a_corrupted_estimate_trace_and_table():
    req = Request("estimate", 8, (1, -2, 3, 4, -5, 6, 7, 1, 2), epsilon=0.3, delta=0.3, seed=1)
    output = _run_cli(req.argv())
    assert checks.check_estimate(req, output) is None
    report = knotqc.InvariantReport.from_text(output)
    shifted = report.estimate.real + 2 * req.epsilon * float(report.metadata["scale"])
    corrupted = output.replace(f"estimate_re={report.estimate.real!r}", f"estimate_re={shifted!r}")
    assert checks.check_estimate(req, corrupted) is not None

    trace = Request("trace", 8, (1, -2, 3, 4, -5, 6, 7, 1, 2))
    value = knotqc.jones_via_trace(knotqc.BraidWord(8, trace.letters))
    assert checks.check_trace_against_skein(trace, value) is None
    assert checks.check_trace_against_skein(trace, value + 1e-6) not in (None, False)
    assert checks.check_trace(complex("nan")) is not None

    table = Request("table", 3, maxlen=4)
    output = _run_cli(["table", "--strands", "3", "--maxlen", "4"])
    assert checks.check_table(table, output) is None
    swapped = output.replace("'-s^8 + s^6 + s^2'", "'s^8 + s^6 + s^2'")
    assert swapped != output
    assert checks.check_table(table, swapped) is not None
    assert checks.check_table(table, output.replace("groups=4", "groups=5")) is not None


def test_check_outcomes_counts_a_wrong_output_as_failed():
    req = Request("invariant", 3, (1, 1, 1), invariant="jones")
    good = harness.Outcome(0, req, 0.001, _run_cli(req.argv()))
    bad = harness.Outcome(1, req, 0.001, good.output.replace("value=", "value=2*", 1))
    failures, coverage = harness.check_outcomes([good, bad], seed=1)
    assert list(failures) == [1]
    assert coverage["outputs"] == 2


def test_self_time_subtracts_only_direct_children():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_spans_record_parents_and_requests():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    recorder.request_id = 4
    assert outer(1) == 4
    spans = recorder.arrays()
    assert [recorder.names[i] for i in spans["name"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["request"].tolist() == [4, 4]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]


def _bindings():
    """Every attribute of every knotqc module and knotqc class."""
    snapshot = {}
    for namespace in knotqc_namespaces():
        for name, value in vars(namespace).items():
            snapshot[(namespace.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("knotqc"):
                for attr, member in vars(value).items():
                    snapshot[(value.__module__, value.__qualname__, attr)] = member
    return snapshot


def test_every_wrapped_attribute_is_restored():
    before = _bindings()
    main, imported = knotqc.cli.main, knotqc.cli.homfly_with_stats
    recorder = SpanRecorder()
    with Patches() as patches:
        recorder.install(patches)
        assert knotqc.cli.main is not main
        # The name cli imported from skein is wrapped too.
        assert knotqc.cli.homfly_with_stats is not imported
        assert knotqc.cli.homfly_with_stats is knotqc.skein.homfly_with_stats
        _run_cli(["invariant", "--braid", "1 -2 1 1", "--invariant", "jones"])
    assert len(recorder) > 0
    assert {recorder.names[i] for i in recorder.arrays()["name"]} >= {
        "cli.main", "skein.homfly_with_stats", "diagram.canonical_key", "laurent.mul"}
    assert recorder.skein.nodes > 0
    assert _bindings() == before


def test_every_target_exists():
    with Patches() as patches:
        assert SpanRecorder().install(patches, TARGETS) == []


def test_layer_metrics_cover_every_layer_even_when_idle():
    metrics = SpanRecorder().layer_metrics()
    assert set(metrics) == {
        "cli.self_ms", "braid.self_ms", "braid.calls", "diagram.canonical_key_ms",
        "diagram.canonical_key_calls", "diagram.construct_ms", "diagram.construct_calls",
        "diagram.edit_ms", "skein.self_ms", "laurent.arith_ms", "laurent.arith_calls",
        "laurent.specialize_ms", "burau.self_ms", "burau.calls", "anyon.estimate_ms",
        "anyon.trace_ms", "anyon.generator_build_ms",
    }
    assert all(value == 0 for value in metrics.values())
