"""`knotqc.hecke`, the Hecke-algebra engine behind `knotqc table`, against
the skein recursion."""

import random
import time

import pytest

from knotqc import hecke, skein
from knotqc.braid import BraidWord
from knotqc.errors import BudgetExceededError
from knotqc.skein import SkeinBudget

from helpers import run


def _seeded_words(count: int, seed: int) -> list[BraidWord]:
    """Words of 1-5 strands and 0-11 letters of both signs; a third of them
    draw from a subset of the generators, so they close to split links and
    leave strands free."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(1, 5)
        gens = list(range(1, n))
        if gens and rng.random() < 1 / 3:
            gens = rng.sample(gens, rng.randint(1, len(gens)))
        length = rng.randint(0, 11) if gens else 0
        words.append(BraidWord(n, tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(length))))
    return words


def test_hecke_equals_skein_on_seeded_braids():
    words = _seeded_words(240, 2024)
    for word in words:
        assert hecke.homfly(word) == skein.homfly(word), word
    used = [{abs(e) for e in w.letters} for w in words]
    assert sum(not w.letters for w in words) >= 5
    assert sum(w.closure_components() > 1 for w in words) >= 50
    assert sum(len(u) < w.strands - 1 for w, u in zip(words, used)) >= 30  # split
    assert sum(
        any(k not in u and k - 1 not in u for k in range(1, w.strands + 1))
        for w, u in zip(words, used)
    ) >= 20  # a free strand
    assert sum(min(w.letters, default=0) < 0 < max(w.letters, default=0) for w in words) >= 100


def test_hecke_equals_skein_on_torus_families():
    for k in range(-30, 31):
        word = BraidWord(2, (1 if k > 0 else -1,) * abs(k))
        assert hecke.homfly(word) == skein.homfly(word), k
    memo: dict = {}
    for k in range(1, 21):
        word = BraidWord(3, (1, 2) * k)
        assert hecke.homfly(word) == skein.homfly(word, None, memo), k


def test_hecke_runs_no_skein_code(monkeypatch):
    # T(3,20) took the skein 35,263 nodes and several seconds.
    want = hecke.homfly(BraidWord(3, (1, 2) * 20))

    def refuse(*args):
        raise AssertionError("the skein ran")

    monkeypatch.setattr(skein, "_evaluate", refuse)
    t0 = time.perf_counter()
    assert hecke.homfly(BraidWord(3, (1, 2) * 20)) == want
    assert time.perf_counter() - t0 < 0.05


def test_shared_trace_gives_fresh_values():
    words = _seeded_words(120, 7)
    trace: dict = {}
    for word in words:
        assert hecke.homfly(word, None, trace) == hecke.homfly(word)
    assert len(trace) > 50


def test_hecke_counts_terms_against_the_node_budget():
    word = BraidWord(4, (1, -2, 3, 1, 2) * 3)
    with pytest.raises(BudgetExceededError, match="exceeded 50 terms"):
        hecke.homfly(word, SkeinBudget(max_nodes=50))
    assert hecke.homfly(word, SkeinBudget(max_nodes=5000)) == skein.homfly(word)


def test_table_budget_bounds_hecke_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", "--strands", "4", "--maxlen", "5", "--budget", "1")
    assert (code, out) == (2, "")
    assert err.startswith("budget error:") and "terms" in err
    assert time.perf_counter() - t0 < 1.0
