import math
import time
import tracemalloc

import pytest

from knotqc import cli, hecke, table
from knotqc.braid import BraidWord
from knotqc.cli import main
from knotqc.errors import ParseError
from knotqc.report import InvariantReport
from knotqc.table import _knot_classes, _table_word_count

from oracle_table import _reduced_words, knot_classes, oracle_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_homfly_golden(capsys):
    code, out, _ = run(capsys, "invariant", "--braid", "1 1 1", "--invariant", "homfly")
    assert code == 0
    report = InvariantReport.from_text(out)
    assert report.value == "-a^-4 + 2*a^-2 + a^-2*z^2"
    assert report.input_kind == "braid"


def test_invariant_jones_empty_braid(capsys):
    code, out, _ = run(capsys, "invariant", "--braid", "", "--invariant", "jones")
    assert code == 0
    assert InvariantReport.from_text(out).value == "1"


def test_invariant_jones_at_one(capsys):
    code, out, _ = run(
        capsys, "invariant", "--braid", "1 1 1", "--invariant", "jones-at", "--t", "1+0i"
    )
    assert code == 0
    report = InvariantReport.from_text(out)
    assert report.value == "1+0i"
    _, out, _ = run(capsys, "invariant", "--braid", "1 1 1", "--invariant", "jones")
    assert report.metadata["nodes"] == InvariantReport.from_text(out).metadata["nodes"]


def test_invariant_coeff(capsys):
    code, out, _ = run(
        capsys, "invariant", "--braid", "1 1 1", "--invariant", "coeff", "--k", "2"
    )
    assert code == 0
    assert InvariantReport.from_text(out).value == "a^-2"


def test_invariant_burau(capsys):
    code, out, _ = run(capsys, "invariant", "--braid", "1", "--invariant", "burau")
    assert code == 0
    assert InvariantReport.from_text(out).value == "[[-t + 1, t], [1, 0]]"


def test_invariant_from_gauss(capsys):
    code, out, _ = run(
        capsys,
        "invariant",
        "--gauss",
        "O1+U2+O3+U1+O2+U3+",
        "--invariant",
        "homfly",
    )
    assert code == 0
    assert InvariantReport.from_text(out).value == "-a^-4 + 2*a^-2 + a^-2*z^2"


def test_burau_refuses_gauss_input(capsys):
    code, out, err = run(
        capsys, "invariant", "--gauss", "O1+U2+O3+U1+O2+U3+", "--invariant", "burau"
    )
    assert code == 1
    assert out == "" and "burau needs a braid input" in err


def test_invariant_unrealizable_gauss_rejected(capsys):
    code, _, err = run(
        capsys, "invariant", "--gauss", "O1+O2+U1+U2+", "--invariant", "homfly"
    )
    assert code == 1
    assert "realizable" in err


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "invariant", "--braid", "0", "--invariant", "jones")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("braid", ["1_0", "٣"])
def test_braid_letters_are_ascii_decimal(capsys, braid):
    code, out, err = run(capsys, "invariant", "--braid", braid, "--invariant", "jones")
    assert (code, out) == (1, "")
    assert "bad braid letter" in err


def test_budget_exit(capsys):
    code, _, err = run(
        capsys,
        "invariant",
        "--braid",
        "1 1 1 1 1 1 1 1",
        "--invariant",
        "homfly",
        "--budget",
        "2",
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--strands", "٣", "--maxlen", "2"],
        ["table", "--strands", "3", "--maxlen", "2_0"],
        ["estimate", "--braid", "1 1 1", "--epsilon", "0.5", "--delta", "0.5", "--seed", "٧"],
        ["invariant", "--braid", "1 1 1", "--invariant", "coeff", "--k", "٢"],
        ["invariant", "--braid", "1 1 1", "--invariant", "jones", "--budget", "1_000"],
        ["bench", "--max-crossings", "1_0"],
    ],
)
def test_integer_options_are_ascii_decimal(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "invalid" in err


def test_budget_env_is_ascii_decimal(capsys, monkeypatch):
    monkeypatch.setenv("KNOT_BUDGET", "1_000")
    code, out, err = run(capsys, "invariant", "--braid", "1 1 1", "--invariant", "jones")
    assert (code, out) == (1, "")
    assert "ASCII decimal" in err


def test_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("KNOT_BUDGET", "2")
    code, _, _ = run(capsys, "invariant", "--braid", "1 1 1 1 1 1 1 1", "--invariant", "homfly")
    assert code == 2
    monkeypatch.delenv("KNOT_BUDGET")
    code, _, _ = run(capsys, "invariant", "--braid", "1 1 1 1 1 1 1 1", "--invariant", "homfly")
    assert code == 0


def test_realizable_exit_codes(capsys):
    code, out, _ = run(capsys, "realizable", "--gauss", "O1+U2+O3+U1+O2+U3+")
    assert code == 0
    assert "realizable=true" in out
    assert "faces=5" in out
    assert "chi=2" in out

    code, out, _ = run(capsys, "realizable", "--gauss", "O1+O2+U1+U2+")
    assert code == 3
    assert "realizable=false" in out
    assert "chi=0" in out

    code, out, _ = run(capsys, "realizable", "--gauss", "")
    assert code == 0

    code, _, _ = run(capsys, "realizable", "--unsigned", "O1 U2 O3 U1 O2 U3")
    assert code == 0
    code, _, _ = run(capsys, "realizable", "--unsigned", "O1 O2 U1 U2")
    assert code == 3
    code, _, _ = run(capsys, "realizable", "--gauss", "O1+O1+")
    assert code == 1


def test_gauss_from_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text("O1+U2+O3+U1+O2+U3+\n")
    code, out, _ = run(capsys, "realizable", "--gauss", f"@{path}")
    assert code == 0
    assert "realizable=true" in out


@pytest.mark.parametrize(
    "argv, text",
    [
        (["invariant", "--invariant", "jones", "--braid"], "1 1\n1"),
        (["invariant", "--invariant", "jones", "--gauss"], "O1+U2+\nO3+U1+\n\tO2+U3+\n"),
        (["estimate", "--epsilon", "0.5", "--delta", "0.5", "--seed", "3", "--braid"], "1 1\n1"),
    ],
)
def test_multiline_file_input_round_trips(tmp_path, capsys, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    line = " ".join(text.split())
    code, out, _ = run(capsys, *argv, f"@{path}")
    assert code == 0
    report = InvariantReport.from_text(out)
    assert report.input_text == line
    code, inline, _ = run(capsys, *argv, line)
    assert code == 0
    one_line = InvariantReport.from_text(inline)
    assert (report.value, report.estimate) == (one_line.value, one_line.estimate)


def test_multiline_file_input_gives_realizable_one_input_line(tmp_path, capsys):
    for flag, text in (("--gauss", "O1+U2+O3+\nU1+O2+U3+\n"), ("--unsigned", "O1 U2\nO3 U1\nO2 U3")):
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out, _ = run(capsys, "realizable", flag, f"@{path}")
        assert code == 0
        assert [line for line in out.splitlines() if "input=" in line] == [
            "input=" + flag[2:] + ":" + " ".join(text.split())
        ]
        assert all("=" in line for line in out.splitlines())


def test_unsigned_guard_refuses_past_400_labels_within_a_second(capsys):
    text = " ".join([f"O{k}" for k in range(1, 402)] + [f"U{k}" for k in range(401, 0, -1)])
    t0 = time.perf_counter()
    code, _, err = run(capsys, "realizable", "--unsigned", text)
    assert code == 2 and "400" in err
    assert time.perf_counter() - t0 < 1.0


def test_estimate_check_and_reproducibility(capsys):
    args = [
        "estimate",
        "--braid",
        "1 1 1",
        "--epsilon",
        "0.1",
        "--delta",
        "0.05",
        "--seed",
        "9",
        "--check",
    ]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    rep1 = InvariantReport.from_text(out1)
    assert rep1.metadata["within_bound"] == "true"
    assert rep1.metadata["samples_per_part"] == str(
        math.ceil(8 * math.log(2 / 0.05) / 0.1**2)
    )
    code, out2, _ = run(capsys, *args)
    rep2 = InvariantReport.from_text(out2)
    assert rep1.estimate == rep2.estimate
    assert rep1.metadata == rep2.metadata


def test_estimate_check_skipped_past_node_budget(capsys):
    code, out, _ = run(
        capsys, "estimate", "--braid", " ".join(["1 2"] * 8),
        "--epsilon", "0.5", "--delta", "0.5", "--check", "--budget", "10",
    )
    assert code == 0
    report = InvariantReport.from_text(out)
    assert report.metadata["check"] == "skipped (skein recursion exceeded 10 nodes)"
    assert "exact" not in report.metadata


def test_estimate_sample_monotonicity(capsys):
    _, out_loose, _ = run(
        capsys, "estimate", "--braid", "1", "--epsilon", "0.5", "--delta", "0.5"
    )
    _, out_tight, _ = run(
        capsys, "estimate", "--braid", "1", "--epsilon", "0.05", "--delta", "0.01"
    )
    loose = int(InvariantReport.from_text(out_loose).metadata["samples_per_part"])
    tight = int(InvariantReport.from_text(out_tight).metadata["samples_per_part"])
    assert loose < tight


def test_estimate_invalid_epsilon(capsys):
    code, _, _ = run(
        capsys, "estimate", "--braid", "1", "--epsilon", "2.0", "--delta", "0.5"
    )
    assert code == 1


def test_estimate_negative_seed_is_refused(capsys):
    code, out, err = run(
        capsys, "estimate", "--braid", "1 1 1", "--epsilon", "0.2", "--delta", "0.05",
        "--seed", "-7",
    )
    assert code == 1
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize(
    "braid, epsilon, delta",
    [
        ("1", "1e-6", "0.5"),
        # epsilon**2 underflows to 0, and the sample count overflows a float.
        ("1 1 1", "1e-200", "0.1"),
        ("1 1 1", "1e-160", "1e-300"),
    ],
    ids=["large", "underflow", "overflow"],
)
def test_estimate_sample_budget_refused_fast(capsys, braid, epsilon, delta):
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "estimate", "--braid", braid, "--epsilon", epsilon, "--delta", delta
    )
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("strands", [20, 30, 20000, 300000])
def test_estimate_dimension_budget_refused_fast(capsys, strands):
    t0 = time.perf_counter()
    code, _, err = run(
        capsys, "estimate", "--braid", f"n={strands} 1", "--epsilon", "0.5", "--delta", "0.5"
    )
    assert code == 2
    assert "budget" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("t", [None, "0.6+0.8i"])
@pytest.mark.parametrize("strands", [257, 100000])
def test_burau_strand_budget_refused_fast(capsys, strands, t):
    argv = ["invariant", "--braid", f"n={strands} 1", "--invariant", "burau"]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, *(["--t", t] if t else []))
    assert code == 2
    assert "budget" in err and out == ""
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("t", [None, "0.6+0.8i"])
def test_burau_at_strand_bound_answers(capsys, t):
    argv = ["invariant", "--braid", "n=256 1", "--invariant", "burau"]
    code, out, _ = run(capsys, *argv, *(["--t", t] if t else []))
    assert code == 0
    assert InvariantReport.from_text(out).value.count("[") == 257


def test_burau_letter_budget_refused_fast(capsys):
    # The symbolic matrix is refused past 1,000 letters, the numeric one
    # is not; a word at the bound is answered.
    word = " ".join(["1 -1"] * 500)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invariant", "--braid", word + " 1", "--invariant", "burau")
    assert code == 2
    assert "1001 letters" in err and "budget" in err and out == ""
    assert time.perf_counter() - t0 < 1.0
    code, out, _ = run(capsys, "invariant", "--braid", word, "--invariant", "burau")
    assert code == 0 and InvariantReport.from_text(out).value == "[[1, 0], [0, 1]]"
    argv = ["invariant", "--braid", word + " 1", "--invariant", "burau", "--t", "0.6+0.8i"]
    assert run(capsys, *argv)[0] == 0


def test_gauss_code_is_sized_after_its_kinks_are_removed(capsys):
    # The unknot with 70 kinks is over the 64-crossing budget as given.
    kinks = "".join(f"O{i}+U{i}+" for i in range(1, 71))
    code, out, _ = run(capsys, "invariant", "--gauss", kinks, "--invariant", "homfly")
    assert code == 0 and InvariantReport.from_text(out).value == "1"


def test_free_loops_budget_refused_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invariant", "--braid", "n=1600 1", "--invariant", "jones")
    assert code == 2
    assert "budget" in err and "1598 free loops" in err and out == ""
    assert time.perf_counter() - t0 < 1.0


def test_over_budget_closure_refused_before_it_is_built(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "invariant", "--braid", "n=1000000 1", "--invariant", "jones"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "1 crossings and 999998 free loops" in err and out == ""
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "extra",
    [
        ["--invariant", "jones"],
        ["--invariant", "homfly"],
        ["--invariant", "coeff", "--k", "0"],
        ["--invariant", "jones-at", "--t", "1"],
        ["--invariant", "burau"],
    ],
)
def test_huge_strand_count_refused_fast(capsys, extra):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invariant", "--braid", "n=100000000 1", *extra)
    assert code == 2
    assert "budget" in err and out == ""
    assert time.perf_counter() - t0 < 1.0


def test_parser_is_built_once_and_keeps_no_state(capsys):
    argvs = [
        ["invariant", "--braid", "1 -2 1", "--invariant", "jones"],
        ["invariant", "--braid", "1 -2 1", "--invariant", "burau"],
        ["invariant", "--braid", "1 -2 1", "--invariant", "burau", "--t", "0.6+0.8i"],
        ["estimate", "--braid", "1 1 1", "--epsilon", "0.5", "--delta", "0.5", "--seed", "3"],
        ["table", "--strands", "2", "--maxlen", "3"],
        ["realizable", "--gauss", "O1+U2+O3+U1+O2+U3+"],
        ["invariant", "--no-such-flag"],
    ]

    def one_round():
        results = []
        for argv in argvs:
            code, out, _ = run(capsys, *argv)
            lines = [line for line in out.splitlines() if not line.startswith("time_ms=")]
            results.append((code, lines))
        return results

    first = one_round()
    assert one_round() == first
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _ in first] == [0, 0, 0, 0, 0, 0, 1]
    # --t of the numeric Burau call does not carry into the next call.
    assert not any(line.startswith("meta.t=") for line in first[1][1])
    assert any(line.startswith("meta.t=") for line in first[2][1])


def test_table_groups(capsys):
    code, out, _ = run(capsys, "table", "--strands", "2", "--maxlen", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("group ")]
    polys = {}
    for line in lines:
        key = line.split("jones=")[1].split(" size=")[0]
        polys[key.strip("'")] = line
    assert "1" in polys
    assert "-s^8 + s^6 + s^2" in polys
    assert "s^-2 + s^-6 - s^-8" in polys  # the mirror trefoil is its own group


def test_table_three_strands_groups_markov_variants(capsys):
    code, out, _ = run(capsys, "table", "--strands", "3", "--maxlen", "5")
    assert code == 0
    lines = {}
    for line in out.splitlines():
        if line.startswith("group "):
            poly = line.split("jones=")[1].split(" size=")[0].strip("'")
            size = int(line.split("size=")[1].split(" rep=")[0])
            lines[poly] = size
    # the stabilized trefoil words land in the trefoil group
    assert lines["-s^8 + s^6 + s^2"] >= 2
    assert lines["s^-2 + s^-6 - s^-8"] >= 2
    # the figure-eight class appears and is amphichiral (one group only)
    assert "s^4 - s^2 + 1 - s^-2 + s^-4" in lines
    assert lines["1"] >= 20


def test_table_guard(capsys):
    code, _, _ = run(capsys, "table", "--strands", "5", "--maxlen", "3")
    assert code == 2
    code, _, _ = run(capsys, "table", "--strands", "2", "--maxlen", "11")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--strands", "5", "--maxlen", "-1"],
        ["table", "--strands", "1", "--maxlen", "11"],
    ],
)
def test_table_arguments_checked_before_guard(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "table guard" not in err


@pytest.mark.parametrize(
    "strands,maxlen", [(2, 10), (3, 5), (3, 6), (3, 7), (4, 4), (4, 5)]
)
def test_table_matches_all_words_oracle(capsys, strands, maxlen):
    code, out, _ = run(
        capsys, "table", "--strands", str(strands), "--maxlen", str(maxlen)
    )
    assert code == 0
    assert out == oracle_table(strands, maxlen)


# Lengths of the parity of n are skipped: the whole request at (4, 6) and
# (4, 0), the last length at (3, 1) and the empty word at (2, 1).
@pytest.mark.parametrize("strands,maxlen", [(4, 6), (4, 0), (3, 1), (2, 1)])
def test_table_matches_oracle_where_lengths_are_skipped(capsys, strands, maxlen):
    code, out, _ = run(
        capsys, "table", "--strands", str(strands), "--maxlen", str(maxlen)
    )
    assert code == 0
    assert out == oracle_table(strands, maxlen)


def test_table_does_only_the_work_a_knot_can_need(capsys, monkeypatch):
    for n in (2, 3, 4):
        alphabet = [e for i in range(1, n) for e in (i, -i)]
        for length in range(n % 2, 7, 2):
            for letters in _reduced_words(alphabet, length):
                assert BraidWord(n, letters).closure_components() > 1
    evaluated, specialized = [], []
    homfly, specialize = hecke.homfly, table.specialize_jones

    def counting_homfly(*args):
        evaluated.append(homfly(*args))
        return evaluated[-1]

    def counting_specialize(p):
        specialized.append(p)
        return specialize(p)

    monkeypatch.setattr(hecke, "homfly", counting_homfly)
    monkeypatch.setattr(table, "specialize_jones", counting_specialize)
    counts = {}
    for n, maxlen in ((4, 5), (4, 6), (3, 6)):
        evaluated.clear()
        specialized.clear()
        assert run(capsys, "table", "--strands", str(n), "--maxlen", str(maxlen))[0] == 0
        # Each distinct value is specialized once; mirror images are
        # specialized but never evaluated.
        assert len(specialized) == len(set(specialized))
        assert set(evaluated) <= set(specialized)
        counts[n, maxlen] = (len(evaluated), len(specialized))
    assert counts == {(4, 5): (64, 4), (4, 6): (64, 4), (3, 6): (48, 14)}


def test_knot_classes_match_word_enumeration():
    for n, maxlen in ((2, 11), (3, 9), (4, 7)):
        for length in range(maxlen + 1):
            assert _knot_classes(n, length) == knot_classes(n, length)


def test_table_word_count_is_exact():
    for n in (2, 3, 4):
        alphabet = [e for i in range(1, n) for e in (i, -i)]
        for maxlen in range(6):
            words = [
                w
                for length in range((n - 1) % 2, maxlen + 1, 2)
                for w in _reduced_words(alphabet, length)
            ]
            assert len(words) == len(set(words)) == _table_word_count(n, maxlen)
            assert all(a != -b for w in words for a, b in zip(w, w[1:]))
    assert _table_word_count(4, 8) == 97_656
    assert _table_word_count(4, 9) == 2_441_406


@pytest.mark.parametrize("maxlen", [9, 10])
def test_table_word_budget_refused_fast(capsys, maxlen):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "table", "--strands", "4", "--maxlen", str(maxlen))
    assert code == 2
    assert "budget" in err and out == ""
    assert time.perf_counter() - t0 < 1.0


def test_bench_rows(capsys):
    code, out, _ = run(capsys, "bench", "--max-crossings", "8")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("row ")]
    assert len(rows) == 7
    assert "rows=7" in out
    for row in rows:
        fields = dict(kv.split("=") for kv in row.split()[1:])
        assert int(fields["memo_nodes"]) <= int(fields["plain_nodes"])
        assert int(fields["plain_nodes"]) <= int(fields["bound"])


def test_report_round_trip(capsys):
    report = InvariantReport(
        input_kind="braid",
        input_text="1 1 1",
        invariant="jones-estimate",
        estimate=complex(-0.80901, 1.31432),
        time_ms=12.5,
        metadata={"seed": "7", "epsilon": "0.1"},
    )
    assert InvariantReport.from_text(report.to_text()) == report
    exact = InvariantReport(
        input_kind="gauss",
        input_text="O1+U2+O3+U1+O2+U3+",
        invariant="homfly",
        value="-a^-4 + 2*a^-2 + a^-2*z^2",
        time_ms=3.25,
    )
    assert InvariantReport.from_text(exact.to_text()) == exact
    _, out, _ = run(
        capsys, "estimate", "--braid", "1 -2 1 2", "--epsilon", "0.2", "--delta", "0.1"
    )
    estimate = InvariantReport.from_text(out)
    assert estimate.to_text() == out.rstrip("\n")
    meta = estimate.metadata
    m = int(meta["samples_per_part"])
    for part in ("re", "im"):
        s = int(meta[f"sum_{part}"])
        assert abs(s) <= m and (s - m) % 2 == 0
        assert float(meta[f"stderr_{part}"]) == math.sqrt((1 - (s / m) ** 2) / m)


@pytest.mark.parametrize(
    "text",
    [
        "input=braid:1\ninvariant=jones-estimate\nestimate_re=0.5",
        "input=braid:1\ninvariant=jones-estimate\nestimate_re=half\nestimate_im=0.0",
    ],
    ids=["missing_im", "non_numeric"],
)
def test_report_with_broken_estimate_is_a_parse_error(text):
    with pytest.raises(ParseError, match="incomplete report"):
        InvariantReport.from_text(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--strands", "3", "--maxlen", "-1"],
        ["bench", "--max-crossings", "-3"],
    ],
)
def test_negative_counts_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--invariant", "jones-at"],
        ["--invariant", "jones-at", "--t", "0"],
        ["--invariant", "coeff"],
    ],
)
def test_invariant_argument_errors_precede_skein_work(capsys, argv):
    # A one-node budget would refuse the skein work with exit 2.
    code, out, _ = run(capsys, "invariant", "--braid", "1 1 1", "--budget", "1", *argv)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("invariant", ["jones-at", "burau"])
@pytest.mark.parametrize("t", ["nan", "1e400+0i"])
def test_non_finite_t_refused(capsys, invariant, t):
    code, out, err = run(
        capsys, "invariant", "--braid", "1 1 1", "--invariant", invariant, "--t", t
    )
    assert code == 1
    assert out == "" and "not finite" in err


def test_bench_refuses_more_than_24_crossings_before_any_row(capsys):
    # Plain rows grow as p(c) = p(c-1) + p(c-2) + 1 nodes, so the run is
    # capped where it still takes seconds; the refusal prints no row.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "bench", "--max-crossings", "64")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "24" in err
    assert run(capsys, "bench", "--max-crossings", "25")[:2] == (2, "")
