"""`knotqc.table.census`, the library call behind `knotqc table`."""

import hashlib
import time

import pytest

from knotqc.cli import main
from knotqc.errors import BudgetExceededError
from knotqc.table import census


def test_census_of_a_length_without_knots_adds_nothing():
    # A word of even length closes to a knot on no 4-strand braid.
    assert census(4, 8) == census(4, 7)


@pytest.mark.parametrize("strands,maxlen", [(2, 10), (3, 5), (4, 5)])
def test_census_is_what_the_cli_prints(capsys, strands, maxlen):
    assert main(["table", "--strands", str(strands), "--maxlen", str(maxlen)]) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("group ")]
    assert printed == [
        f"group jones={poly.to_text('s')!r} size={size} rep={rep.to_text()!r}"
        for poly, size, rep in census(strands, maxlen)
    ]


def test_census_word_budget_refused_fast():
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="2441406 reduced words"):
        census(4, 9)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "strands,maxlen,digest", [(3, 10, "5db416050a0b966d"), (4, 7, "814091febbc975e4")]
)
def test_table_output_is_pinned_past_the_oracle(capsys, strands, maxlen, digest):
    # The all-words oracle stops at length 9 on 3 strands and 5 on 4.
    assert main(["table", "--strands", str(strands), "--maxlen", str(maxlen)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
