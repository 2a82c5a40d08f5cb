"""Batch command-line interface.

Exit codes: 0 success, 1 parse/usage error, 2 resource budget exceeded,
3 negative decision (a well-formed code that is not realizable). Any
--braid/--gauss/--unsigned value may be @path to read the text from a
file. KNOT_BUDGET overrides the default node budget.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import os
import sys
import time

from .anyon import jones_estimate
from .braid import BraidWord, parse_braid
from .burau import burau_numeric, burau_symbolic
from .diagram import (
    closure_to_diagram,
    diagram_from_gauss,
    euler_characteristic,
    parse_gauss,
    parse_unsigned_gauss,
    realizable,
    realizable_unsigned,
)
from .errors import BudgetExceededError, ParseError
from .laurent import specialize_jones
from .report import InvariantReport, format_complex
from .skein import SkeinBudget, homfly_with_stats, jones_at
from . import skein

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_NEGATIVE = 3

_TABLE_MAX_STRANDS = 4
_TABLE_MAX_LEN = 10
_TABLE_MAX_WORDS = 200_000


def _resolve(value: str | None) -> str | None:
    if value is not None and value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ParseError(f"bad complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise ParseError(f"complex number {text!r} is not finite")
    return z


def _default_budget(args) -> SkeinBudget:
    nodes = getattr(args, "budget", None)
    if nodes is None:
        env = os.environ.get("KNOT_BUDGET")
        nodes = int(env) if env else None
    if nodes is None:
        return SkeinBudget()
    return SkeinBudget(max_nodes=nodes)


def _input_source(args):
    """(kind, text, source) from --braid/--gauss flags: a BraidWord, whose
    closure skein.as_diagram builds once the budget allows, or a diagram."""
    braid = _resolve(args.braid)
    gauss = _resolve(getattr(args, "gauss", None))
    if (braid is None) == (gauss is None):
        raise ParseError("exactly one of --braid or --gauss is required")
    if braid is not None:
        return "braid", braid, parse_braid(braid)
    code = parse_gauss(gauss)
    if code.entries and not realizable(code):
        raise ParseError("Gauss code is not realizable; no diagram to compute on")
    return "gauss", gauss, diagram_from_gauss(code)


def cmd_invariant(args) -> int:
    budget = _default_budget(args)
    kind, text, source = _input_source(args)
    t0 = time.perf_counter()
    meta = {
        "budget_max_nodes": str(budget.max_nodes),
        "budget_max_crossings": str(budget.max_crossings),
        "memo": str(budget.memo_enabled).lower(),
    }
    name = args.invariant
    if name == "burau":
        if kind != "braid":
            raise ParseError("burau needs a braid input")
        if args.t is not None:
            m = burau_numeric(source, _parse_complex(args.t))
            rows = [
                "[" + ", ".join(format_complex(x) for x in row) + "]" for row in m
            ]
            value = "[" + ", ".join(rows) + "]"
            meta["t"] = args.t
        else:
            value = burau_symbolic(source).to_text("t")
    else:
        if name == "jones-at":
            if args.t is None:
                raise ParseError("jones-at needs --t")
            t = _parse_complex(args.t)
            if t == 0:
                raise ValueError("t must be nonzero")
            meta["t"] = args.t
        elif name == "coeff":
            if args.k is None:
                raise ParseError("coeff needs --k")
            meta["k"] = str(args.k)
        poly, stats = homfly_with_stats(skein.as_diagram(source, budget), budget)
        meta["nodes"] = str(stats.nodes)
        if name == "homfly":
            value = poly.to_text()
        elif name == "jones":
            value = specialize_jones(poly).to_text("s")
        elif name == "jones-at":
            value = format_complex(specialize_jones(poly).evaluate(cmath.sqrt(t)))
        else:
            value = poly.coeff_z(args.k).to_text("a")
    report = InvariantReport(
        input_kind=kind,
        input_text=text,
        invariant=name,
        value=value,
        time_ms=(time.perf_counter() - t0) * 1000.0,
        metadata=meta,
    )
    print(report.to_text())
    return EXIT_OK


def cmd_realizable(args) -> int:
    unsigned = _resolve(args.unsigned)
    gauss = _resolve(args.gauss)
    if (gauss is None) == (unsigned is None):
        raise ParseError("exactly one of --gauss or --unsigned is required")
    if gauss is not None:
        code = parse_gauss(gauss)
        vertices, edges, faces, chi = euler_characteristic(code)
        ok = chi == 2
        print(f"input=gauss:{gauss}")
        print(f"realizable={str(ok).lower()}")
        print(f"vertices={vertices}")
        print(f"edges={edges}")
        print(f"faces={faces}")
        print(f"chi={chi}")
    else:
        sequence = parse_unsigned_gauss(unsigned)
        ok = realizable_unsigned(sequence)
        print(f"input=unsigned:{unsigned}")
        print(f"realizable={str(ok).lower()}")
        print(f"crossings={len(sequence) // 2}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_estimate(args) -> int:
    braid = _resolve(args.braid)
    if braid is None:
        raise ParseError("--braid is required")
    word = parse_braid(braid)
    try:
        t0 = time.perf_counter()
        est = jones_estimate(word, args.epsilon, args.delta, args.seed)
        elapsed = (time.perf_counter() - t0) * 1000.0
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    meta = {
        "epsilon": repr(args.epsilon),
        "delta": repr(args.delta),
        "seed": str(args.seed),
        "samples_per_part": str(est.samples_per_part),
        "total_samples": str(est.total_samples),
        "scale": repr(est.exact_scale),
        "alpha": format_complex(est.alpha),
        "loop_weight": repr(est.loop_weight),
        "strands": str(est.n),
        "writhe": str(est.writhe),
        "sum_re": str(est.sum_re),
        "sum_im": str(est.sum_im),
        "stderr_re": repr(est.stderr_re),
        "stderr_im": repr(est.stderr_im),
    }
    if args.check:
        budget = _default_budget(args)
        try:
            exact = jones_at(word, cmath.exp(2j * math.pi / 5), budget)
        except BudgetExceededError as exc:
            meta["check"] = f"skipped ({exc})"
        else:
            meta["exact"] = format_complex(exact)
            meta["abs_error"] = repr(abs(est.value - exact))
            meta["bound"] = repr(args.epsilon * est.exact_scale)
            meta["within_bound"] = str(
                abs(est.value - exact) <= args.epsilon * est.exact_scale
            ).lower()
    report = InvariantReport(
        input_kind="braid",
        input_text=braid,
        invariant="jones-estimate",
        estimate=est.value,
        time_ms=elapsed,
        metadata=meta,
    )
    print(report.to_text())
    return EXIT_OK


def _table_word_count(n: int, maxlen: int) -> int:
    """Freely reduced words on n strands of length 0..maxlen: 2(n-1)
    first letters, then 2n-3 choices that do not cancel the last one."""
    return 1 + sum(2 * (n - 1) * (2 * n - 3) ** (k - 1) for k in range(1, maxlen + 1))


def _reduced_words(alphabet: list[int], length: int):
    """Freely reduced words of one length, lexicographic in alphabet order."""
    if length == 0:
        yield ()
        return
    for prefix in _reduced_words(alphabet, length - 1):
        last = prefix[-1] if prefix else 0
        for e in alphabet:
            if e != -last:
                yield prefix + (e,)


def cmd_table(args) -> int:
    n, maxlen = args.strands, args.maxlen
    if n < 2:
        raise ParseError("table needs at least 2 strands")
    if maxlen < 0:
        raise ParseError("table maxlen cannot be negative")
    if n > _TABLE_MAX_STRANDS or maxlen > _TABLE_MAX_LEN:
        raise BudgetExceededError(
            f"table guard: strands <= {_TABLE_MAX_STRANDS}, maxlen <= {_TABLE_MAX_LEN}"
        )
    count = _table_word_count(n, maxlen)
    if count > _TABLE_MAX_WORDS:
        raise BudgetExceededError(
            f"table of {n} strands up to length {maxlen} has {count} reduced words, "
            f"budget allows {_TABLE_MAX_WORDS}"
        )
    budget = _default_budget(args)
    alphabet = [e for i in range(1, n) for e in (i, -i)]
    memo: dict = {}
    groups: dict[str, list[str]] = {}
    # A word that is not freely reduced has the key of its free reduction,
    # a shorter word met at an earlier length, so only reduced words are
    # enumerated. Their keys are their least cyclic shifts (which start at a
    # least letter) and have their length, so keys never recur across
    # lengths.
    for length in range(maxlen + 1):
        seen: set[tuple[int, ...]] = set()
        for letters in _reduced_words(alphabet, length):
            low = min(letters, default=0)
            key = min(
                (letters[k:] + letters[:k] for k, e in enumerate(letters) if e == low),
                default=(),
            )
            if key in seen:
                continue
            seen.add(key)
            word = BraidWord(n, letters)
            if word.closure_components() == 1:
                poly = specialize_jones(
                    skein.homfly(closure_to_diagram(word), budget, memo)
                ).to_text("s")
                groups.setdefault(poly, []).append(word.to_text())
    print(f"strands={n}")
    print(f"maxlen={maxlen}")
    print(f"groups={len(groups)}")
    for poly in sorted(groups, key=lambda p: (len(groups[p][0]), p)):
        members = groups[poly]
        print(f"group jones={poly!r} size={len(members)} rep={members[0]!r}")
    return EXIT_OK


def cmd_bench(args) -> int:
    budget = _default_budget(args)
    if args.max_crossings < 0:
        raise ParseError("bench max-crossings cannot be negative")
    print("bench torus closures: memoized vs plain skein recursion")
    rows = 0
    for c in range(2, args.max_crossings + 1):
        word = BraidWord(2, (1,) * c)
        diagram = closure_to_diagram(word)
        t0 = time.perf_counter()
        _, memo_stats = homfly_with_stats(diagram, budget)
        memo_ms = (time.perf_counter() - t0) * 1000.0
        plain_budget = dataclasses.replace(budget, memo_enabled=False)
        t0 = time.perf_counter()
        _, plain_stats = homfly_with_stats(diagram, plain_budget)
        plain_ms = (time.perf_counter() - t0) * 1000.0
        print(
            f"row c={c} memo_nodes={memo_stats.nodes} memo_ms={memo_ms:.3f} "
            f"plain_nodes={plain_stats.nodes} plain_ms={plain_ms:.3f} bound={2**c}"
        )
        rows += 1
    print(f"rows={rows}")
    return EXIT_OK


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotqc",
        description="Exact knot invariants and a Fibonacci-anyon Jones estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="exact invariant of a braid closure or Gauss code")
    p.add_argument("--braid", help='braid word, e.g. "1 1 1" (use @file to read)')
    p.add_argument("--gauss", help='signed Gauss code, e.g. "O1+U2+O3+U1+O2+U3+"')
    p.add_argument(
        "--invariant",
        required=True,
        choices=["homfly", "jones", "jones-at", "coeff", "burau"],
    )
    p.add_argument("--t", help="complex point, e.g. 1+0i")
    p.add_argument("--k", type=int, help="z-exponent for coeff")
    p.add_argument("--budget", type=int, help="max skein nodes")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("realizable", help="decide Gauss-code realizability")
    p.add_argument("--gauss", help="signed code")
    p.add_argument("--unsigned", help='sign-free sequence, e.g. "O1 U2 O3 U1 O2 U3"')
    p.set_defaults(func=cmd_realizable)

    p = sub.add_parser("estimate", help="Monte-Carlo Jones estimate at e^(2 pi i/5)")
    p.add_argument("--braid", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true", help="also compute the exact value")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table", help="group braid closures by exact Jones polynomial")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bench", help="memoized vs plain skein timings on torus words")
    p.add_argument("--max-crossings", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
