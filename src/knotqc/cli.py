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

from .braid import _INT, BraidWord, parse_braid
from .diagram import (
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
from .table import census

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_NEGATIVE = 3


def _resolve(value: str) -> str:
    """The value, or for @path that file's text, with each run of
    whitespace, newlines included, made one space: one report line."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            value = fh.read()
    return " ".join(value.split())


def _parse_complex(text: str) -> complex:
    """A --t point: jones-at and burau divide by t, so it is nonzero."""
    try:
        z = complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ParseError(f"bad complex number {text!r}") from None
    if not cmath.isfinite(z) or z == 0:
        raise ParseError(f"complex number {text!r} is zero or not finite")
    return z


def _decimal(text: str) -> int:
    """An integer option or KNOT_BUDGET, read as braid text reads one."""
    if not _INT.fullmatch(text):
        raise ParseError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def _default_budget(args) -> SkeinBudget:
    nodes = getattr(args, "budget", None)
    if nodes is None:
        env = os.environ.get("KNOT_BUDGET")
        nodes = _decimal(env) if env else None
    if nodes is None:
        return SkeinBudget()
    return SkeinBudget(max_nodes=nodes)


def _input_source(args):
    """(kind, text, source) from --braid/--gauss flags: a BraidWord or a
    diagram, either of which the skein engine takes as it is."""
    if args.braid is not None:
        braid = _resolve(args.braid)
        return "braid", braid, parse_braid(braid)
    gauss = _resolve(args.gauss)
    return "gauss", gauss, diagram_from_gauss(parse_gauss(gauss))


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
        from .burau import burau_numeric, burau_symbolic  # numpy, on first use

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
            meta["t"] = args.t
        elif name == "coeff":
            if args.k is None:
                raise ParseError("coeff needs --k")
            meta["k"] = str(args.k)
        poly, stats = homfly_with_stats(source, budget)
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
    if args.gauss is not None:
        gauss = _resolve(args.gauss)
        code = parse_gauss(gauss)
        ok = realizable(code)
        vertices, edges, faces, chi = euler_characteristic(code)
        print(f"input=gauss:{gauss}")
        print(f"realizable={str(ok).lower()}")
        print(f"vertices={vertices}")
        print(f"edges={edges}")
        print(f"faces={faces}")
        print(f"chi={chi}")
    else:
        unsigned = _resolve(args.unsigned)
        sequence = parse_unsigned_gauss(unsigned)
        ok = realizable_unsigned(sequence)
        print(f"input=unsigned:{unsigned}")
        print(f"realizable={str(ok).lower()}")
        print(f"crossings={len(sequence) // 2}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_estimate(args) -> int:
    from .anyon import jones_estimate  # numpy, on first use

    braid = _resolve(args.braid)
    word = parse_braid(braid)
    t0 = time.perf_counter()
    est = jones_estimate(word, args.epsilon, args.delta, args.seed)
    elapsed = (time.perf_counter() - t0) * 1000.0
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


def cmd_table(args) -> int:
    groups = census(args.strands, args.maxlen, _default_budget(args))
    print(f"strands={args.strands}")
    print(f"maxlen={args.maxlen}")
    print(f"groups={len(groups)}")
    for poly, size, rep in groups:
        print(f"group jones={poly.to_text('s')!r} size={size} rep={rep.to_text()!r}")
    return EXIT_OK


def cmd_bench(args) -> int:
    budget = _default_budget(args)
    if args.max_crossings < 0:
        raise ParseError("bench max-crossings cannot be negative")
    if args.max_crossings > 24:  # plain rows grow as p(c-1) + p(c-2) + 1 nodes
        raise BudgetExceededError("bench is limited to 24 crossings")
    print("bench torus closures: memoized vs plain skein recursion")
    rows = 0
    for c in range(2, args.max_crossings + 1):
        word = BraidWord(2, (1,) * c)
        t0 = time.perf_counter()
        _, memo_stats = homfly_with_stats(word, budget)
        memo_ms = (time.perf_counter() - t0) * 1000.0
        plain_budget = dataclasses.replace(budget, memo_enabled=False)
        t0 = time.perf_counter()
        _, plain_stats = homfly_with_stats(word, plain_budget)
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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--braid", help='braid word, e.g. "1 1 1" (use @file to read)')
    source.add_argument("--gauss", help='signed Gauss code, e.g. "O1+U2+O3+U1+O2+U3+"')
    p.add_argument(
        "--invariant",
        required=True,
        choices=["homfly", "jones", "jones-at", "coeff", "burau"],
    )
    p.add_argument("--t", help="complex point, e.g. 1+0i")
    p.add_argument("--k", type=_decimal, help="z-exponent for coeff")
    p.add_argument("--budget", type=_decimal, help="max skein nodes")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("realizable", help="decide Gauss-code realizability")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gauss", help="signed code")
    source.add_argument("--unsigned", help='sign-free sequence, e.g. "O1 U2 O3 U1 O2 U3"')
    p.set_defaults(func=cmd_realizable)

    p = sub.add_parser("estimate", help="Monte-Carlo Jones estimate at e^(2 pi i/5)")
    p.add_argument("--braid", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--check", action="store_true", help="also compute the exact value")
    p.add_argument("--budget", type=_decimal)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table", help="group braid closures by exact Jones polynomial")
    p.add_argument("--strands", type=_decimal, required=True)
    p.add_argument("--maxlen", type=_decimal, required=True)
    p.add_argument("--budget", type=_decimal)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bench", help="memoized vs plain skein timings on torus words")
    p.add_argument("--max-crossings", type=_decimal, required=True)
    p.add_argument("--budget", type=_decimal)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
