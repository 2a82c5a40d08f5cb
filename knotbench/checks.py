"""Untimed output checks: each output against an independent computation.

- jones and homfly values against the anyon trace at t = e^(2 pi i/5);
- coeff against the same coefficient of a library homfly of the braid;
- burau (matrix or numeric) against burau_numeric at a fixed point;
- estimates within epsilon * scale of the exact anyon trace;
- a seeded subset of exact traces against skein jones_at;
- each table group's polynomial against the library jones of its
  representative.

Every function returns None for a correct output, or the reason it is not.
"""

from __future__ import annotations

import ast
import cmath
import math
import re

import knotqc

from .workloads import BURAU_POINT, Request

# The tier-1 cross-pipeline tolerance, relative once |value| exceeds 1.
TOLERANCE = 1e-8
T_FIB = cmath.exp(2j * math.pi / 5)
S_FIB = cmath.sqrt(T_FIB)
# Skein recursion on these 12-14 strand, 40-letter braids needs 100 to
# over 30000 nodes (about 1 ms each), so one seeded trace per run meets
# it, under this node budget. A trace over budget is passed over, at most
# TRACE_SKEIN_PASSES times a run; about 30% of the traces fit.
TRACE_SKEIN_CHECKS = 1
TRACE_SKEIN_MAX_NODES = 2500
TRACE_SKEIN_PASSES = 5
_ROW = re.compile(r"\[([^\[\]]*)\]")
_GROUP = re.compile(r"group jones=(.*) size=(\d+) rep=(.*)")


def _close(got: complex, want: complex, tol: float = TOLERANCE) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _word(req: Request) -> knotqc.BraidWord:
    return knotqc.BraidWord(req.strands, req.letters)


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def check_invariant(req: Request, output: str) -> str | None:
    report = knotqc.InvariantReport.from_text(output)
    if report.invariant != req.invariant or report.input_text != req.braid_text:
        return f"report is for {report.invariant} of {report.input_text!r}"
    word = _word(req)
    value = report.value or ""
    if req.invariant in ("jones", "homfly"):
        if req.invariant == "jones":
            poly = knotqc.LaurentPoly1.parse(value)
        else:
            poly = knotqc.specialize_jones(knotqc.LaurentPoly2.parse(value))
        got, want = poly.evaluate(S_FIB), knotqc.jones_via_trace(word)
        return None if _close(got, want) else f"value gives {got}, anyon trace {want}"
    if req.invariant == "coeff":
        want = knotqc.homfly_braid(word).coeff_z(req.k).to_text("a")
        return None if value == want else f"coeff {value!r}, library homfly gives {want!r}"
    if req.invariant == "burau":
        t = _parse_complex(BURAU_POINT)
        want = knotqc.burau_numeric(word, t)
        rows = [row.split(", ") for row in _ROW.findall(value)]
        if req.t is None:
            got = [[knotqc.LaurentPoly1.parse(p).evaluate(t) for p in row] for row in rows]
        else:
            got = [[_parse_complex(x) for x in row] for row in rows]
        if len(got) != len(want) or any(len(row) != len(want) for row in got):
            return f"burau matrix has shape {len(got)} x {len(got[0]) if got else 0}"
        for i, row in enumerate(got):
            for j, x in enumerate(row):
                if not _close(x, want[i][j], 1e-9):
                    return f"burau[{i}][{j}] = {x}, burau_numeric gives {want[i][j]}"
        return None
    return f"no check for invariant {req.invariant!r}"


def check_estimate(req: Request, output: str) -> str | None:
    report = knotqc.InvariantReport.from_text(output)
    if report.estimate is None:
        return "report carries no estimate"
    bound = req.epsilon * float(report.metadata["scale"])
    want = knotqc.jones_via_trace(_word(req))
    error = abs(report.estimate - want)
    return None if error <= bound else f"estimate off by {error}, bound {bound}"


def check_trace(value: complex) -> str | None:
    return None if cmath.isfinite(value) else f"trace is {value}"


def check_trace_against_skein(req: Request, value: complex) -> str | None | bool:
    """None if the skein value agrees, a reason if not, False if the skein
    recursion would exceed its node budget (nothing checked)."""
    try:
        want = knotqc.jones_at(_word(req), T_FIB, knotqc.SkeinBudget(max_nodes=TRACE_SKEIN_MAX_NODES))
    except knotqc.BudgetExceededError:
        return False
    return None if _close(value, want) else f"trace {value}, skein jones_at {want}"


def check_table(req: Request, output: str) -> str | None:
    lines = output.splitlines()
    head = {}
    groups = []
    for line in lines:
        match = _GROUP.fullmatch(line)
        if match:
            groups.append(match.groups())
        elif "=" in line:
            key, value = line.split("=", 1)
            head[key] = value
        else:
            return f"bad table line {line!r}"
    if head != {"strands": str(req.strands), "maxlen": str(req.maxlen), "groups": str(len(groups))}:
        return f"table header {head} does not match {len(groups)} groups"
    if not groups:
        return "table has no groups"
    for poly_text, _size, rep_text in groups:
        poly, rep = ast.literal_eval(poly_text), ast.literal_eval(rep_text)
        want = knotqc.jones(knotqc.parse_braid(rep)).to_text("s")
        if poly != want:
            return f"group of {rep} prints {poly!r}, library jones gives {want!r}"
    return None
