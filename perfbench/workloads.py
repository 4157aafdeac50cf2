"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is an endless stream of blocks.  A block holds one input per
stratum of the property that sets an op's cost (target count, sweep limit,
certificate kind) in seeded order, and a run measures whole blocks, so every
run has the same cost mix whatever the seed; the seed picks the values inside
each stratum.  Inputs are built from the seed alone and reach the program
only as command-line arguments or certificate files.

Every op carries its own check, which returns ``None`` for a correct output
or a one-line reason.  A FAIL verdict is a correct answer; an op fails when
its exit code disagrees with its verdict or its output is wrong.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# Target pools of acceptance criterion 7: condition (*) for the first two
# targets, (**) for the rest.
STAR_POOL = tuple(d for d in range(8, 201) if d % 6 in (0, 2))
DOUBLE_STAR_POOL = tuple(
    d for m in range(2, 35) for d in (6 * m * m, 6 * m * m + 2) if d <= 7000
)
STAR2_POOL = tuple(d for d in STAR_POOL if d % 6 == 2)
DOUBLE_STAR2_POOL = tuple(d for d in DOUBLE_STAR_POOL if d % 6 == 2)

# In STRICT mode the two A2 slots (targets 3 and 4) are the only generators
# whose I3 part meets the perturbations, so their scales set the size of the
# branch and bound: m = 2..4 admit extra perturbations and cost seconds at
# ten targets, m = 30 almost nothing.  Fixing them at m = 5 and m = 9 keeps
# each op in the tens to hundreds of milliseconds; the U and E8 targets, which
# do not change the search, are seeded.
STRICT_A2_TARGETS = (6 * 5 * 5 + 2, 6 * 9 * 9 + 2)
STRICT_LENGTHS = (8, 9, 10)

# Sweep limits are log-uniform over [10^6, 10^8], one per 17th of the range
# in every block; narrow strata keep the seed from moving the median op.  A
# sweep costs about linearly in its limit, so 10^10 (8.8 s per op) would
# leave too few ops per run for a median.  Every workload has an odd number
# of strata, so that the median op falls inside one stratum rather than on
# the gap between two.
SWEEP_LOG10_RANGE = (6.0, 8.0)
SWEEP_STRATA = 17

# Hostile certificates: forms without h2 whose minimum is large and known in
# closed form.  ``minimum`` steps its bound one norm at a time, so their cost
# grows with the minimum.
HOSTILE_UPAIR_COUNT = 5
HOSTILE_UPAIR_HALF_MIN = (150, 450)
HOSTILE_E8_SCALES = (3, 4)

AMBIENT_RANK = 23
_E8_OFFSETS = (0, 8)
_U_OFFSETS = (16, 18)

CheckFn = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argument vector, its size and its check."""

    key: str
    stratum: str
    argv: tuple[str, ...]
    rows: int
    check: CheckFn


def _rc_for(verdict: str) -> int:
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------
# intersect (generic and strict)


def _intersect_op(key: str, targets: list[int], strict: bool) -> Op:
    argv = ["intersect", *map(str, targets)]
    if strict:
        argv += ["--mode", "strict"]
    argv.append("--json")

    def check(rc: int, out: str) -> str | None:
        doc = json.loads(out)
        report = doc["report"]
        if rc != _rc_for(report["verdict"]):
            return f"exit code {rc} disagrees with verdict {report['verdict']}"
        if doc["targets"] != targets or len(doc["basis"]) != len(targets) + 1:
            return "certificate does not match the requested targets"
        realized = [l["realizedD"] for l in report["labellings"]]
        if realized != targets:
            return f"labelling discriminants {realized} differ from targets {targets}"
        if strict and not isinstance(report["gramMatchesReference"], bool):
            return "strict run reports no reference comparison"
        return None

    return Op(key=key, stratum=f"n{len(targets)}", argv=tuple(argv), rows=len(targets) + 1, check=check)


def generic_targets(rng: random.Random, n: int) -> list[int]:
    """Criterion-7 target list of length n: two (*) targets, then (**) ones."""
    targets = [rng.choice(STAR_POOL), rng.choice(STAR_POOL)]
    return targets + [rng.choice(DOUBLE_STAR_POOL) for _ in range(n - 2)]


def generic_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    index = 0
    while True:
        lengths = list(range(2, 21))
        rng.shuffle(lengths)
        block = []
        for n in lengths:
            block.append(_intersect_op(str(index), generic_targets(rng, n), strict=False))
            index += 1
        yield block


def strict_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    index = 0
    while True:
        lengths = list(STRICT_LENGTHS)
        rng.shuffle(lengths)
        block = []
        for n in lengths:
            targets = [rng.choice(STAR2_POOL), rng.choice(STAR2_POOL)]
            targets += list(STRICT_A2_TARGETS)
            targets += [rng.choice(DOUBLE_STAR2_POOL) for _ in range(n - 4)]
            block.append(_intersect_op(str(index), targets, strict=True))
            index += 1
        yield block


# ---------------------------------------------------------------------------
# sweep-conjecture


def conjecture_rows(limit: int) -> list[str]:
    """Expected CSV rows of ``sweep-conjecture --limit limit``.

    Derived independently of the program: d = 6 * 4^k * s^2 + 2 with k >= 1,
    s >= 2 is d = 6x^2 + 2 for x = 2^k s, i.e. x even, x >= 4; the largest k
    is the 2-adic valuation of x, one less when x is a power of two (s = 2).
    Every such d is K3-admissible: an odd prime dividing 3x^2 + 1 makes -3 a
    square, so it is 1 mod 3, and 3x^2 + 1 is odd and prime to 3.
    """
    rows = []
    x = 4
    while 6 * x * x + 2 <= limit:
        k = (x & -x).bit_length() - 1
        s = x >> k
        if s == 1:
            k, s = k - 1, 2
        rows.append(f"{6 * x * x + 2},{k},{s},true")
        x += 2
    return rows


def _sweep_op(key: str, stratum: int, limit: int) -> Op:
    expected = conjecture_rows(limit)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc} for a sweep without counterexamples"
        if out != "\n".join(["d,k,s,admissible", *expected]) + "\n":
            return f"sweep to {limit} differs from the {len(expected)} expected rows"
        return None

    return Op(
        key=key,
        stratum=f"s{stratum}",
        argv=("sweep-conjecture", "--limit", str(limit)),
        rows=len(expected),
        check=check,
    )


def sweep_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    lo, hi = SWEEP_LOG10_RANGE
    width = (hi - lo) / SWEEP_STRATA
    index = 0
    while True:
        strata = list(range(SWEEP_STRATA))
        rng.shuffle(strata)
        block = []
        for k in strata:
            limit = int(10 ** (lo + width * (k + rng.random())))
            block.append(_sweep_op(str(index), k, limit))
            index += 1
        yield block


# ---------------------------------------------------------------------------
# verify-file (certs)


def _unit(index: int, scale: int = 1) -> list[int]:
    coords = [0] * AMBIENT_RANK
    coords[index] = scale
    return coords


def hostile_upair(a: int, b: int) -> tuple[list[list[int]], int]:
    """Basis e1 + a*f1, e2 + b*f2 from the two hyperbolic planes.

    The vectors are orthogonal of norms 2a and 2b, so the minimum is
    2 * min(a, b).
    """
    rows = []
    for offset, n in zip(_U_OFFSETS, (a, b)):
        row = _unit(offset)
        row[offset + 1] = n
        rows.append(row)
    return rows, 2 * min(a, b)


def hostile_e8(copy: int, m: int) -> tuple[list[list[int]], int]:
    """Basis m*t_1, ..., m*t_8 of one E8 block: the form m^2 E8, minimum 2m^2."""
    offset = _E8_OFFSETS[copy - 1]
    return [_unit(offset + i, m) for i in range(8)], 2 * m * m


def hostile_certificate(basis: list[list[int]]) -> dict:
    """Certificate JSON for ``basis`` whose embedded report falsely claims PASS."""
    targets = [8] * (len(basis) - 1)
    return {
        "ambient": "E8+E8+U+U+I3",
        "basis": basis,
        "targets": targets,
        "report": {
            "criterion": {
                "containsHSquared": True,
                "positiveDefinite": True,
                "saturated": True,
                "minimumNorm": 3,
                "pass": True,
            },
            "labellings": [
                {"targetD": d, "realizedD": d, "saturatedInM": True} for d in targets
            ],
            "gramMatchesReference": None,
            "realizedGram": [[3]],
            "verdict": "PASS",
            "failureReasons": [],
        },
        "toolVersion": "0.1.0",
    }


def _honest_check(embedded: dict) -> CheckFn:
    def check(rc: int, out: str) -> str | None:
        report = json.loads(out)
        if rc != _rc_for(report["verdict"]):
            return f"exit code {rc} disagrees with verdict {report['verdict']}"
        if report != embedded:
            return "re-verification differs from the embedded report"
        return None

    return check


def _hostile_check(expected_min: int) -> CheckFn:
    def check(rc: int, out: str) -> str | None:
        report = json.loads(out)
        if report["verdict"] == "PASS" or rc != 1:
            return f"hostile certificate accepted (verdict {report['verdict']}, exit {rc})"
        found = report["criterion"]["minimumNorm"]
        if found != expected_min:
            return f"minimumNorm {found}, closed form gives {expected_min}"
        return None

    return check


def certs_pool(seed: int, directory: Path, run_cli: Callable) -> list[Op]:
    """Write the certificate files of one seed and return one op per file.

    Honest certificates come from ``intersect --json`` (one per target count
    2..20) and ``corollary20 --json``; hostile ones are written directly.
    ``run_cli(argv)`` returns the exit code and stdout of one CLI call.
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    docs: list[tuple[str, dict, CheckFn]] = []
    for n in range(2, 21):
        _, out = run_cli(["intersect", *map(str, generic_targets(rng, n)), "--json"])
        doc = json.loads(out)
        docs.append((f"honest-n{n:02d}", doc, _honest_check(doc["report"])))
    _, out = run_cli(["corollary20", "--json"])
    doc = json.loads(out)["certificate"]
    docs.append(("honest-corollary20", doc, _honest_check(doc["report"])))
    lo, hi = HOSTILE_UPAIR_HALF_MIN
    for i in range(HOSTILE_UPAIR_COUNT):
        # One pair per equal slice of the range: cost grows with the minimum.
        a = int(lo + (hi - lo) * (i + rng.random()) / HOSTILE_UPAIR_COUNT)
        basis, minimum = hostile_upair(a, a + rng.randint(1, 50))
        docs.append((f"hostile-upair{i}", hostile_certificate(basis), _hostile_check(minimum)))
    for m in HOSTILE_E8_SCALES:
        basis, minimum = hostile_e8(rng.choice((1, 2)), m)
        docs.append((f"hostile-e8x{m}", hostile_certificate(basis), _hostile_check(minimum)))
    ops = []
    for name, doc, check in docs:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        argv = ("verify-file", str(path), "--json")
        ops.append(Op(key=name, stratum=name, argv=argv, rows=len(doc["basis"]), check=check))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("generic", "certs", "strict", "sweep")


def blocks(workload: str, seed: int, directory: Path, run_cli: Callable) -> Iterator[list[Op]]:
    """The block stream of one workload; certs first writes its files."""
    if workload == "generic":
        return generic_blocks(seed)
    if workload == "strict":
        return strict_blocks(seed)
    if workload == "sweep":
        return sweep_blocks(seed)
    if workload == "certs":
        return itertools.repeat(certs_pool(seed, directory, run_cli))
    raise ValueError(f"unknown workload {workload!r}")
