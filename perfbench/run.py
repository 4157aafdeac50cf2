"""Closed-loop benchmark of the hassett command line.

One process, one thread, one client: each op is one ``hassett.cli.main(argv)``
call with stdout captured, and the next op starts only after the previous one
returned and its output was checked.  ``hassett`` is imported from ``src/``
of the checkout this file sits in.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` every op runs under the span tracer
and the object holds the per-layer metrics instead.  ``--record`` rewrites
``expected.json``, the exit codes and stdout digests of the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import MODULES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Every PAIR_EVERY-th traced op also runs untraced, to measure tracing overhead.
PAIR_EVERY = 4
# Seconds probe() takes on the reference box (2 vCPUs of an Intel Xeon at
# 2.0 GHz, Python 3.11.7) when no other tenant is busy, as estimated from
# the raw op times of quiet runs.
PROBE_REFERENCE_S = 0.0004

# op_tail_ms is the highest percentile that keeps at least ten ops beyond it
# in a 20 s run at this commit even at half machine speed (then about 600
# ops on generic, 300 on certs, 150 on strict, 250 on sweep).
TAIL_PERCENTILE = {"generic": 98, "certs": 95, "strict": 90, "sweep": 95}

# Blocks recorded per workload by --record: more than a 20 s run makes today.
RECORD_BLOCKS = {"generic": 100, "certs": 1, "strict": 150, "sweep": 50}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Bench:
    """The imported CLI of one set-up, and the op stream it will run."""

    def __init__(self, workload: str, seed: int):
        for name in [m for m in sys.modules if m == "hassett" or m.startswith("hassett.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("hassett.cli")
        self.blocks = workloads.blocks(workload, seed, OUT_DIR / f"certs-{seed}", self.run_cli)
        # Warm up on the first block; measuring starts at the next one.
        for op in next(self.blocks):
            self.run_cli(op.argv)

    def run_cli(self, argv) -> tuple[int | None, str]:
        """Exit code and stdout of one CLI call; a raised exception gives None."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except Exception:
                return None, traceback.format_exc()
        return rc, out.getvalue()


def check_op(op: workloads.Op, rc: int | None, out: str, expected: dict | None) -> str | None:
    """Why the op's output is wrong, or None when it is correct."""
    if rc is None:
        return "raised: " + out.strip().splitlines()[-1]
    if expected is not None and op.key in expected:
        if expected[op.key] != f"{rc}:{digest(out)}":
            return f"exit code or stdout digest differs from the recorded {expected[op.key]}"
    try:
        return op.check(rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def timed(bench: Bench, op: workloads.Op) -> tuple[float, int | None, str]:
    start = time.perf_counter()
    rc, out = bench.run_cli(op.argv)
    return time.perf_counter() - start, rc, out


def probe() -> float:
    """Seconds a fixed exact-arithmetic kernel takes: the machine's speed just now.

    Fraction elimination and big-integer products, the same kind of work the
    program does, so that interference slows the probe as much as an op.
    """
    start = time.perf_counter()
    a = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]
    for k in range(5):
        for i in range(k + 1, 6):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    n = 3**200
    for i in range(200):
        n = (n * 12345 + i) % 7**150
    return time.perf_counter() - start


@dataclass
class Record:
    stratum: str
    latency: float
    rows: int
    scale: float  # PROBE_REFERENCE_S over the mean probe just before and after


def measure(bench: Bench, seconds: float, expected: dict | None, tracer: Tracer | None):
    """Run whole blocks until ``seconds`` have passed; return per-op records."""
    records: list[Record] = []
    failures: list[str] = []
    paired = [0.0, 0.0]  # untraced, traced seconds of the paired ops
    deadline = time.perf_counter() + seconds
    before = probe()
    for block in bench.blocks:
        for op in block:
            index = len(records)
            reference = None
            if tracer is not None:
                tracer.op = index
                if index % PAIR_EVERY == 0:
                    # Alternate which side runs first so neither gets a warmer cache.
                    if index % (2 * PAIR_EVERY) == 0:
                        reference = timed(bench, op)
                    tracer.install()
                    dt, rc, out = timed(bench, op)
                    tracer.uninstall()
                    if reference is None:
                        reference = timed(bench, op)
                    paired[0] += reference[0]
                    paired[1] += dt
                else:
                    tracer.install()
                    dt, rc, out = timed(bench, op)
                    tracer.uninstall()
            else:
                dt, rc, out = timed(bench, op)
            after = probe()
            records.append(Record(op.stratum, dt, op.rows, 2 * PROBE_REFERENCE_S / (before + after)))
            before = after
            reason = check_op(op, rc, out, expected)
            if reason is None and reference is not None and reference[1:] != (rc, out):
                reason = "traced and untraced runs differ"
            if reason is not None:
                failures.append(f"op {index} ({' '.join(op.argv)}): {reason}")
        if time.perf_counter() >= deadline:
            break
    return records, failures, paired


def timed_setup(workload: str, seed: int) -> tuple[Bench, float]:
    """One set-up and its time at reference speed."""
    before = probe()
    start = time.perf_counter()
    bench = Bench(workload, seed)
    elapsed = time.perf_counter() - start
    return bench, elapsed * 2 * PROBE_REFERENCE_S / (before + probe())


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload: str, setup_s: list[float], records: list[Record]):
    """End-to-end metrics at reference speed.

    Every time is scaled by its op's probe factor (see README).  Throughput
    is the number of strata per block over the sum of the strata's median
    latencies, so a few disturbed ops move it little.
    """
    latencies = sorted(r.latency * r.scale for r in records)
    by_stratum: dict[str, list[Record]] = {}
    for r in records:
        by_stratum.setdefault(r.stratum, []).append(r)
    block_s = sum(statistics.median(r.latency * r.scale for r in g) for g in by_stratum.values())
    rows = sum(statistics.fmean(r.rows for r in g) for g in by_stratum.values())
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, TAIL_PERCENTILE[workload]) * 1e3, "ms"),
        "ops_per_s": (len(by_stratum) / block_s, "1/s"),
        "rows_per_s": (rows / block_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def commit_hash() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "commit": commit_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def load_expected(seed: int, workload: str) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload]


def record() -> None:
    """Write the exit code and stdout digest of each default-seed op."""
    doc = {}
    for workload in workloads.WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED)
        entries: dict[str, str] = {}
        for _ in range(RECORD_BLOCKS[workload]):
            for op in next(bench.blocks):
                rc, out = bench.run_cli(op.argv)
                reason = check_op(op, rc, out, None)
                if reason is not None:
                    raise SystemExit(f"{workload} op {op.key} fails its check: {reason}")
                entries[op.key] = f"{rc}:{digest(out)}"
        doc[workload] = entries
        print(f"{workload}: recorded {len(entries)} ops", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "hassett" / "__init__.py").is_file():
        print(f"error: no hassett package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    expected = load_expected(args.seed, args.workload)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        bench, elapsed = timed_setup(args.workload, args.seed)
        setup_s.append(elapsed)

    tracer = Tracer() if args.trace else None
    records, failures, paired = measure(bench, args.seconds, expected, tracer)

    for line in failures[:20]:
        print(f"# FAILED {line}")
    attempted, failed = len(records), len(failures)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(environment())}")
    print(f"# ops={attempted} failed={failed} failed_ratio={failed / attempted:.6g} "
          f"tail=p{TAIL_PERCENTILE[args.workload]} digests={'checked' if expected else 'not recorded for this seed'}")
    if tracer is None:
        metrics = end_to_end(args.workload, setup_s, records)
    else:
        metrics = tracer.metrics(
            [r.latency for r in records], [r.scale for r in records], paired[1] / paired[0]
        )
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv")
        wall = metrics["op.wall_s"][0]
        shares = {m: metrics[f"{m}.self_s"][0] / wall for m in (*MODULES, "unattributed")}
        print("# share of op time: " + " ".join(f"{m}={v:.3f}" for m, v in shares.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
