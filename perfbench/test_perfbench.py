"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC_DIR))

SEED = 7


def _cheap_ops(workload: str, bench: run.Bench) -> list[workloads.Op]:
    block = next(bench.blocks)
    if workload == "certs":
        return [op for op in block if op.key in ("honest-n02", "honest-n05", "hostile-upair0")]
    if workload == "sweep":
        return [op for op in block if op.stratum in ("s0", "s1")]
    if workload == "strict":
        return [op for op in block if op.stratum == "n8"]
    return [op for op in block if len(op.argv) <= 8]


def test_traced_and_untraced_runs_print_identical_stdout():
    for workload in workloads.WORKLOADS:
        bench = run.Bench(workload, SEED)
        ops = _cheap_ops(workload, bench)
        assert ops
        tracer = Tracer()
        for op in ops:
            rc, out = bench.run_cli(op.argv)
            tracer.install()
            try:
                traced_rc, traced_out = bench.run_cli(op.argv)
            finally:
                tracer.uninstall()
            assert run.check_op(op, rc, out, None) is None
            assert (traced_rc, run.digest(traced_out)) == (rc, run.digest(out))
        roots = [span for span in tracer.spans if span[3] < 0]
        assert [span[0] for span in roots] == ["cli.main"] * len(ops)


def test_wrong_expected_digest_counts_op_as_failed():
    bench = run.Bench("generic", SEED)
    wrong_digests = {str(i): "0:0000000000000000" for i in range(19, 38)}  # first measured block
    records, failures, _ = run.measure(bench, 0, wrong_digests, None)
    assert len(records) == 19
    assert len(failures) == 19
    assert all("digest" in line for line in failures)

    bench = run.Bench("generic", SEED)
    op = next(bench.blocks)[0]
    rc, out = bench.run_cli(op.argv)
    right = {op.key: f"{rc}:{run.digest(out)}"}
    assert run.check_op(op, rc, out, right) is None
    wrong = {op.key: f"{rc}:{'f' * 16}"}
    assert "digest" in run.check_op(op, rc, out, wrong)


def test_hostile_closed_form_minima_match_lattice_minimum():
    run.Bench("sweep", SEED)  # imports hassett from the checkout
    from hassett.lattice import AmbientVector, gram_of, minimum

    cases = [workloads.hostile_upair(a, b) for a, b in ((1, 1), (2, 5), (7, 3), (12, 9))]
    cases += [workloads.hostile_e8(copy, m) for copy in (1, 2) for m in (1, 2)]
    for basis, expected in cases:
        gram = gram_of([AmbientVector(row) for row in basis])
        assert minimum(gram) == expected
