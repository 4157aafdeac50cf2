"""Kernel and CLI timings: one pytest-benchmark case per exact kernel and per CLI workload.

    python -m pytest tools/kernel_timings.py --benchmark-json=BENCH_$(git rev-parse --short HEAD).json

The suite sits outside ``testpaths``, so tier 1 never runs it; it is run by
explicit path.  Every input is fixed: the corollary witness, its 1000-move
scramble (``tests/test_linalg.py::_scrambled_corollary``), seeded rank-21
GOAL draws, a rank-4 GOAL witness and a rank-12 one.  The echelon cases
also run once, untimed, under ``PivotSpy`` (``tests/pivot_spy.py``), and
store the Euclid rounds, row swaps, column updates and largest entry of
``_pivot_row`` in the case's ``extra_info``, so counts sit beside times in
the JSON.  The ``test_cli_*`` cases time whole commands of the north
star's workloads through ``cli.main`` in this process, stdout captured, and
store the row or target count of each in ``extra_info``.  To time another
checkout's package with this suite, put its ``src`` first on ``PYTHONPATH``.
"""

import contextlib
import io
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import hassett.cli as cli  # noqa: E402
import hassett.constructions as constructions  # noqa: E402
import hassett.lattice as lattice  # noqa: E402
import hassett.linalg as linalg  # noqa: E402
from hassett.constructions import (  # noqa: E402
    COROLLARY_DISCRIMINANTS,
    Mode,
    build_generic,
    corollary20_certificate,
    generic_slots,
)
from hassett.criteria import _certify_family, factorize  # noqa: E402
from hassett.lattice import H_SQUARED, gram_of, minimum  # noqa: E402
from pivot_spy import PivotSpy  # noqa: E402
from test_linalg import _scrambled_corollary  # noqa: E402

COROLLARY = corollary20_certificate().basis
SCRAMBLE = _scrambled_corollary()
ECHELONS = {
    "corollary": ([v.coords for v in COROLLARY], H_SQUARED.coords),
    "scramble1000": (SCRAMBLE, tuple(SCRAMBLE[0])),
}
RANKS = {
    "rank4": build_generic(COROLLARY_DISCRIMINANTS[:3], Mode.GOAL).certificate.basis,
    "rank12": build_generic(COROLLARY_DISCRIMINANTS[:11], Mode.GOAL).certificate.basis,
    "rank21": COROLLARY,
}


def _record_echelon_work(benchmark, monkeypatch, module, run) -> None:
    """Run ``run`` once with ``module._pivot_row`` spied and store the counts.

    ``module`` must be the one whose global ``_pivot_row`` the code under
    ``run`` calls; a spy that saw no call fails the case rather than store
    zeros.
    """
    spy = PivotSpy(module._pivot_row)
    with monkeypatch.context() as patch:
        patch.setattr(module, "_pivot_row", spy)
        run()
    assert spy.counts["calls"] > 0, f"{module.__name__}._pivot_row was never called"
    benchmark.extra_info.update(spy.counts)


@pytest.mark.parametrize("name", ECHELONS)
def test_span_membership(benchmark, monkeypatch, name):
    rows, target = ECHELONS[name]
    assert benchmark(lattice.span_membership, rows, target)[:2] == (True, True)
    _record_echelon_work(benchmark, monkeypatch, lattice, lambda: lattice.span_membership(rows, target))


def test_glue_rank21_draws(benchmark, monkeypatch):
    # The quotient rows of eight seeded draws of the corollary's 18 y_j.
    slots = generic_slots(COROLLARY_DISCRIMINANTS)[2:]
    rng = random.Random(40)
    draws = [
        [constructions._quotient_coords(constructions._draw_y(s, rng)) for s in slots] for _ in range(8)
    ]

    def glue_all():
        return [constructions._glue(rows) for rows in draws]

    benchmark(glue_all)
    _record_echelon_work(benchmark, monkeypatch, constructions, glue_all)


@pytest.mark.parametrize("name", ["rank4", "rank21"])
def test_ldl(benchmark, name):
    assert benchmark(lattice._ldl, gram_of(RANKS[name])) is not None


@pytest.mark.parametrize("name", ["rank4", "rank21"])
def test_minimum(benchmark, name):
    assert benchmark(minimum, gram_of(RANKS[name])) >= 2


def test_gram_of_rank21(benchmark):
    benchmark(gram_of, COROLLARY)


@pytest.mark.parametrize("name", ["rank12", "rank21"])
def test_smith_on_dense_gram(benchmark, name):
    rows = gram_of(RANKS[name]).to_lists()
    benchmark(lambda: linalg._smith_in_place([list(r) for r in rows]))


def test_factorize_family_rows(benchmark):
    # n_t = 12 t^2 + 1 near 10^9, whose prime factors are all 1 mod 3.
    values = [12 * t * t + 1 for t in range(9000, 9050)]
    benchmark(lambda: [factorize(n) for n in values])


def test_certify_family(benchmark):
    # The family that conjecture_sweep certifies at limit 10^8.
    assert benchmark(_certify_family, math.isqrt((10**8 - 2) // 24) - 1)


def _cli(argv: list[str]) -> str:
    """The stdout of ``hassett argv`` run in process; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("limit", [10**8, 10**10], ids=["1e8", "1e10"])
def test_cli_sweep_conjecture(benchmark, limit):
    text = benchmark(_cli, ["sweep-conjecture", "--limit", str(limit)])
    benchmark.extra_info["rows"] = text.count("\n") - 1  # less the CSV header


@pytest.mark.parametrize("count", [3, 20])
def test_cli_intersect(benchmark, count):
    targets = [str(d) for d in COROLLARY_DISCRIMINANTS[:count]]
    benchmark(_cli, ["intersect", "--json", *targets])
    benchmark.extra_info["targets"] = count


def test_cli_corollary20(benchmark):
    # Every round builds the certificate afresh instead of reading the cache.
    benchmark.pedantic(
        _cli, args=(["corollary20"],), setup=corollary20_certificate.cache_clear, rounds=50, iterations=1
    )
    benchmark.extra_info["targets"] = len(COROLLARY_DISCRIMINANTS)


def test_cli_verify_file(benchmark, tmp_path):
    cert = corollary20_certificate()
    path = tmp_path / "corollary20.json"
    path.write_text(cert.to_json())
    benchmark(_cli, ["verify-file", "--json", str(path)])
    benchmark.extra_info["targets"] = len(cert.targets)
