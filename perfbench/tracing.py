"""Spans around the public functions of each hassett layer.

The tracer wraps a function by rebinding it in every ``hassett.*`` module
that holds it under a module-level name (``verifier.minimum``,
``criteria.minimum`` and ``lattice.minimum`` are one function), so calls
between modules and inside one module are both seen.  Each call records a
span (name, start, end, parent span, op id) in memory; self time is a span's
duration minus the durations of its child spans.  Nothing under ``src/``
changes: the program is only observed from outside.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "constructions", "verifier", "lattice", "linalg", "criteria")

# (module, qualified name) of every traced function, outermost layer first.
TRACED = (
    ("cli", "main"),
    ("constructions", "build_generic"),
    ("constructions", "realize_perturbations"),
    ("verifier", "verify_witness"),
    ("verifier", "Certificate.from_json"),
    ("verifier", "Certificate.to_json"),
    ("lattice", "minimum"),
    ("lattice", "short_vectors"),
    ("lattice", "gram_of"),
    ("lattice", "is_saturated"),
    ("linalg", "smith_normal_form"),
    ("linalg", "is_positive_definite"),
    ("linalg", "integer_rank"),
    ("criteria", "factorize"),
    ("criteria", "conjecture_sweep"),
)


def _smith_bits(result) -> int:
    _, d, _ = result
    return max((abs(d[i][i]).bit_length() for i in range(min(d.nrows, d.ncols))), default=0)


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.max_invariant_bits = 0
        # Result observers: counts that only the return value shows.
        self._observers = {
            "lattice.short_vectors": self._observe_short_vectors,
            "linalg.smith_normal_form": self._observe_smith,
            "constructions.build_generic": self._observe_build,
            "verifier.verify_witness": self._observe_verify,
            "criteria.conjecture_sweep": self._observe_sweep,
        }

    def _observe_short_vectors(self, result) -> None:
        self.counts["short_vectors_empty"] += not result

    def _observe_smith(self, result) -> None:
        self.max_invariant_bits = max(self.max_invariant_bits, _smith_bits(result))

    def _observe_build(self, result) -> None:
        self.counts["builds_realized"] += result.status.value.startswith("REALIZED")

    def _observe_verify(self, result) -> None:
        self.counts["verify_pass"] += result.verdict == "PASS"

    def _observe_sweep(self, result) -> None:
        self.counts["sweep_rows"] += len(result)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in the currently imported hassett modules."""
        modules = [m for k, m in list(sys.modules.items()) if k == "hassett" or k.startswith("hassett.")]
        for module_name, qualname in TRACED:
            name = f"{module_name}.{qualname}"
            module = sys.modules[f"hassett.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def metrics(
        self, latencies: list[float], scales: list[float], overhead_ratio: float
    ) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics of the traced ops.

        ``latencies`` are the ops' wall seconds and ``scales`` the factors
        that bring each op's times to reference speed.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child_ns[index]) * scales[op] / 1e9
            if parent < 0:
                root_s += (end - start) * scales[op] / 1e9
        ops = len(latencies)
        op_wall_s = sum(t * k for t, k in zip(latencies, scales))

        out: dict[str, tuple[float, str]] = {}
        for module_name, qualname in TRACED:
            name = f"{module_name}.{qualname}"
            out[f"{name}.calls"] = (calls[name] / ops, "count/op")
            out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
        for module_name in MODULES:
            total = sum(v for k, v in self_s.items() if k.startswith(module_name + "."))
            out[f"{module_name}.self_s"] = (total / ops, "s/op")
        out["unattributed.self_s"] = ((op_wall_s - root_s) / ops, "s/op")
        out["op.wall_s"] = (op_wall_s / ops, "s/op")

        minimum_calls = calls["lattice.minimum"]
        sv_calls = calls["lattice.short_vectors"]
        builds = calls["constructions.build_generic"]
        verifies = calls["verifier.verify_witness"]
        rows = self.counts["sweep_rows"]
        out["lattice.short_vectors.calls_per_minimum"] = (
            sv_calls / minimum_calls if minimum_calls else 0.0, "ratio")
        out["lattice.short_vectors.empty_ratio"] = (
            self.counts["short_vectors_empty"] / sv_calls if sv_calls else 0.0, "ratio")
        out["linalg.smith_normal_form.max_invariant_bits"] = (self.max_invariant_bits, "bits")
        out["constructions.realized_ratio"] = (
            self.counts["builds_realized"] / builds if builds else 0.0, "ratio")
        out["verifier.pass_ratio"] = (
            self.counts["verify_pass"] / verifies if verifies else 0.0, "ratio")
        out["criteria.factorize.calls_per_row"] = (
            calls["criteria.factorize"] / rows if rows else 0.0, "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")
