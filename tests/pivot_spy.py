"""A spy that measures the work of ``lattice._pivot_row``, the echelon's column step.

``PivotSpy(inner)`` is called like ``inner(rest, p)`` and returns what it
returns, with the same effect on the rows.  Its ``counts`` dict adds up,
over the calls since ``reset()``, the ``calls`` themselves and

* ``rounds``: executions of the body of the function's ``while`` loop, one
  per Euclid round;
* ``swaps``: executions of its swap statement ``r[i], r[j] = r[j], r[i]``,
  one per row;
* ``updates``: executions of its subtraction ``r[j] -= ...``, one per entry;
* ``bits``: the bit length of the largest entry any row held, on entry or
  after any write.

The statements are found in the function's syntax tree, so the spy reads
any version of the loop that keeps these three statement shapes.  Counting
runs a line tracer, so time nothing while a spy is installed.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap


class _Row(list):
    """A row that reports every entry written to it."""

    __slots__ = ("spy",)

    def __setitem__(self, i, value):
        super().__setitem__(i, value)
        self.spy.saw((value,))


def _statement_lines(fn) -> tuple[int, int, int]:
    """Absolute lines of the loop body's first statement, the swap and the subtraction."""
    source, first = inspect.getsourcelines(fn)
    found: dict[str, list[int]] = {"body": [], "swap": [], "update": []}
    for node in ast.walk(ast.parse(textwrap.dedent("".join(source)))):
        if isinstance(node, ast.While):
            found["body"].append(node.body[0].lineno)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            # a, b = b, a: the targets are the values in reverse.
            targets = getattr(node.targets[0], "elts", ())
            if len(targets) == 2 and list(map(ast.unparse, targets)) == list(
                map(ast.unparse, node.value.elts[::-1])
            ):
                found["swap"].append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
            found["update"].append(node.lineno)
    if any(len(lines) != 1 for lines in found.values()):
        raise ValueError(f"{fn.__name__} needs one while loop, one swap and one subtraction: {found}")
    return tuple(first + lines[0] - 1 for lines in found.values())


class PivotSpy:
    def __init__(self, inner):
        self.inner = inner
        self.lines = dict(zip(_statement_lines(inner), ("rounds", "swaps", "updates")))
        self.reset()

    def reset(self) -> None:
        self.counts = dict.fromkeys(("calls", "rounds", "swaps", "updates", "bits"), 0)

    def saw(self, values) -> None:
        self.counts["bits"] = max([self.counts["bits"], *(abs(v).bit_length() for v in values)])

    def _line(self, frame, event, arg):
        name = self.lines.get(frame.f_lineno)
        if event == "line" and name:
            self.counts[name] += 1
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code is self.inner.__code__ else None

    def __call__(self, rest, p):
        self.counts["calls"] += 1
        rows = []
        for row in rest:
            self.saw(row)
            spied = _Row(row)
            spied.spy = self
            rows.append(spied)
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            result = self.inner(rows, p)
        finally:
            sys.settrace(previous)
        for row, spied in zip(rest, rows):
            row[:] = spied
        return result
