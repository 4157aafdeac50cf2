import contextlib
import copy
import functools
import io
import json
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hassett.cli as cli
import hassett.criteria as criteria
from hassett import __version__
from hassett.cli import main
from hassett.verifier import Certificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckD:
    def test_star_and_double_star(self, capsys):
        code, out, _ = run(capsys, "check-d", "26")
        assert code == 0
        assert "m = 2" in out and "yes" in out

    def test_k3_failure_does_not_change_exit(self, capsys):
        code, out, _ = run(capsys, "check-d", "18")
        assert code == 0  # star holds; exit tracks star only
        assert "associated K3:   no" in out

    def test_star_failure(self, capsys):
        code, _, _ = run(capsys, "check-d", "7")
        assert code == 1

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "check-d", "0")
        assert code == 2 and "error" in err
        code, _, _ = run(capsys, "check-d", str(10**12 + 1))
        assert code == 2

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "check-d", "26", "--json")
        doc = json.loads(out)
        assert doc["d"] == 26 and doc["doubleStarWitness"] == 2
        assert doc["factorization"] == [[2, 1], [13, 1]]


class TestIntersect:
    def test_passing_witness(self, capsys):
        code, out, _ = run(capsys, "intersect", "8", "8")
        assert code == 0 and "PASS" in out

    def test_scaled_slot_keeps_discriminants_but_fails_saturation(self, capsys):
        # STRICT reproduces the reference Gram with the scaled slot 2*a1, whose
        # coordinate column has content 2; GOAL glues a saturated witness instead.
        code, out, _ = run(capsys, "intersect", "12", "12", "24", "--mode", "strict")
        assert code == 1
        assert "NOT_SATURATED" in out
        assert "12, 12, 24" in out

    def test_predicate_violation_names_culprit(self, capsys):
        code, _, err = run(capsys, "intersect", "14", "38", "40")
        assert code == 2
        assert "d=40" in err and "(**)" in err

    def test_json_certificate_round_trip(self, capsys):
        code, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        assert code == 0
        cert = Certificate.from_json(out)
        assert cert.report.verdict == "PASS"
        assert cert.targets == (12, 12, 26)

    def test_strict_mode_reports_reference_match(self, capsys):
        code, out, _ = run(capsys, "intersect", "12", "12", "24", "--mode", "strict", "--json")
        report = json.loads(out)["report"]
        assert report["gramMatchesReference"] is True
        assert report["realizedGram"][0] == [3, 0, 0, 0]

    def test_strict_mode_reports_reference_miss(self, capsys):
        # STRICT's best assignment misses the ideal Gram of these slots by 10,
        # so the reference handed to the verifier is not the realized Gram.
        code, out, _ = run(capsys, "intersect", "14", "14", "26", "26", "--mode", "strict", "--json")
        assert code == 1
        assert json.loads(out)["report"]["gramMatchesReference"] is False
        assert '"gramMatchesReference":false' in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_exhausted_search_says_so_in_both_modes(self, capsys, fmt):
        # A FAIL verdict on the fallback basis is no proof of impossibility,
        # so the note goes to stderr whatever the stdout format.
        code, out, err = run(capsys, "intersect", "8", "8", *["56"] * 18, *fmt)
        assert code == 1 and "NOT_SATURATED" in out
        assert "search exhausted" in err and "does not show that the targets are impossible" in err
        assert "search exhausted" not in out

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        _, out2, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("mode", ["goal", "strict"])
    def test_validates_the_targets_once(self, capsys, monkeypatch, mode):
        # The slots that validated the targets are the ones the build uses.
        import hassett.constructions as constructions

        calls = []
        inner = constructions.generic_slots

        def counting(targets):
            calls.append(tuple(targets))
            return inner(targets)

        monkeypatch.setattr(cli, "generic_slots", counting)
        monkeypatch.setattr(constructions, "generic_slots", counting)
        code, _, _ = run(capsys, "intersect", "12", "12", "26", "--mode", mode)
        assert code == 0 and calls == [(12, 12, 26)]

    def test_a_value_error_inside_the_build_is_no_usage_error(self, capsys, monkeypatch):
        # Only the target validation answers with exit 2; a fault of the
        # build itself propagates.
        import hassett.constructions as constructions

        def broken(*args):
            raise ValueError("fault inside the build")

        monkeypatch.setattr(constructions, "_glued_search", broken)
        with pytest.raises(ValueError, match="fault inside the build"):
            main(["intersect", "12", "12", "26"])
        assert capsys.readouterr().err == ""


class TestCorollary20:
    def test_table_and_honest_verdict(self, capsys):
        code, out, _ = run(capsys, "corollary20")
        lines = out.splitlines()
        assert len([l for l in lines if l.lstrip()[:1].isdigit()]) == 20
        assert "minimum norm:      3" in out
        assert "saturated:         yes" in out
        assert "verdict:           PASS" in out
        assert "reasons:" not in out
        assert code == 0

    def test_repeat_invocations_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "corollary20")
        _, out2, _ = run(capsys, "corollary20")
        assert out1 == out2

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "corollary20", "--json")
        doc = json.loads(out)
        assert len(doc["discriminants"]) == 20
        assert doc["certificate"]["targets"][0] == 14

    # A 20-target GOAL list whose first seeded draw passes.
    FIRST_DRAW_20 = (30, 62, 7776, 600, 3750, 6146, 216, 24, 9126, 8664) + (
        2168, 486, 386, 3458, 1736, 5768, 4058, 4376, 1176, 2906,
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["corollary20"],
            ["corollary20", "--json"],
            ["intersect", "12", "12", "26", "--json"],
            ["intersect", *map(str, FIRST_DRAW_20)],
            ["intersect", "12", "12", "24", "--mode", "strict", "--json"],
        ],
    )
    def test_verifies_the_witness_once(self, capsys, monkeypatch, argv):
        # Each function is counted in every hassett module that holds it, so
        # a call is seen whichever module makes it.  The corollary build is
        # cached, so its cache is cleared to count the build's own work.
        import hassett.constructions as constructions
        import hassett.lattice as lattice
        import hassett.verifier as verifier

        constructions.corollary20_certificate.cache_clear()
        originals = {
            "verify_witness": verifier.verify_witness,
            "gram_of": lattice.gram_of,
            "minimum": lattice.minimum,
            "discriminant_report": criteria.discriminant_report,
        }
        calls = dict.fromkeys(originals, 0)

        def counted(name):
            inner = originals[name]

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        modules = [m for k, m in sys.modules.items() if k == "hassett" or k.startswith("hassett.")]
        for name, inner in originals.items():
            wrapper = counted(name)
            for module in modules:
                if vars(module).get(name) is inner:
                    monkeypatch.setattr(module, name, wrapper)
        code, out, _ = run(capsys, *argv)
        strict = "strict" in argv
        # The STRICT witness 2*a1 is not saturated.
        assert code == int(strict)
        assert calls == {
            "verify_witness": 1,
            # STRICT reads its ideal reference Gram off a closed form, so in
            # either mode the witness Gram is the one Gram computed.
            "gram_of": 1,
            "minimum": 1,
            "discriminant_report": 20 if argv[0] == "corollary20" else 0,
        }
        if argv == ["corollary20", "--json"]:
            assert json.loads(out)["certificate"]["report"]["verdict"] == "PASS"


class TestSweepConjecture:
    def test_rows_and_header(self, capsys):
        code, out, _ = run(capsys, "sweep-conjecture", "--limit", "10000")
        lines = out.splitlines()
        assert lines[0] == "d,k,s,admissible"
        assert "98,1,2,true" in lines
        assert "218,1,3,true" in lines
        assert code == 0
        assert not any(line.endswith("false") for line in lines[1:])

    def test_empty_body_below_first_shape(self, capsys):
        code, out, _ = run(capsys, "sweep-conjecture", "--limit", "25")
        assert code == 0
        assert out == "d,k,s,admissible\n"

    def test_bad_limit(self, capsys):
        code, _, _ = run(capsys, "sweep-conjecture", "--limit", "0")
        assert code == 2

    def test_csv_file_output(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sweep-conjecture", "--limit", "300", "--csv", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == "d,k,s,admissible\n98,1,2,true\n218,1,3,true\n"

    def test_csv_at_ten_to_the_ten(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, err = run(
            capsys, "sweep-conjecture", "--limit", "10000000000", "--csv", str(path)
        )
        count = math.isqrt((10**10 - 2) // 24) - 1
        assert code == 0 and out == "" and count == 20411
        assert err == f"wrote {count} rows to {path}\n"
        lines = path.read_text().splitlines()
        assert len(lines) == count + 1
        assert lines[-1] == "9999593858,3,5103,true"  # x = 2t = 40824 = 2^3 * 5103

    def test_rows_at_the_cli_cap(self, capsys):
        code, out, err = run(capsys, "sweep-conjecture", "--limit", "1000000000000")
        lines = out.splitlines()
        assert code == 0 and err == ""
        assert len(lines) == 204123 + 1
        assert lines[1] == "98,1,2,true"
        assert lines[-1] == "999998577026,3,51031,true"

    def test_failed_certificate_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(criteria, "_divides_no_row", lambda p: p != 5)
        code, out, err = run(capsys, "sweep-conjecture", "--limit", "300")
        assert code == 1 and out == ""
        assert err == "error: -3 is a square mod 5, so 5 may divide some 12t^2 + 1\n"

    def test_counterexample_exits_1_and_names_it(self, capsys, monkeypatch):
        rows = [(98, 1, 2, True), (218, 1, 3, False)]
        monkeypatch.setattr(cli, "conjecture_sweep", lambda limit: rows)
        code, out, err = run(capsys, "sweep-conjecture", "--limit", "300")
        assert code == 1
        assert out == "d,k,s,admissible\n98,1,2,true\n218,1,3,false\n"
        assert err == "counterexamples found: [218]\n"


class TestVerifyFile:
    def test_round_trip(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify-file", str(path))
        assert code == 0 and "PASS" in out2

    def test_hand_edited_basis_fails(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        doc["basis"][2] = [2 * x for x in doc["basis"][2]]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify-file", str(path))
        assert code == 1 and "NOT_SATURATED" in out2

    def test_truncated_file(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out[: len(out) // 2])
        code, _, err = run(capsys, "verify-file", str(path))
        assert code == 2 and "line" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-file", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    def test_large_random_coordinates_fail_promptly(self, capsys, tmp_path):
        # 21 rows of seeded 256-bit coordinates.  The Smith form the verifier
        # used to run on them took about 30 times as long as this whole call.
        _, out, _ = run(capsys, "corollary20", "--json")
        doc = json.loads(out)["certificate"]
        rng = random.Random(256)
        doc["basis"] = [
            [rng.getrandbits(256) - 2**255 for _ in range(23)] for _ in range(21)
        ]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out2, _ = run(capsys, "verify-file", str(path), "--json")
        assert time.perf_counter() - start < 60
        report = json.loads(out2)
        assert code == 1 and report["verdict"] == "FAIL"
        assert "FIRST_BASIS_NOT_H_SQUARED" in report["failureReasons"]

    @staticmethod
    def _one_error_line(code, out, err):
        return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_coordinate_past_the_int_digit_limit_exits_2(self, capsys, tmp_path):
        # CPython refuses to parse an integer of more than 4300 digits.
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        doc["basis"][1][0] = "HUGE"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "7" * 5000))
        assert self._one_error_line(*run(capsys, "verify-file", str(path)))

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        path = tmp_path / "cert.json"
        path.write_bytes(b"\xff\xfe" + out.encode())
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and "cannot read" in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_constants_exit_2(self, capsys, tmp_path, constant):
        # Python's json module accepts these by default; RFC 8259 does not.
        _, out, _ = run(capsys, "corollary20", "--json")
        doc = json.loads(out)["certificate"]
        doc["report"]["criterion"]["minimumNorm"] = "CONSTANT"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc).replace('"CONSTANT"', constant))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and constant.lstrip("-") in err

    @pytest.mark.parametrize("number", ["1e400", "1.5"])
    def test_float_fields_exit_2(self, capsys, tmp_path, number):
        # No certificate field holds a float: 1e400 used to overflow int()
        # in the report reader, and 1.5 used to be read as 1.
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        doc["report"]["criterion"]["minimumNorm"] = "FLOAT"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc).replace('"FLOAT"', number))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and number in err

    @pytest.mark.parametrize("field", ["minimumNorm", "targetD", "realizedGram"])
    def test_numeric_string_fields_exit_2(self, capsys, tmp_path, field):
        # A number written as a string is malformed, as a float is; int() used
        # to read "3" as 3.
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        report = doc["report"]
        if field == "minimumNorm":
            report["criterion"]["minimumNorm"] = str(report["criterion"]["minimumNorm"])
        elif field == "targetD":
            report["labellings"][0]["targetD"] = "12"
        else:
            report["realizedGram"][0][0] = "3"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and "malformed report" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("report.criterion.positiveDefinite", "no"),
            ("report.labellings.0.saturatedInM", "false"),
            ("report.criterion.pass", 1),
            ("report.verdict", 0),
            ("report.failureReasons", "abc"),
            ("report.realizedGram", [[True]]),
            ("report.gramMatchesReference", "maybe"),
            ("toolVersion", 1),
        ],
        ids=str,
    )
    def test_field_of_another_json_type_exits_2(self, capsys, tmp_path, field, value):
        # Each field's JSON type must be exactly the schema's: these edits used
        # to be coerced (bool("no") is True, "abc" read as three reasons) and
        # verified to exit 0.
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        *parents, key = [int(k) if k.isdigit() else k for k in field.split(".")]
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and key in err

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("[" * 100000)
        assert self._one_error_line(*run(capsys, "verify-file", str(path)))

    def test_certificate_without_targets_exits_2(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        doc["basis"], doc["targets"] = doc["basis"][:1], []
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and "targets" in err

    def test_basis_of_more_rows_than_the_rank_exits_2(self, capsys, tmp_path):
        # More than 23 rows are dependent; 3200 of them once took about 50 s
        # and 600 MB to reach FAIL.
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        rng = random.Random(3200)
        doc["basis"] += [[rng.randint(-3, 3) for _ in range(23)] for _ in range(3200 - 4)]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert self._one_error_line(code, out2, err) and "3200 rows" in err

    def test_basis_of_rank_many_rows_is_still_verified(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        rng = random.Random(23)
        doc["basis"] += [[rng.randint(-3, 3) for _ in range(23)] for _ in range(23 - 4)]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path), "--json")
        assert code == 1 and err == ""
        assert "TARGET_COUNT_MISMATCH" in json.loads(out2)["failureReasons"]

    def test_certificate_with_one_target_is_still_verified(self, capsys, tmp_path):
        _, out, _ = run(capsys, "intersect", "12", "12", "26", "--json")
        doc = json.loads(out)
        doc["basis"], doc["targets"] = doc["basis"][:2], doc["targets"][:1]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify-file", str(path))
        assert code == 0 and "PASS" in out2 and err == ""


class _Obj(list):
    """A JSON object as its list of (key, value) pairs, so that a key can repeat."""


class _Raw(str):
    """Number text written as is; Python has no float for 1e400."""


def _to_tree(node):
    if isinstance(node, dict):
        return _Obj((k, _to_tree(v)) for k, v in node.items())
    if isinstance(node, list):
        return [_to_tree(v) for v in node]
    return node


def _dumps(node) -> str:
    if isinstance(node, _Raw):
        return str(node)
    if isinstance(node, _Obj):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(_dumps, node)) + "]"
    return json.dumps(node)


def _slots(node) -> tuple[list, list]:
    """(container, index) of every object field and of every array entry in ``node``."""
    fields, entries, stack = [], [], [node]
    while stack:
        c = stack.pop()
        if isinstance(c, _Obj):
            fields += [(c, i) for i in range(len(c))]
            stack += [v for _, v in c]
        elif isinstance(c, list):
            entries += [(c, i) for i in range(len(c))]
            stack += c
    return fields, entries


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1000, 1000), st.text(max_size=4))
# What a mutation puts in place of a field or an array entry.
_REPLACEMENTS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-1000, 1000),
    "float": st.sampled_from(["1e400", "1.5"]).map(_Raw),
    "string": st.text(max_size=4),
    "list": st.lists(_SCALARS, max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3).map(_to_tree),
}


@functools.lru_cache(maxsize=1)
def _honest_certificate() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["intersect", "12", "12", "26", "--json"]) == 0
    return out.getvalue()


class TestVerifyFileMutations:
    # Structural mutations of an honest certificate: an object field or an
    # array entry (a row, a coordinate, a target) dropped, duplicated (a
    # repeated key, a repeated row) or replaced by null, a bool, an int, a
    # float, a string, an array or an object, and the document wrapped in
    # shallow or deep nesting.  Every integer stays within +-1000, so no
    # verification is costly.
    @given(st.data())
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_every_mutation_ends_in_a_report_or_one_error_line(self, tmp_path_factory, data):
        tree = _to_tree(json.loads(_honest_certificate()))
        kinds = ["drop", "duplicate", *_REPLACEMENTS]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            pool = data.draw(st.sampled_from([p for p in _slots(tree) if p]), label="pool")
            c, i = data.draw(st.sampled_from(pool), label="slot")
            kind = data.draw(st.sampled_from(kinds), label="kind")
            if kind == "drop":
                del c[i]
            elif kind == "duplicate":
                c.insert(i, copy.deepcopy(c[i]))
            else:
                value = data.draw(_REPLACEMENTS[kind], label=kind)
                c[i] = (c[i][0], value) if isinstance(c, _Obj) else value
        text = _dumps(tree)
        depth = data.draw(st.sampled_from([0, 0, 1, 3, 100000]), label="nesting")
        text = "[" * depth + text + "]" * depth
        path = tmp_path_factory.getbasetemp() / "mutated-certificate.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-file", str(path), "--json"])
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            report = json.loads(out)
            assert code == (0 if report["verdict"] == "PASS" else 1) and err == ""
            # A parsed certificate carries the printed, recomputed report.
            assert Certificate.from_json(text).report.to_dict() == report


_TOP_USAGE = (
    "usage: hassett [-h] [--version]\n"
    "               {check-d,intersect,corollary20,sweep-conjecture,verify-file}\n"
    "               ...\n"
)
_COMMANDS = ("check-d", "intersect", "corollary20", "sweep-conjecture", "verify-file")

# (exit code, stdout, stderr) of each call, recorded with one parse of the
# whole argv through the top-level parser, at 80 columns; None: not pinned.
_RECORDED_USAGE = {
    ("--version",): (0, f"hassett {__version__}\n", ""),
    (): (2, "", _TOP_USAGE + "hassett: error: the following arguments are required: command\n"),
    ("frobnicate",): (
        2,
        "",
        _TOP_USAGE + "hassett: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'check-d', 'intersect', 'corollary20', 'sweep-conjecture', 'verify-file')\n",
    ),
    ("check-d",): (
        2,
        "",
        "usage: hassett check-d [-h] [--json] d\n"
        "hassett check-d: error: the following arguments are required: d\n",
    ),
    ("sweep-conjecture",): (
        2,
        "",
        "usage: hassett sweep-conjecture [-h] --limit LIMIT [--csv PATH]\n"
        "hassett sweep-conjecture: error: the following arguments are required: --limit\n",
    ),
    ("check-d", "26", "extra"): (2, "", _TOP_USAGE + "hassett: error: unrecognized arguments: extra\n"),
    ("check-d", "-h"): (
        0,
        "usage: hassett check-d [-h] [--json] d\n\npositional arguments:\n  d\n\n"
        "options:\n  -h, --help  show this help message and exit\n  --json\n",
        "",
    ),
}


def _run_through_top_level_parser(capsys, argv):
    """(exit code, stdout, stderr) with the whole argv parsed by a fresh top-level parser."""
    parser, _ = cli._build_parser.__wrapped__()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = 2 if exc.code not in (0, None) else 0
    else:
        code = args.func(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "argv",
        [(command, "-h") for command in _COMMANDS]
        + [
            ("check-d", "--help"),
            ("check-d",),
            ("intersect",),
            ("sweep-conjecture",),
            ("sweep-conjecture", "--csv", "out.csv"),
            ("verify-file",),
            ("intersect", "8", "8", "--mode", "bogus"),
            ("check-d", "x"),
            ("check-d", "26", "extra"),
            ("check-d", "26", "--version"),
            ("check-d", "--version"),
            ("--json", "check-d", "26"),
            ("--", "check-d", "26"),
            ("check-d", "--", "26"),
            ("--version",),
            ("--version", "check-d"),
            ("-h",),
            (),
            ("-x",),
            ("frobnicate",),
            ("CHECK-D", "26"),
        ],
    )
    def test_subcommand_dispatch_prints_as_one_top_level_parse(self, capsys, monkeypatch, argv):
        # main hands argv[1:] to the named subcommand's own parser; exit code,
        # stdout and stderr stay those of one parse through the top-level parser.
        monkeypatch.setenv("COLUMNS", "80")
        got = run(capsys, *argv)
        assert got == _run_through_top_level_parser(capsys, argv)
        if argv in _RECORDED_USAGE:
            assert got == _RECORDED_USAGE[argv]
        if argv[1:] == ("-h",):
            assert got[0] == 0 and got[1].startswith(f"usage: hassett {argv[0]} [-h]") and got[2] == ""

    def test_cached_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        # Usage errors, --version and valid calls right after invalid ones
        # print and exit the same with the one cached parser as with a new
        # parser per call.
        sequence = [
            ["frobnicate"],
            ["check-d", "26"],
            ["--version"],
            ["check-d", "twenty-six"],
            ["check-d", "26", "--json"],
            ["sweep-conjecture"],
            ["sweep-conjecture", "--limit", "300"],
            ["intersect", "8", "8", "--mode", "bogus"],
            ["intersect", "8", "8"],
            ["check-d", "--help"],
            [],
            ["check-d", "14"],
        ]
        cached = [run(capsys, *argv) for argv in sequence]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in sequence]
        assert cached == fresh
        assert [code for code, _, _ in cached] == [2, 0, 0, 2, 0, 2, 0, 2, 0, 0, 2, 0]
        assert cached[2][1].startswith("hassett ")

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_argument_exits_2(self, capsys):
        assert main(["sweep-conjecture"]) == 2

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["check-d", "26"], 0),
            (["check-d", "7"], 1),
            (["check-d", "-3"], 2),
            (["intersect", "8", "8"], 0),
            (["intersect", "12", "12", "24", "--mode", "strict"], 1),
            (["intersect", "12"], 2),
            (["intersect", "14", "38", "40"], 2),
            (["sweep-conjecture", "--limit", "300"], 0),
            (["sweep-conjecture", "--limit", "-1"], 2),
            (["sweep-conjecture", "--limit", str(10**13)], 2),
            (["verify-file", "/nonexistent/cert.json"], 2),
            (["intersect", "12", "12", "24"], 0),
            (["intersect", "12", "12", "26", "--params", "x.json"], 2),
        ],
    )
    def test_exit_code_matrix(self, capsys, argv, expected):
        assert main(argv) == expected
