"""Tests for the command-line interface."""

import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import altzeta
from altzeta import (
    CapacityError,
    DomainError,
    EvalRequest,
    EvalResult,
    deriv1_at_neg_int,
    euler_number_at_zero,
    evaluate,
)
from altzeta.cli import (
    CSV_HEADER,
    EXIT_ACCURACY,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    OutputRecord,
    build_parser,
    format_complex,
    main,
    parse_complex,
    parse_range,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("-3.5", -3.5 + 0j),
            ("1e-3", 1e-3 + 0j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("-1.5+0.25i", -1.5 + 0.25j),
            ("2.5e1+1e-1i", 25 + 0.1j),
        ],
    )
    def test_parse_complex(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "bogus", "1+2", "2j+1", "1 + 2i"])
    def test_parse_complex_rejects(self, text):
        from altzeta import DomainError

        with pytest.raises(DomainError):
            parse_complex(text)

    def test_format_round_trips(self):
        for value in (0.5 + 0j, -1.25 + 3j, 2 - 0.5j):
            assert parse_complex(format_complex(value)) == value

    def test_parse_range(self):
        assert parse_range("10:30:10") == [10.0, 20.0, 30.0]
        assert parse_range("2.5") == [2.5]
        from altzeta import DomainError

        with pytest.raises(DomainError):
            parse_range("1:2:0")

    @pytest.mark.parametrize(
        "text",
        ["10:30:10", "0.5:3:0.5", "-12.9:8.4:0.1428571", "0.1:0.3:0.1", "5:5:1", "0:99999:1"],
    )
    def test_parse_range_grid_points(self, text):
        # the grid is start + k * step through stop, as it always was
        start, stop, step = map(float, text.split(":"))
        count = math.floor((stop - start) / step + 1e-9) + 1
        assert parse_range(text) == [start + k * step for k in range(count)]

    @pytest.mark.parametrize(
        "text", ["1:2:1e-300", "1:1:1e-300", "1e17:1e18:1", "0:1e9:1", f"0:{MAX_GRID_POINTS}:1"]
    )
    def test_parse_range_refuses_unbounded_grids(self, text):
        # a step that does not advance the value, or too many points: the
        # grid would grow until memory runs out
        with pytest.raises(CapacityError):
            parse_range(text)


class TestEval:
    def test_closed_form_point(self):
        code, out = run_cli("eval", "--z", "0", "--q", "3", "--m", "0")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value_re"] == 0.5
        assert record["method"] == "special_value"

    def test_twelve_digit_constant(self):
        code, out = run_cli("eval", "--z", "2", "--q", "1", "--m", "0", "--tol", "1e-12")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value_re"] == pytest.approx(math.pi**2 / 12.0, rel=1e-12)

    def test_neg_int_derivative_point(self):
        code, out = run_cli("eval", "--z", "-3", "--q", "10", "--m", "1")
        assert code == EXIT_OK
        record = json.loads(out)
        explicit = deriv1_at_neg_int(3, 10.0)
        assert record["value_re"] == pytest.approx(
            explicit.value.real, abs=record["error_estimate"] + explicit.error_estimate
        )

    def test_plain_format(self):
        code, out = run_cli("eval", "--z", "0", "--q", "3", "--format", "plain")
        assert code == EXIT_OK
        assert out.strip() == "0.5"

    def test_malformed_arguments(self):
        code, _ = run_cli("eval", "--z", "huh", "--q", "3")
        assert code == EXIT_USAGE
        code, _ = run_cli("eval", "--q", "3")
        assert code == EXIT_USAGE
        code, _ = run_cli("eval", "--z", "1", "--q", "-2")
        assert code == EXIT_USAGE

    def test_accuracy_warning_exit_code(self):
        code, out = run_cli("eval", "--z", "-0.5", "--q", "5", "--tol", "1e-18")
        assert code == EXIT_ACCURACY
        record = json.loads(out)
        assert "accuracy warning" in record["note"]

    def test_record_round_trip(self):
        _, out = run_cli("eval", "--z", "1.5+0.5i", "--q", "4", "--m", "1")
        record = OutputRecord.from_dict(json.loads(out))
        assert record.to_dict() == json.loads(out)


class TestTable:
    def test_degenerate_grid_matches_eval(self):
        code, table_out = run_cli(
            "table", "--z-range", "2.5", "--q-range", "30", "--m", "0", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = table_out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        _, eval_out = run_cli("eval", "--z", "2.5", "--q", "30", "--m", "0")
        record = json.loads(eval_out)
        row = lines[1].split(",")
        assert float(row[4]) == record["value_re"]
        assert row[8] == record["method"]

    def test_error_estimate_decreases_along_q_sweep(self):
        code, out = run_cli(
            "table", "--z-range", "2.5", "--q-range", "10:100:10", "--m", "0"
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        estimates = [float(r.split(",")[6]) for r in rows]
        assert len(estimates) == 10
        assert all(b < a for a, b in zip(estimates, estimates[1:]))

    def test_growth_of_second_derivative_at_minus_one(self):
        code, out = run_cli(
            "table", "--z-range", "-1", "--q-range", "20:100:20", "--m", "2"
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            q, value = float(fields[2]), float(fields[4])
            lead = 0.5 * q * math.log(q) ** 2
            assert value == pytest.approx(lead, rel=0.25)

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _ = run_cli(
                "table",
                "--z-range", "0.5:2.5:0.5",
                "--q-range", "5:25:5",
                "--m", "1",
                "--out", str(path),
            )
            assert code == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_records_round_trip(self):
        code, out = run_cli(
            "table", "--z-range", "1:2:1", "--q-range", "5", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["records"]) == 2
        for item in payload["records"]:
            assert OutputRecord.from_dict(item).to_dict() == item

    @pytest.mark.parametrize(
        "z_range,q_range",
        [("1:2:1e-300", "10"), ("2.5", "0:1e9:1"), ("0:999:1", "10:110:1")],
        ids=["step-does-not-advance", "range-too-long", "grid-too-large"],
    )
    def test_unbounded_grids_fail_typed(self, z_range, q_range, capsys):
        argv = ["table", "--z-range", z_range, "--q-range", q_range]
        args = build_parser().parse_args(argv)
        with pytest.raises(CapacityError):
            args.func(args, io.StringIO())
        code, out = run_cli(*argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_path(self):
        code, _ = run_cli(
            "table", "--z-range", "1", "--q-range", "5", "--out", "/nonexistent/dir/t.csv"
        )
        assert code == EXIT_USAGE


class TestCoeffs:
    def test_euler_table(self):
        code, out = run_cli("coeffs", "--table", "euler", "--k-max", "5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,numerator,denominator,value"
        assert lines[1] == "0,1,1,1.0"
        assert lines[4] == "3,1,4,0.25"

    def test_euler_table_matches_oracle_row_for_row(self):
        from test_euler import numbers_by_reflection

        code, out = run_cli("coeffs", "--table", "euler", "--k-max", "256")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,numerator,denominator,value"
        oracle = numbers_by_reflection()
        assert len(lines) == len(oracle) + 1
        for k, (line, exact) in enumerate(zip(lines[1:], oracle)):
            try:
                approx = repr(float(exact))
            except OverflowError:
                approx = ""
            expected = f"{k},{exact.numerator},{exact.denominator},{approx}"
            assert line == expected, k

    def test_pochhammer_derivative_table(self):
        code, out = run_cli(
            "coeffs", "--table", "pochhammer-derivative", "--k-max", "3", "--z", "0"
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == pytest.approx([1.0, 0.5, 1.0 / 3.0])

    def test_expansion_table_json(self):
        code, out = run_cli(
            "coeffs", "--table", "expansion", "--k-max", "5", "--z", "2", "--m", "0",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        rows = {row["k"]: float(row["value_re"]) for row in payload["rows"]}
        assert rows[2] == 0.0
        assert rows[3] == pytest.approx(1.0)  # E_3(0) * (2)_3 / 3!

    def test_expansion_order_past_170_reads_exact_zeros(self):
        # g_m(k) = 0 for k < m; m! itself would overflow a double
        code, out = run_cli("coeffs", "--table", "expansion", "--z", "0.5", "--m", "171")
        assert code == EXIT_OK
        assert all(row.endswith(",171,0.0,0.0") for row in out.strip().splitlines()[1:])

    @pytest.mark.parametrize("z", ["-7.25", "2.5", "-3"])
    @pytest.mark.parametrize(
        "table,m", [("pochhammer-derivative", 1), ("expansion", 0), ("expansion", 3)]
    )
    def test_float_rows_stay_within_rounding_of_the_exact_values(
        self, table, m, z, magnitude_layers, exact_nested_layers
    ):
        # Each row is E_k(0) g_m(k) (or g_1(k)) in doubles: within a few ulps
        # of the magnitude layer of the exact value, and the same bytes on
        # every run.
        argv = ("coeffs", "--table", table, "--z", z, "--m", str(m), "--k-max", "60")
        code, out = run_cli(*argv)
        assert code == EXIT_OK
        assert run_cli(*argv) == (code, out)
        exact = exact_nested_layers(Fraction(z), m, 60)[m]
        mags = magnitude_layers(float(z), m, 60)[m]
        rows = out.strip().splitlines()[1:]
        assert len(rows) == (60 if table == "pochhammer-derivative" else 59)
        for row in rows:
            k, *_, re, im = row.split(",")
            k = int(k)
            weight = 1 if table == "pochhammer-derivative" else euler_number_at_zero(k)
            assert float(im) == 0.0
            err = abs(Fraction(re) - weight * exact[k])
            assert err <= 64 * 2.2e-16 * abs(weight) * mags[k], k


class TestVerify:
    def test_identities_suite_passes(self):
        code, out = run_cli("verify", "--suite", "identities")
        assert code == EXIT_OK
        assert "[FAIL]" not in out

    def test_section5_reports_finding(self):
        code, out = run_cli("verify", "--suite", "section5")
        assert code == EXIT_OK
        assert "[FINDING]" in out
        assert "the oracle supports the standard form" in out


@pytest.mark.parametrize(
    "z,q,m,error,exit_code",
    [
        ("nan", 2.0, 0, DomainError, EXIT_USAGE),
        ("2+infi", 2.0, 0, DomainError, EXIT_USAGE),
        ("2.5", math.inf, 0, DomainError, EXIT_USAGE),
        ("2.5", 2.0, True, DomainError, EXIT_USAGE),
        ("2.5", 2.0, 2.0, DomainError, EXIT_USAGE),
        ("2.5", 1e-300, 0, CapacityError, EXIT_USAGE),
        ("-300+0.5i", 2.0, 0, CapacityError, EXIT_USAGE),
        ("1e4", 30.0, 0, None, EXIT_ACCURACY),  # every power underflows to zero
        ("-60.25", 1e5, 8, None, EXIT_ACCURACY),  # the value overflows to inf
        ("-60.25+1i", 1e5, 8, None, EXIT_ACCURACY),
        # command lines that used to grow a grid without end or crash on an
        # empty table; z holds the argv, whose handler must raise the error
        pytest.param(
            ("table", "--z-range", "1:2:nan", "--q-range", "10"),
            None, None, DomainError, EXIT_USAGE, id="table-z-step-nan",
        ),
        pytest.param(
            ("table", "--z-range", "1", "--q-range", "10:inf:1"),
            None, None, DomainError, EXIT_USAGE, id="table-q-stop-inf",
        ),
        pytest.param(
            ("table", "--z-range=-inf:1:1", "--q-range", "10"),
            None, None, DomainError, EXIT_USAGE, id="table-z-start-inf",
        ),
        pytest.param(
            ("table", "--z-range", "1", "--q-range", "ten"),
            None, None, DomainError, EXIT_USAGE, id="table-q-not-a-number",
        ),
        pytest.param(
            ("coeffs", "--table", "pochhammer-derivative", "--k-max", "0"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-pochhammer-k0",
        ),
        pytest.param(
            ("coeffs", "--table", "expansion", "--k-max", "1"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-expansion-k1",
        ),
        pytest.param(
            ("coeffs", "--table", "euler", "--k-max", "-1"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-euler-k-1",
        ),
        pytest.param(
            ("coeffs", "--table", "pochhammer-derivative", "--k-max", "3", "--z", "nan"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-pochhammer-z-nan",
        ),
        pytest.param(
            ("coeffs", "--table", "expansion", "--k-max", "4", "--z", "inf"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-expansion-z-inf",
        ),
        # rows that overflow a double end the table instead of printing nan
        pytest.param(
            ("coeffs", "--table", "pochhammer-derivative", "--z=1e160", "--k-max", "3"),
            None, None, CapacityError, EXIT_USAGE, id="coeffs-pochhammer-overflow",
        ),
        pytest.param(
            ("coeffs", "--table", "expansion", "--z=1e200"),
            None, None, CapacityError, EXIT_USAGE, id="coeffs-expansion-overflow",
        ),
        pytest.param(
            ("coeffs", "--table", "expansion", "--m", "-1"),
            None, None, DomainError, EXIT_USAGE, id="coeffs-expansion-m-1",
        ),
    ],
)
def test_bad_inputs_fail_typed_or_flagged(z, q, m, error, exit_code):
    if isinstance(z, tuple):
        args = build_parser().parse_args(list(z))
        with pytest.raises(error):
            args.func(args, io.StringIO())
        assert run_cli(*z)[0] == exit_code
        return

    def request():
        return evaluate(EvalRequest(parse_complex(z), q, m))

    if error is None:
        result = request()
        assert result.note is not None
        assert not result.error_estimate <= 1e-12
    else:
        with pytest.raises(error):
            request()
    code, _ = run_cli("eval", f"--z={z}", "--q", repr(q), "--m", str(m))
    assert code == exit_code


class TestOutputRecord:
    RESULT = EvalResult(0.5 + 0j, 1e-16, 0, "special_value")

    def _record(self, **changes):
        fields = dict(
            z=0j, q=3.0, m=0, policy="optimal", tol=1e-10, result=self.RESULT, timestamp="t"
        )
        fields.update(changes)
        return OutputRecord(**fields)

    def test_positional_and_keyword_construction(self):
        record = self._record()
        assert OutputRecord(0j, 3.0, 0, "optimal", 1e-10, self.RESULT, "t") == record
        assert OutputRecord._fields == ("z", "q", "m", "policy", "tol", "result", "timestamp")
        with pytest.raises(TypeError):
            OutputRecord(0j, 3.0)  # no field has a default

    def test_immutable_hashable_replaceable(self):
        record = self._record()
        with pytest.raises(AttributeError):
            record.q = 4.0
        with pytest.raises(AttributeError):
            record.extra = 1
        assert hash(record) == hash(self._record())
        assert record._replace(q=4.0) == self._record(q=4.0)
        assert record._replace(q=4.0).to_dict()["q"] == 4.0
        assert OutputRecord.from_dict(record.to_dict()) == record


LEAN_SCRIPT = r"""
import io, json, sys

heavy = ("dataclasses", "inspect", "fractions", "decimal", "altzeta.boole", "altzeta.verify")
at_startup = set(json.loads(sys.argv[1]))
import altzeta.cli

out = io.StringIO()
codes = [
    altzeta.cli.main(["eval", "--z=2.5+1i", "--q", "30"], stdout=out),
    altzeta.cli.main(["table", "--z-range", "0.5:1:0.5", "--q-range", "10", "--m", "2"], stdout=out),
]
loaded = [m for m in heavy if m in sys.modules and m not in at_startup]

from altzeta.coefficients import pochhammer_derivative

exact = str(pochhammer_derivative(3, 2))  # exact mode before fractions is loaded
import altzeta

scope = {}
exec("from altzeta import *", scope)
unbound = [name for name in altzeta.__all__ if name not in scope]
import altzeta.boole

same = altzeta.boole_sum is altzeta.boole.boole_sum
print(json.dumps({"codes": codes, "loaded": loaded, "exact": exact, "unbound": unbound, "same": same}))
"""


def _run_python(*args):
    """Run a fresh interpreter that imports altzeta from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(altzeta.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_eval_and_table_load_only_the_expansion_engine():
    # Modules a bare interpreter already holds (site hooks preload some in
    # certain environments) do not count against the CLI.
    startup = _run_python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
    proc = _run_python("-c", LEAN_SCRIPT, startup.stdout.strip())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [EXIT_OK, EXIT_OK]
    assert report["loaded"] == []
    assert report["exact"] == "7/2"  # d/dz (z)_2 / 2! = (2z + 1)/2 at z = 3
    assert report["unbound"] == []
    assert report["same"] is True
    bogus = _run_python("-m", "altzeta.cli", "verify", "--suite", "bogus")
    assert bogus.returncode == EXIT_USAGE
    assert "Traceback" not in bogus.stderr
    assert "unknown suite 'bogus'" in bogus.stderr
