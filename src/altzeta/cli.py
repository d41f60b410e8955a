"""Command-line front end: point evaluation, table generation, coefficient
dumps, and the verification suites.

Exit codes are a stable contract: 0 success, 1 usage or I/O error, 2
accuracy warning (the evaluation finished but missed the requested
accuracy).  Identical invocations write bit-identical CSV files; JSON
output additionally carries a timestamp.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import sys
import time
from collections import namedtuple

from .coefficients import _expansion_coefficients, pochhammer_jets
from .errors import AccuracyError, CapacityError, DomainError
from .euler import euler_number_at_zero
from .zeta import EvalRequest, EvalResult, TruncationPolicy, evaluate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ACCURACY = 2

#: Most points a ``table`` grid may hold; a larger grid is refused before
#: any value is computed.
MAX_GRID_POINTS = 100_000

CSV_HEADER = [
    "z_re",
    "z_im",
    "q",
    "m",
    "value_re",
    "value_im",
    "error_estimate",
    "terms_used",
    "method",
]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse subclass whose usage failures exit with code 1."""

    def error(self, message):
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' (no spaces, i suffix for the imaginary part)."""
    text = text.strip()
    if not text:
        raise DomainError("empty complex literal")
    if not text.endswith(("i", "I")):
        try:
            return complex(float(text), 0.0)
        except ValueError:
            raise DomainError(f"cannot parse complex literal {text!r}") from None
    body = text[:-1]
    # Split at the sign that starts the imaginary part, skipping exponent signs.
    split = -1
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            split = idx
            break
    try:
        if split == -1:
            imag = body
            if imag in ("", "+"):
                return complex(0.0, 1.0)
            if imag == "-":
                return complex(0.0, -1.0)
            return complex(0.0, float(imag))
        re_part = float(body[:split])
        im_text = body[split:]
        if im_text in ("+", "-"):
            return complex(re_part, 1.0 if im_text == "+" else -1.0)
        return complex(re_part, float(im_text))
    except ValueError:
        raise DomainError(f"cannot parse complex literal {text!r}") from None


def format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def parse_range(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive grid, finite bounds) or a single number.

    A grid whose step does not advance the value, or with more than
    ``MAX_GRID_POINTS`` points, raises ``CapacityError``.
    """
    text = text.strip()
    parts = text.split(":")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise DomainError(f"cannot parse range {text!r}") from None
    if len(numbers) == 1:
        return numbers
    if len(numbers) != 3:
        raise DomainError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = numbers
    if not all(math.isfinite(v) for v in numbers):
        raise DomainError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise DomainError(f"range step must be positive, got {step}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * step:
            break
        if values and v <= values[-1]:
            raise CapacityError(f"range step {step!r} does not advance the grid past {v!r}")
        if len(values) == MAX_GRID_POINTS:
            raise CapacityError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        values.append(v)
        k += 1
    if not values:
        raise DomainError(f"range {text!r} is empty")
    return values


class OutputRecord(namedtuple("OutputRecord", "z q m policy tol result timestamp")):
    """Request echo plus the evaluation result, an immutable named tuple;
    round-trips through JSON."""

    __slots__ = ()

    def to_dict(self) -> dict:
        out = {
            "z_re": self.z.real,
            "z_im": self.z.imag,
            "q": self.q,
            "m": self.m,
            "policy": self.policy,
            "tol": self.tol,
        }
        out.update(self.result.to_json_dict())
        out["timestamp"] = self.timestamp
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "OutputRecord":
        return cls(
            z=complex(data["z_re"], data["z_im"]),
            q=data["q"],
            m=data["m"],
            policy=data["policy"],
            tol=data["tol"],
            result=EvalResult(
                value=complex(data["value_re"], data["value_im"]),
                error_estimate=data["error_estimate"],
                terms_used=data["terms_used"],
                method=data["method"],
                note=data.get("note"),
            ),
            timestamp=data["timestamp"],
        )

    def csv_row(self) -> list[str]:
        return [
            repr(self.z.real),
            repr(self.z.imag),
            repr(self.q),
            str(self.m),
            repr(self.result.value.real),
            repr(self.result.value.imag),
            repr(self.result.error_estimate),
            str(self.result.terms_used),
            self.result.method,
        ]


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _evaluate_record(z: complex, q: float, m: int, tol: float, policy: TruncationPolicy) -> OutputRecord:
    result = evaluate(EvalRequest(z, q, m, tol), policy)
    return OutputRecord(
        z=z, q=q, m=m, policy=policy.describe(), tol=tol, result=result, timestamp=_timestamp()
    )


def _write_text(path: str | None, text: str, stdout) -> None:
    if path is None or path == "-":
        stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from exc


def cmd_eval(args, stdout) -> int:
    policy = TruncationPolicy.parse(args.policy)
    record = _evaluate_record(parse_complex(args.z), args.q, args.m, args.tol, policy)
    if args.format == "plain":
        stdout.write(format_complex(record.result.value) + "\n")
    else:
        stdout.write(json.dumps(record.to_dict()) + "\n")
    if not record.result.error_estimate <= args.tol:
        return EXIT_ACCURACY
    return EXIT_OK


def cmd_table(args, stdout) -> int:
    policy = TruncationPolicy.parse(args.policy)
    z_values = [complex(v, 0.0) for v in parse_range(args.z_range)] if ":" in args.z_range else [
        parse_complex(args.z_range)
    ]
    q_values = parse_range(args.q_range)
    if len(z_values) * len(q_values) > MAX_GRID_POINTS:
        raise CapacityError(
            f"table grid of {len(z_values)} x {len(q_values)} points exceeds {MAX_GRID_POINTS}"
        )
    records = [
        _evaluate_record(z, q, args.m, args.tol, policy) for z in z_values for q in q_values
    ]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.csv_row())
        _write_text(args.out, buffer.getvalue(), stdout)
    else:
        payload = {"records": [record.to_dict() for record in records]}
        _write_text(args.out, json.dumps(payload, indent=2) + "\n", stdout)
    if any(not r.result.error_estimate <= args.tol for r in records):
        return EXIT_ACCURACY
    return EXIT_OK


def cmd_coeffs(args, stdout) -> int:
    rows: list[dict] = []
    if args.table == "euler":
        for k in range(args.k_max + 1):
            value = euler_number_at_zero(k)
            try:
                approx = repr(float(value))
            except OverflowError:
                approx = ""
            rows.append(
                {
                    "k": k,
                    "numerator": str(value.numerator),
                    "denominator": str(value.denominator),
                    "value": approx,
                }
            )
    else:
        z = parse_complex(args.z)
        if not cmath.isfinite(z):
            raise DomainError(f"--z must be finite, got {args.z}")
        if args.table == "pochhammer-derivative":
            first, extra = 1, {}
            values = (jet[1] for jet in itertools.islice(pochhammer_jets(z, 1), 1, None))
        else:  # expansion
            first, extra = 2, {"m": args.m}
            values = _expansion_coefficients(z, args.m)
        for k, value in zip(range(first, args.k_max + 1), values):
            if not cmath.isfinite(value):
                raise CapacityError(
                    f"the {args.table} coefficient at k={k} is not finite in double precision"
                )
            rows.append(
                {"k": k, **extra, "value_re": repr(value.real), "value_im": repr(value.imag)}
            )
    if not rows:
        raise DomainError(f"--k-max {args.k_max} leaves the {args.table} table empty")
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.out, buffer.getvalue(), stdout)
    else:
        _write_text(args.out, json.dumps({"table": args.table, "rows": rows}, indent=2) + "\n", stdout)
    return EXIT_OK


def cmd_verify(args, stdout) -> int:
    from . import verify  # loads the Boole engine; eval and table never need it

    results = verify.run_suite(args.suite)
    all_passed = True
    findings = 0
    for check in results:
        if check.kind == "finding":
            findings += 1
            tag = "FINDING"
        else:
            tag = "PASS" if check.passed else "FAIL"
        if not check.passed:
            all_passed = False
        stdout.write(
            f"[{tag}] {check.name}: max residual {check.residual:.3e} "
            f"(tol {check.tolerance:.1e})\n"
        )
        if check.detail:
            stdout.write(f"         {check.detail}\n")
    n_checks = len(results) - findings
    status = "ok" if all_passed else "FAILED"
    stdout.write(f"{status}: {n_checks} checks, {findings} finding(s)\n")
    return EXIT_OK if all_passed else EXIT_ACCURACY


def build_parser() -> _Parser:
    parser = _Parser(
        prog="altzeta",
        description="Alternating Hurwitz zeta function and its z-derivatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one point")
    p_eval.add_argument("--z", required=True, help="complex literal: a, bi, or a+bi")
    p_eval.add_argument("--q", required=True, type=float, help="real q > 0")
    p_eval.add_argument("--m", type=int, default=0, help="derivative order (default 0)")
    p_eval.add_argument("--tol", type=float, default=1e-10, help="target accuracy")
    p_eval.add_argument("--policy", default="optimal", help="optimal or fixed:N")
    p_eval.add_argument("--format", choices=("json", "plain"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="evaluate a (z, q) grid")
    p_table.add_argument("--z-range", required=True, help="start:stop:step or one value")
    p_table.add_argument("--q-range", required=True, help="start:stop:step or one value")
    p_table.add_argument("--m", type=int, default=0)
    p_table.add_argument("--tol", type=float, default=1e-10)
    p_table.add_argument("--policy", default="optimal")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="output path (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_coeffs = sub.add_parser("coeffs", help="dump coefficient tables")
    p_coeffs.add_argument(
        "--table",
        choices=("euler", "pochhammer-derivative", "expansion"),
        default="euler",
    )
    p_coeffs.add_argument("--k-max", type=int, default=16)
    p_coeffs.add_argument("--z", default="0", help="evaluation point for z-dependent tables")
    p_coeffs.add_argument("--m", type=int, default=1, help="layer for the expansion table")
    p_coeffs.add_argument("--format", choices=("csv", "json"), default="csv")
    p_coeffs.add_argument("--out", default=None)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    # The suite names live in verify alone, which checks them before running
    # anything; an unknown name fails with exit code 1 and the list.
    p_verify.add_argument("--suite", default="all", help="suite name, or all (default)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, stdout)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (DomainError, CapacityError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy error: {exc}\n")
        return EXIT_ACCURACY
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_USAGE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
