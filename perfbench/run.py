"""altzeta benchmark: seeded workloads, end-to-end timings, an mpmath check.

    python3 perfbench/run.py --workload point_mix --seed 0 --seconds 25 --trace 0

Workloads (reasons in interactions.json):
    point_mix   in-process ``evaluate`` calls in a warmed child interpreter
    cli_table   fresh ``altzeta`` processes: ``eval`` points and ``table`` grids
    verify_all  fresh ``altzeta verify --suite all`` processes
    all         the three above in turn, reporting the per-workload metrics
                under their own names

Every output is checked outside the timed region: results against the
mpmath reference (reference.py), the CLI contract (exit codes, CSV header,
bit-identical repeated tables, eval JSON keys, verify [PASS] lines).  With
``--trace 1`` the same inputs run once untraced and once traced (every
public altzeta function wrapped in a span, see tracer.py), giving the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics; the lines before it are the readable report.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

#: Requests of point_mix whose results are checked against mpmath (a fixed
#: prefix, so wrong_frac and miss_frac repeat exactly for a seed).
POINT_CHECK = 200
#: point_mix runs past --seconds until it has made this many calls, so p99
#: has ten samples beyond it.
POINT_MIN_CALLS = 1000
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 21
#: [PASS] lines printed by ``verify --suite all`` at the commit that
#: introduced this benchmark; fewer means a check was dropped or failed.
VERIFY_PASS_LINES = 12
CSV_HEADER = "z_re,z_im,q,m,value_re,value_im,error_estimate,terms_used,method"
EVAL_KEYS = frozenset(
    "z_re z_im q m policy tol value_re value_im error_estimate terms_used method timestamp".split()
)
CHILD_TIMEOUT_S = 120
WARM_UP_ARGV = ["eval", "--z=2.5+1i", "--q", "30"]
ENV_MAX_TERMS = "ZETAE_MAX_TERMS"

#: Marks the line a timed child appends to its stderr: the CLOCK_MONOTONIC
#: time its work ended (the clock is shared with this process), the seconds
#: it spent in calibration spins before the work, and its spin time.
MARK = "@@perfbench"
_REPORT = f"sys.stderr.write(f'{MARK} {{done!r}} {{spun!r}} {{spin_s!r}}\\n')\n"
SETUP_SNIPPET = (
    calibration.BEFORE
    + "import sys, time, altzeta\n"
    "altzeta.evaluate(altzeta.EvalRequest(2.5+1j, 30.0))\n"
    "done = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    + calibration.AFTER + _REPORT
)
# What the installed console script does, between calibration spins.
CLI_SNIPPET = (
    calibration.BEFORE
    + "import sys, time\n"
    "from altzeta.cli import main\n"
    "sys.argv[0] = 'altzeta'\n"
    "code = main()\n"
    "done = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
    + calibration.AFTER + _REPORT + "raise SystemExit(code)\n"
)


class Run:
    """Counters and report lines of one workload run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0  # operations with at least one failure
        self.checked = 0  # values compared with the reference
        self.wrong = 0
        self.results = 0  # results or CLI runs that can miss their target
        self.missed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        # Metrics under their per-workload names: (value, unit, sample base).
        self.named: dict[str, tuple[float, str, str]] = {}
        self.raw: dict[str, float] = {}  # uncalibrated figures, for the report
        self.setup: list[float] = []
        self.rss = 0.0

    def fail(self, *problems: str) -> None:
        """Count one failed operation, whatever went wrong with it."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def check_value(self, value: complex, estimate: float, method: str, ref) -> list[str]:
        """Compare a value with the reference.  An error above the estimate
        counts in wrong_frac; off the oracle route it is also a failure, the
        problem returned.  The oracle route's under-estimates are known
        (ROADMAP), so they count in wrong_frac only."""
        self.checked += 1
        error = reference.abs_error(value, ref)
        if error <= estimate:
            return []
        self.wrong += 1
        if method == "oracle":
            return []
        return [f"error {error:.3g} above its estimate {estimate:.3g} on route {method}"]


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(ENV_MAX_TERMS, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Run a child to completion: (exit code, stdout, stderr).  A child that
    outlives CHILD_TIMEOUT_S is killed and reported as exit code -1."""
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, "", f"killed after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def timed(snippet: str, args: list[str], env: dict) -> tuple[int, str, str, float, float]:
    """Run a timed snippet: (exit code, stdout, stderr without the timing
    line, seconds from spawn to the end of its work, its SPIN time)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code, out, err = spawn([sys.executable, "-c", snippet, *args], env)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    head, sep, tail = err.rpartition(MARK + " ")
    if not sep:  # the child died before it could report
        return code, out, err, end - start, calibration.REF_S
    done, spun, spin_s = (float(x) for x in tail.split())
    return code, out, head, done - start - spun, spin_s


def cli(args: list[str], env: dict):
    return timed(CLI_SNIPPET, args, env)


def worker(env: dict, *args: str) -> dict:
    code, out, err = spawn([sys.executable, str(BENCH_DIR / "worker.py"), *args], env)
    if code != 0:
        raise RuntimeError(f"worker {args[0]} exited {code}: {err.strip()[-2000:]}")
    return json.loads(out)


def measure_setup(env: dict) -> list[float]:
    """Calibrated seconds from spawning a fresh interpreter to the return of
    its first evaluate, once per SETUP_RUNS."""
    walls, spins = [], []
    for _ in range(SETUP_RUNS):
        code, _out, err, wall, spin_s = timed(SETUP_SNIPPET, [], env)
        if code != 0:
            raise RuntimeError(f"setup child exited {code}: {err.strip()[-2000:]}")
        walls.append(wall)
        spins.append(spin_s)
    return calibration.calibrated(walls, spins, window=3)


def peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Checks of CLI output


def _table_rows(out: str) -> list[dict] | str:
    """The rows of a table CSV, or what is wrong with it."""
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return f"CSV header {lines[:1]!r}"
    keys = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(keys):
            return f"CSV row {line!r}"
        row = dict(zip(keys, fields))
        for key in ("z_re", "z_im", "q", "value_re", "value_im", "error_estimate"):
            row[key] = float(row[key])
        row["m"] = int(row["m"])
        rows.append(row)
    return rows


def check_cli_output(argv: list[str], code: int, out: str, err: str) -> tuple[list[str], list[dict]]:
    """Problems with one CLI invocation, and the value rows it printed."""
    problems = []
    if code not in (0, 2):
        problems.append(f"exit {code}")
    if "Traceback" in err or "Traceback" in out:
        problems.append("printed a traceback")
    if argv[0] == "verify":
        lines = out.splitlines()
        passes = sum(line.startswith("[PASS]") for line in lines)
        if any(line.startswith("[FAIL]") for line in lines):
            problems.append("printed a [FAIL] line")
        if passes < VERIFY_PASS_LINES:
            problems.append(f"{passes} [PASS] lines, want {VERIFY_PASS_LINES}")
        return problems, []
    if code not in (0, 2):
        return problems, []
    if argv[0] == "table":
        rows = _table_rows(out)
        if isinstance(rows, str):
            return problems + [rows], []
    else:
        try:
            rows = [json.loads(out)]
        except ValueError:
            return problems + ["eval output is not JSON"], []
        missing = EVAL_KEYS - rows[0].keys()
        if missing:
            return problems + [f"eval JSON lacks {sorted(missing)}"], []
    for row in rows:
        value = complex(row["value_re"], row["value_im"])
        finite = math.isfinite(value.real) and math.isfinite(value.imag)
        if not (finite and math.isfinite(row["error_estimate"])) and code != 2 and "note" not in row:
            problems.append("non-finite value without a note")
    return problems, rows


def check_cli_values(run: Run, code: int, rows: list[dict], refs: dict) -> list[str]:
    """Count the invocation's miss; check each value not seen before
    against the reference, returning the problems found."""
    run.results += 1
    run.missed += code == 2
    problems = []
    for row in rows:
        key = (row["z_re"], row["z_im"], row["q"], row["m"])
        if key not in refs:
            refs[key] = reference.alt_zeta(complex(row["z_re"], row["z_im"]), row["q"], row["m"])
            problems += [
                f"z={key[0]!r}{key[1]:+}i q={key[2]!r} m={key[3]}: {p}"
                for p in run.check_value(complex(row["value_re"], row["value_im"]),
                                         row["error_estimate"], row["method"], refs[key])
            ]
    return problems


# ---------------------------------------------------------------------------
# Workloads, untraced


def set_metrics(run: Run, setup: list[float], rss: float, times: list[float]) -> None:
    """The gated metrics from calibrated setup and operation times."""
    run.setup, run.rss = setup, rss
    run.metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def check_points(run: Run, seed: int, results: list) -> None:
    """Misses and reference checks of the point-mix prefix the worker returned."""
    for i, ((z, q, m, _tol), result) in enumerate(zip(workloads.point_mix(seed), results)):
        if result is None:
            continue
        run.results += 1
        run.missed += result[5] is not None and result[5].startswith("accuracy warning")
        run.fail(*(f"request {i} (z={z!r}, q={q!r}, m={m}): {p}" for p in run.check_value(
            complex(result[0], result[1]), result[2], result[4], reference.alt_zeta(z, q, m))))


def run_point_mix(run: Run, seed: int, seconds: float, env: dict) -> None:
    setup = measure_setup(env)
    count = POINT_MIN_CALLS + int(2000 * seconds)
    data = worker(env, "points", str(seed), str(count), str(POINT_MIN_CALLS), repr(seconds), "0")
    rss = peak_rss_mb()
    raw = data["times"]
    times = calibration.calibrated(raw, data["spins"], window=10)
    run.attempted += len(times)
    for failure in data["failures"]:
        run.fail(failure)
    check_points(run, seed, data["results"][:POINT_CHECK])
    set_metrics(run, setup, rss, times)
    n = len(times)
    run.named["evals_per_s"] = (run.metrics["ops_per_s"][0], "1/s", f"n={n}")
    run.named["eval_p50_ms"] = (run.metrics["op_p50_ms"][0], "ms", f"n={n}")
    run.named["eval_p99_ms"] = (1e3 * percentile(times, 99.0), "ms", f"n={n}")
    run.raw = {"eval_p50_ms": 1e3 * statistics.median(raw), "evals_per_s": n / sum(raw)}


def run_cli_workload(run: Run, cycles, seconds: float, env: dict) -> None:
    """Closed loop over whole cycles of fresh CLI processes, at least two, so
    that repeated tables can be compared.  Misses and reference checks count
    the first two cycles only, so they repeat exactly for a seed."""
    setup = measure_setup(env)
    done: list[list] = []
    loop_start = time.perf_counter()
    while len(done) < 2 or time.perf_counter() - loop_start < seconds:
        done.append([(argv, cli(argv, env)) for argv in next(cycles)])
    rss = peak_rss_mb()

    invocations = [(i, argv, result) for i, cycle in enumerate(done) for argv, result in cycle]
    walls = calibration.calibrated([r[3] for _, _, r in invocations],
                                   [r[4] for _, _, r in invocations], window=4)
    refs: dict = {}
    first: dict[tuple, str] = {}
    by_command: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for (index, argv, (code, out, err, raw_s, _spin)), wall_s in zip(invocations, walls):
        run.attempted += 1
        by_command.setdefault(argv[0], []).append(wall_s)
        raw.setdefault(argv[0], []).append(raw_s)
        problems, rows = check_cli_output(argv, code, out, err)
        if argv[0] == "table" and first.setdefault(tuple(argv), out) != out:
            problems.append("output differs from the first identical invocation")
        if index < 2:
            problems += check_cli_values(run, code, rows, refs)
        run.fail(*(f"{' '.join(argv)}: {p}" for p in problems))
    set_metrics(run, setup, rss, walls)
    names = {"eval": "cli_eval_p50_s", "table": "cli_table_p50_s", "verify": "verify_p50_s"}
    for command, ws in by_command.items():
        run.named[names[command]] = (statistics.median(ws), "s", f"n={len(ws)}")
        run.raw[names[command]] = statistics.median(raw[command])


# ---------------------------------------------------------------------------
# Traced runs


ASYMPTOTIC = ("zeta.zeta_asymptotic", "zeta.deriv1_asymptotic", "zeta.deriv_m_asymptotic")


def _sum(counter: dict, names) -> float:
    return sum(counter.get(n, 0) for n in names)


def _module_sum(counter: dict, module: str) -> float:
    return sum(v for k, v in counter.items() if k.startswith(module + "."))


def layer_metrics(processes: list[dict]) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics (value, unit, base) from the children of a traced
    run: import times from all of them, the rest from the traced ones."""
    traced = [d for d in processes if "spans" in d]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for data in traced:
        for k, v in data["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in data["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v

    # Walk each process's spans up to the enclosing evaluate call.
    evals = 0
    caches_in_eval = asymptotic_in_eval = terms = 0
    with_series = discarded = 0
    for data in traced:
        spans = {s[0]: s for s in data["spans"]}
        per_eval: dict[int, set] = {}
        for span_id, name, _start, _end, parent, _req, _extra in data["spans"]:
            if name == "zeta.evaluate":
                continue
            while parent is not None and spans[parent][1] != "zeta.evaluate":
                parent = spans[parent][4]
            if parent is not None:
                if name == "coefficients.CoefficientCache.__init__":
                    caches_in_eval += 1
                elif name in ASYMPTOTIC:
                    asymptotic_in_eval += 1
                per_eval.setdefault(parent, set()).add(name)
        for span_id, name, _start, _end, _parent, _req, extra in data["spans"]:
            if name != "zeta.evaluate":
                continue
            evals += 1
            method, used = extra or (None, 0)  # None: the call raised
            terms += used
            inner = per_eval.get(span_id, set())
            with_series += "zeta.zeta_series" in inner
            discarded += method == "oracle" and bool(inner & set(ASYMPTOTIC))

    first_euler = [d["first_call_s"]["euler.euler_number_at_zero"] for d in traced
                   if "euler.euler_number_at_zero" in d["first_call_s"]]
    per_eval_base = f"over {evals} evaluate calls"
    n_proc = f"{len(traced)} traced interpreter(s)"
    ratio = (lambda x: x / evals) if evals else (lambda x: 0.0)
    euler_calls = ("euler.euler_number_at_zero", "euler.euler_number_over_factorial",
                   "euler.euler_polynomial")
    add_calls = ("summation.CompensatedSum.add", "summation.ComplexCompensatedSum.add")
    layers = ("coefficients.CoefficientCache.layer", "coefficients.CoefficientCache.layer_noise_scale")
    boole_calls = ("boole.boole_sum", "boole.boole_remainder", "boole.delta_expansion_value")
    checks = [k for k in calls if k.startswith(("verify.check_", "verify.adjudicate_"))]
    records = ("cli.OutputRecord.csv_row", "cli.OutputRecord.to_dict")
    return {
        "import.altzeta_s": (statistics.median(d["import_s"] for d in processes), "s",
                             f"median of {len(processes)} fresh interpreters"),
        "import.numpy_loaded": (max(d["numpy_loaded"] for d in processes), "flag",
                                "numpy in sys.modules after import altzeta.cli"),
        "euler.table_build_s": (statistics.median(first_euler) if first_euler else 0.0, "s",
                                f"first euler_number_at_zero call, median of {len(first_euler)}"),
        "euler.calls": (_sum(calls, euler_calls), "count", n_proc),
        "euler.self_s": (_sum(self_s, euler_calls), "s", n_proc),
        "coefficients.caches_built": (calls.get("coefficients.CoefficientCache.__init__", 0),
                                      "count", n_proc),
        "coefficients.caches_per_eval": (ratio(caches_in_eval), "count/eval",
                                         f"{caches_in_eval} caches inside {evals} evaluate calls"),
        "coefficients.layer_calls": (_sum(calls, layers), "count", n_proc),
        "coefficients.self_s": (_module_sum(self_s, "coefficients"), "s", n_proc),
        "zeta.evaluate_calls": (evals, "count", n_proc),
        "zeta.evaluate_self_s": (self_s.get("zeta.evaluate", 0.0), "s", per_eval_base),
        "zeta.asymptotic_calls_per_eval": (ratio(asymptotic_in_eval), "count/eval",
                                           f"{asymptotic_in_eval} calls inside {evals} evaluate calls"),
        "zeta.asymptotic_self_s": (_sum(self_s, ASYMPTOTIC), "s", n_proc),
        "zeta.terms_used": (terms, "count", per_eval_base),
        "zeta.series_calls": (calls.get("zeta.zeta_series", 0), "count", n_proc),
        "zeta.series_self_s": (self_s.get("zeta.zeta_series", 0.0), "s", n_proc),
        "zeta.oracle_fallback_frac": (ratio(with_series), "ratio",
                                      f"{with_series} of {evals} evaluate calls"),
        "zeta.expansion_discarded_frac": (ratio(discarded), "ratio",
                                          f"{discarded} of {evals} evaluate calls"),
        "summation.adds": (_sum(calls, add_calls), "count", n_proc),
        "summation.self_s": (_sum(self_s, add_calls), "s", n_proc),
        "boole.calls": (_sum(calls, boole_calls), "count", n_proc),
        "boole.kernel_evals": (calls.get("euler.quasi_periodic_euler", 0), "count", n_proc),
        "boole.self_s": (_module_sum(self_s, "boole") + self_s.get("euler.quasi_periodic_euler", 0.0),
                         "s", f"{n_proc}; includes the kernel, euler.quasi_periodic_euler"),
        "verify.checks": (_sum(calls, checks), "count", n_proc),
        "verify.self_s": (_module_sum(self_s, "verify"), "s", n_proc),
        "cli.records": (_sum(calls, records), "count", n_proc),
        "cli.self_s": (_module_sum(self_s, "cli"), "s", n_proc),
    }


def write_spans(path: Path, traced: list[dict]) -> None:
    """All spans of the traced children, one JSON object a line."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for process, data in enumerate(d for d in traced if "spans" in d):
            for span_id, name, start, end, parent, request, _extra in data["spans"]:
                handle.write(json.dumps({
                    "process": process, "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")


def trace_point_mix(run: Run, seed: int, env: dict) -> tuple[list[dict], float]:
    args = ("points", str(seed), str(POINT_CHECK), str(POINT_CHECK), "0")
    plain = worker(env, *args, "0")
    traced = worker(env, *args, "1")
    run.attempted += len(traced["times"])
    for failure in traced["failures"]:
        run.fail(failure)
    for i, (a, b) in enumerate(zip(plain["results"], traced["results"])):
        if a != b:
            run.fail(f"request {i}: traced result differs from untraced")
    check_points(run, seed, traced["results"])
    cost = [sum(calibration.calibrated(d["times"], d["spins"], window=10)) for d in (plain, traced)]
    return [plain, traced], cost[1] / cost[0] - 1.0


def trace_cli(run: Run, cycle: list[list[str]], env: dict) -> tuple[list[dict], float]:
    plain_s = traced_s = 0.0
    everything, refs = [], {}
    for argv in cycle:
        plain = worker(env, "cli", "0", json.dumps(argv))
        traced = worker(env, "cli", "1", json.dumps(argv))
        plain_s += plain["main_s"] / plain["spin_s"]
        traced_s += traced["main_s"] / traced["spin_s"]
        run.attempted += 1
        problems, rows = check_cli_output(argv, traced["exit"], traced["stdout"], "")
        if argv[0] == "table" and plain["stdout"] != traced["stdout"]:
            problems.append("traced output differs from untraced")
        problems += check_cli_values(run, traced["exit"], rows, refs)
        run.fail(*(f"{' '.join(argv)}: {p}" for p in problems))
        everything += [plain, traced]
    return everything, traced_s / plain_s - 1.0


# ---------------------------------------------------------------------------
# Report


def machine_info(seed: int) -> list[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return [
        f"nproc {os.cpu_count()}; cpu {cpu}",
        f"python {platform.python_version()}; numpy {importlib.metadata.version('numpy')}; "
        f"mpmath {importlib.metadata.version('mpmath')}",
        f"seed {seed}; commit {commit}",
        f"{ENV_MAX_TERMS} unset for every child"
        + (f" (caller had {os.environ[ENV_MAX_TERMS]!r})" if ENV_MAX_TERMS in os.environ else ""),
        "bytecode cache warmed by one untimed invocation before timing",
    ]


def frac_line(name: str, num: int, den: int) -> str:
    value = f"{num / den:.6f}" if den else "n/a"
    return f"  {name:<34} {value:>14} ratio  ({num} of {den})"


def report(run: Run, layer: dict | None, overhead: float | None) -> None:
    print(f"== {run.name}")
    if run.setup:
        print(f"  {'setup_s':<34} {statistics.median(run.setup):>14.6g} s     (n={len(run.setup)})")
    for name, (value, unit, base) in run.named.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<5} ({base})")
    for name, value in run.raw.items():
        print(f"  {name + ' uncalibrated':<34} {value:>14.6g}")
    if run.setup:
        print(f"  {'peak_rss_mb':<34} {run.rss:>14.6g} MB    (largest child so far)")
    print(frac_line("fail_frac", run.failed, run.attempted))
    print(frac_line("wrong_frac", run.wrong, run.checked))
    print(frac_line("miss_frac", run.missed, run.results))
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}")
    if layer is not None:
        for name, (value, unit, base) in layer.items():
            print(f"  {name:<34} {value:>14.6g} {unit:<10} ({base})")
        print(f"  {'trace.overhead_frac':<34} {overhead:>14.6g} ratio      "
              "(traced / untraced calibrated time - 1, same inputs)")


WORKLOADS = ("point_mix", "cli_table", "verify_all")


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict):
    cli(WARM_UP_ARGV, env)  # untimed: writes the bytecode cache of every module
    run = Run(name)
    layer = overhead = None
    if not trace:
        if name == "point_mix":
            run_point_mix(run, seed, seconds, env)
        elif name == "cli_table":
            run_cli_workload(run, workloads.cli_cycles(seed), seconds, env)
        else:
            run_cli_workload(run, itertools.repeat([workloads.VERIFY_ARGV]), seconds, env)
        return run, layer, overhead
    if name == "point_mix":
        traced, overhead = trace_point_mix(run, seed, env)
    else:
        cycle = next(workloads.cli_cycles(seed)) if name == "cli_table" else [workloads.VERIFY_ARGV]
        traced, overhead = trace_cli(run, cycle, env)
    layer = layer_metrics(traced)
    write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", traced)
    return run, layer, overhead


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")

    if not (ROOT / "src" / "altzeta" / "__init__.py").is_file():
        sys.stderr.write(f"error: no altzeta sources under {ROOT / 'src'}\n")
        return 2
    problems = reference.self_check()
    if problems:
        sys.stderr.write("error: the mpmath reference failed its self-check:\n")
        for problem in problems:
            sys.stderr.write(f"  {problem}\n")
        return 2

    env = child_env()
    for line in machine_info(args.seed):
        print(line)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run, layer, overhead = run_workload(name, args.seed, args.seconds, args.trace == 1, env)
        report(run, layer, overhead)
        runs.append((run, layer, overhead))

    attempted = sum(r.attempted for r, _, _ in runs)
    failed = sum(r.failed for r, _, _ in runs)
    if args.workload == "all":
        metrics = {}
        for run, _, _ in runs:
            for name, (value, unit, _base) in run.named.items():
                metrics[name] = {"value": value, "unit": unit}
        setup = [x for r, _, _ in runs for x in r.setup]
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(r.rss for r, _, _ in runs), "unit": "MB"}
        for name, num, den in (
            ("fail_frac", "failed", "attempted"), ("wrong_frac", "wrong", "checked"),
            ("miss_frac", "missed", "results"),
        ):
            num_n = sum(getattr(r, num) for r, _, _ in runs)
            den_n = sum(getattr(r, den) for r, _, _ in runs)
            metrics[name] = {"value": num_n / den_n if den_n else 0.0, "unit": "ratio"}
    else:
        run, layer, overhead = runs[0]
        if layer is None:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _b) in layer.items()}
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
