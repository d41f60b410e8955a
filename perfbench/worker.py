"""Child process of the benchmark: runs altzeta in a fresh interpreter.

    worker.py points SEED COUNT CHECK SECONDS TRACE
        Evaluates the first COUNT requests of the seed's point mix with
        ``altzeta.evaluate``, one at a time, stopping early once SECONDS
        have passed (0: no limit) and the first CHECK requests are done;
        returns the results of those CHECK requests, every call's time and
        the time of a calibration spin run right after each call.
    worker.py cli TRACE ARGV_JSON
        Calls ``altzeta.cli.main(argv, stdout=buffer)`` once, then times
        calibration spins.

Both print one JSON object on stdout.  With TRACE=1 every public altzeta
function is wrapped in a span (see tracer.py) and the spans come back in
the JSON, for the parent to aggregate and write out.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
import time

import calibration


def _import_altzeta() -> dict:
    start = time.perf_counter()
    import altzeta.cli  # noqa: F401  (the import is what is timed)

    return {
        "import_s": time.perf_counter() - start,
        "numpy_loaded": int("numpy" in sys.modules),
    }


def _start_trace(trace: bool):
    if not trace:
        return None
    import tracer

    t = tracer.Tracer()
    tracer.install(
        t,
        {"zeta.evaluate": lambda r: [r.method, r.terms_used]},
    )
    return t


def _trace_payload(t) -> dict:
    if t is None:
        return {}
    return {
        "calls": dict(t.calls),
        "self_s": dict(t.self_s),
        "first_call_s": t.first_call_s,
        "spans": t.spans,
    }


def _spin():
    scope: dict = {}
    exec(calibration.SPIN, scope)
    return scope["calibration_spin"]


def _finite(x: complex) -> bool:
    return math.isfinite(x.real) and math.isfinite(x.imag)


def run_points(seed: int, count: int, check: int, seconds: float, trace: bool) -> dict:
    import workloads

    out = _import_altzeta()
    t = _start_trace(trace)
    from altzeta import EvalRequest, evaluate  # after _start_trace: the wrapped one

    spin = _spin()
    times, spins, results, failures = [], [], [], []
    requests = itertools.islice(workloads.point_mix(seed), count)
    loop_start = time.perf_counter()
    for i, (z, q, m, tol) in enumerate(requests):
        if i >= check and seconds and time.perf_counter() - loop_start >= seconds:
            break
        if t is not None:
            t.request = i
        start = time.perf_counter()
        try:
            r = evaluate(EvalRequest(z, q, m, tol))
        except Exception as exc:  # any raise on valid input is a failure
            r = None
            failures.append(f"request {i} (z={z!r}, q={q!r}, m={m}): {exc!r}")
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        spin()
        spins.append(time.perf_counter() - start)
        if r is None:
            if i < check:
                results.append(None)
            continue
        if not (_finite(r.value) and math.isfinite(r.error_estimate)) and r.note is None:
            failures.append(f"request {i}: non-finite result without a note")
        if i < check:
            results.append(
                [r.value.real, r.value.imag, r.error_estimate, r.terms_used, r.method, r.note]
            )
    out.update(times=times, spins=spins, results=results, failures=failures)
    out.update(_trace_payload(t))
    return out


def run_cli(argv: list[str], trace: bool) -> dict:
    out = _import_altzeta()
    t = _start_trace(trace)
    from altzeta.cli import main  # after _start_trace: the wrapped one

    buffer = io.StringIO()
    start = time.perf_counter()
    out["exit"] = main(argv, stdout=buffer)
    out["main_s"] = time.perf_counter() - start
    out["stdout"] = buffer.getvalue()
    scope: dict = {}
    exec(calibration.BEFORE + calibration.AFTER, scope)
    out["spin_s"] = scope["spin_s"]
    out.update(_trace_payload(t))
    return out


def main() -> None:
    mode = sys.argv[1]
    if mode == "points":
        seed, count, check, seconds, trace = sys.argv[2:7]
        out = run_points(int(seed), int(count), int(check), float(seconds), trace == "1")
    elif mode == "cli":
        out = run_cli(json.loads(sys.argv[3]), sys.argv[2] == "1")
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
