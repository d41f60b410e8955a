"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed, so the timed child, the
traced child and the reference check all see the same requests.
"""

from __future__ import annotations

import itertools
import math
import random

#: z families of the point mix.
FAMILIES = ("pos_real", "pos_complex", "neg_int", "neg_nonint", "large_im")
TOLS = (1e-8, 1e-10, 1e-12)

#: Base grid of the cli_table tables, shifted by the seed.
Z_RANGE = (0.5, 3.0, 0.5)
Q_RANGE = (10.0, 100.0, 10.0)
TABLE_ORDERS = (0, 2, 6)
CLI_EVALS_PER_CYCLE = 6


def _z_from(family: str, u: float, v: float, w: float) -> complex:
    """z of a family from three numbers in [0, 1)."""
    sign = 1.0 if w < 0.5 else -1.0
    if family == "pos_real":
        return complex(0.05 + 7.95 * u, 0.0)
    if family == "pos_complex":
        return complex(0.05 + 7.95 * u, sign * (0.5 + 9.5 * v))
    if family == "neg_int":
        return complex(-math.floor(13 * u), 0.0)
    if family == "neg_nonint":
        re = -12.0 * u
        if re == round(re):
            re -= 0.5
        return complex(re, 0.0 if 2 * w % 1 < 0.5 else 6.0 * v - 3.0)
    return complex(-2.0 + 6.0 * u, sign * (10.0 + 30.0 * v))


def _q_from(u: float) -> float:
    """q log-uniform on [0.5, 200]."""
    return math.exp(math.log(0.5) + u * math.log(400.0))


def _rd_steps(dims: int) -> list[float]:
    """Steps of the R_d low-discrepancy sequence (Roberts): powers of the
    inverse of the root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return [(1.0 / phi) ** (j + 1) for j in range(dims)]


def point_mix(seed: int, orders: int = 9, stream: str = "point_mix"):
    """The seed's point-mix requests (z, q, m, tol), m < orders, an endless
    stream.

    Each request is one point of a low-discrepancy sequence shifted by the
    seed (randomised quasi-Monte Carlo), so every seed gives other requests
    with the same mix of family, m, q and tol in any prefix, and the cost of
    a run does not drift with the seed.  Families, m and tol are uniform,
    q log-uniform on [0.5, 200].
    """
    rng = random.Random(f"{stream}/{seed}")
    steps = _rd_steps(7)
    point = [rng.random() for _ in steps]
    while True:
        point = [(x + a) % 1.0 for x, a in zip(point, steps)]
        family = FAMILIES[int(point[0] * len(FAMILIES))]
        m = int(point[1] * orders)
        yield (
            _z_from(family, point[4], point[5], point[6]),
            _q_from(point[2]),
            m,
            TOLS[int(point[3] * len(TOLS))],
        )


def _literal(z: complex) -> str:
    """z as an altzeta CLI complex literal."""
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def cli_cycles(seed: int):
    """Endless cli_table cycles, each a list of argv lists: fresh eval points
    (m <= 2, drawn like the point mix) between the same three tables, so
    that evals are the majority of invocations and every table repeats.

    z is passed as ``--z=VALUE``: argparse would take a separate value such
    as ``-6.2-2.1i`` for an option name."""
    rng = random.Random(f"cli_table/{seed}")
    # Small shifts: the table's cost grows with q, and the seed should change
    # the points, not the amount of work.
    dz = round(rng.uniform(0.0, 0.1), 3)
    dq = round(rng.uniform(0.0, 1.0), 3)
    z_range = f"{Z_RANGE[0] + dz!r}:{Z_RANGE[1] + dz!r}:{Z_RANGE[2]!r}"
    q_range = f"{Q_RANGE[0] + dq!r}:{Q_RANGE[1] + dq!r}:{Q_RANGE[2]!r}"
    tables = [
        ["table", "--z-range", z_range, "--q-range", q_range, "--m", str(m)]
        for m in TABLE_ORDERS
    ]
    points = point_mix(seed, orders=3, stream="cli_table")
    per_table = CLI_EVALS_PER_CYCLE // len(tables)
    while True:
        cycle: list[list[str]] = []
        for table in tables:
            for z, q, m, tol in itertools.islice(points, per_table):
                cycle.append(["eval", f"--z={_literal(z)}", "--q", repr(q), "--m", str(m),
                              "--tol", repr(tol)])
            cycle.append(table)
        yield cycle


VERIFY_ARGV = ["verify", "--suite", "all"]
