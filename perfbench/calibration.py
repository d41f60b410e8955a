"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the speed of a core changes by tens of
per cent from second to second and from minute to minute, and pure-Python
work on that core slows by about the same factor.  Each timed process
therefore also times SPIN, a fixed pure-Python loop, on its own core right
next to the timed work; a timing times REF_S over the SPIN time typical of
that moment (``calibrated``) is the time the work would have taken at the
speed where SPIN takes REF_S.  Both the raw and the calibrated figures are
reported; the calibrated ones are the gated metrics.
"""

from __future__ import annotations

#: Source of the calibration loop, exec'd in every timed child.
SPIN = """
def calibration_spin():
    acc = 0.0
    for i in range(1, 4001):
        acc += (i * 0.5) ** 0.5 / i
    return acc
"""
#: Nominal SPIN time: about its fastest time on a 2-core Intel Xeon VM
#: under CPython 3.11, so calibrated figures read close to unloaded ones.
REF_S = 5e-4
#: SPIN runs timed before and after a child's work.
SPIN_RUNS = 3

#: Statements that open a timed child: time SPIN_RUNS spins into ``_spins``
#: and their total into ``spun``, so the caller can take it off the wall time.
BEFORE = SPIN + f"""
import time as _t
_spins = []
for _ in range({SPIN_RUNS}):
    _s = _t.perf_counter()
    calibration_spin()
    _spins.append(_t.perf_counter() - _s)
spun = sum(_spins)
"""
#: Statements that close it: SPIN_RUNS more spins, ``spin_s`` their mean.
AFTER = f"""
for _ in range({SPIN_RUNS}):
    _s = _t.perf_counter()
    calibration_spin()
    _spins.append(_t.perf_counter() - _s)
spin_s = sum(_spins) / len(_spins)
"""


def calibrated(times: list[float], spins: list[float], window: int) -> list[float]:
    """Each time scaled by REF_S over the typical SPIN time around it.

    ``spins[i]`` was timed next to ``times[i]``.  The core's speed flips
    between states faster than one CLI run lasts, so the typical SPIN time
    is a mean over the ``window`` neighbours on each side, which tracks the
    share of time spent in each state; the top and bottom tenth are dropped
    so that a spin cut by an interrupt does not count.
    """
    out = []
    for i, t in enumerate(times):
        nearby = sorted(spins[max(0, i - window):i + window + 1])
        cut = len(nearby) // 10
        kept = nearby[cut:len(nearby) - cut]
        out.append(t * REF_S * len(kept) / sum(kept))
    return out
