"""A fixed piece of standard-library work, timed to gauge how fast the
machine runs at the moment.

On a shared machine the speed of one CPU changes by up to a factor of
two within seconds, as other tenants load the host, and a whole run can
fall in a fast or a slow spell.  The benchmark therefore reports every
time in seconds at a reference speed: the measured time multiplied by
REF_S / (the mean of the calibration times measured right before and
after it).  The work imitates blockforge's mix, tuple permutations in
dicts and Fraction arithmetic, but calls no blockforge code, so no
change to blockforge can move it.

    python3 perfbench/calibrate.py     # prints one calibration time
"""

import gc
import random
import subprocess
import sys
import time
from fractions import Fraction

# Times are reported as if every calibration had taken REF_S seconds, a
# typical calibration time on the machine that recorded baseline.json.
REF_S = 0.17

_DEGREE = 12
_ORBIT = 1_000
_ROUNDS = 96
_FRACTIONS = 3_000


def _work():
    """Seconds the fixed work takes, with the garbage collector off."""
    rng = random.Random(7)
    gens = [tuple(rng.sample(range(_DEGREE), _DEGREE)) for _ in range(3)]
    gc.disable()
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        seen = {tuple(range(6)): None}
        frontier = list(seen)
        while frontier and len(seen) < _ORBIT:
            x = frontier.pop()
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen[y] = x
                    frontier.append(y)
    total = Fraction(0)
    for k in range(1, _FRACTIONS):
        total += Fraction(k % 97, k)
    return time.perf_counter() - start


def calibrate():
    """Time the fixed work now, in a child process, so that the caller's
    heap, garbage collector and peak memory stay as they were."""
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, check=True
    )
    return float(proc.stdout)


def at_reference_speed(seconds, calibrations):
    """``seconds`` scaled to the reference speed, given the calibration
    times measured around them."""
    return seconds * REF_S / (sum(calibrations) / len(calibrations))


if __name__ == "__main__":
    print(_work())
