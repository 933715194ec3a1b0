"""Reference clock: CPU time scaled to the speed of an uncontended reference core.

On a shared machine a core's speed changes for seconds at a time, by up to
half, as other tenants come and go, and CPU time counts the slow periods in
full. A fixed pure-Python loop timed next to each measurement gives the
core's speed at that moment. Dividing a CPU time by the loop's time and
multiplying by `REF_LOOP_S` turns it into reference seconds: the time the
same work takes on an uncontended core of the reference machine. A comparison
between two commits on one machine does not depend on the constant.

Run as a script, it prints the reference seconds that `import quditproc`
takes in this fresh interpreter.
"""

from __future__ import annotations

import statistics
from time import process_time

REF_LOOP_ITERATIONS = 20_000
# CPU seconds of the loop on an uncontended core of the reference machine
# (Intel Xeon vCPU at 2.0 GHz, Python 3.11.7).
REF_LOOP_S = 1.4e-3


def loop_seconds() -> float:
    """CPU seconds that the reference loop takes now."""
    c0 = process_time()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    return process_time() - c0


def to_ref(cpu_s: float, loop_s: float) -> float:
    return cpu_s * REF_LOOP_S / loop_s


if __name__ == "__main__":
    c0 = process_time()
    import quditproc  # noqa: F401  (the import is what is timed)

    import_s = process_time() - c0
    print(to_ref(import_s, statistics.median(loop_seconds() for _ in range(5))))
