"""A fixed unit of pure-Python work that measures how fast the machine runs now.

On a small shared host the same Python code runs up to twice as slow for
stretches of seconds to minutes, and process CPU time slows just as much as
wall time.  The benchmark therefore runs reference units beside the calls it
measures and reports times scaled to a fixed reference speed: a time ``t``
measured while one unit took ``u`` seconds is reported as
``t * UNIT_S / u``, that is, in seconds of a machine on which one unit takes
``UNIT_S``.  Library code does not run in a unit, so a change to the library
moves the scaled times exactly as it moves wall time at a steady speed.

The unit uses builtins only (no import but ``time``), so that a fresh
interpreter can time it before ``import pientail`` without importing
anything the library imports.
"""

import time

# Nominal seconds of one unit: scaled times read as wall time on a machine
# where ``unit()`` takes this long.  It is close to the unit's time on the
# machine the benchmark was tuned on.
UNIT_S = 0.0002


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def unit() -> int:
    """Fixed work in the library's style: exact fraction-free elimination
    on a small integer matrix with gcd reduction, then bit counting into a
    dict."""
    n = 5
    m = [[(i * 7 + j * 3) % 11 + (i == j) * 13 for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        pivot = m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                row = [pivot[c] * a - f * b for a, b in zip(m[r], pivot)]
                g = 0
                for a in row:
                    g = _gcd(g, abs(a))
                m[r] = [a // g for a in row] if g > 1 else row
    total = 0
    seen: dict[int, int] = {}
    for mask in range(1 << 8):
        total += bin(mask & 0x155).count("1")
        seen[mask & 63] = total
    return total


def unit_seconds(count: int) -> float:
    """Mean seconds of one unit over ``count`` units run now."""
    start = time.perf_counter()
    for _ in range(count):
        unit()
    return (time.perf_counter() - start) / count


class Meter:
    """Reference units run between measured calls.  A call is scaled by the
    speed of the units run just before and just after it, so that a change
    of speed is caught on both sides of the call."""

    def __init__(self, share: float, min_block_s: float) -> None:
        self.share = share  # reference time per second of measured time
        self.min_block_s = min_block_s
        self._before = self._block(0.0)

    def _block(self, measured_s: float) -> tuple[int, float]:
        """Run units for ``share * measured_s`` seconds, at least
        ``min_block_s``; the number of units and the seconds they took."""
        start = time.perf_counter()
        goal = start + max(self.share * measured_s, self.min_block_s)
        units = 0
        while True:
            unit()
            units += 1
            now = time.perf_counter()
            if now >= goal:
                return units, now - start

    def scaled(self, measured_s: float) -> float:
        """``measured_s``, the wall time of the call just made, in reference
        seconds."""
        after = self._block(measured_s)
        units = self._before[0] + after[0]
        seconds = self._before[1] + after[1]
        self._before = after
        return measured_s * UNIT_S * units / seconds

    def restart(self) -> None:
        """Forget the last block (after a pause in the measured calls)."""
        self._before = self._block(0.0)
