"""STREAM — the classic memory-bandwidth microbenchmark (McCalpin), as a
vectorized-NumPy implementation.  An extension benchmark beyond the paper's
two (§4), exercising Benchpark's claim that adding a benchmark needs only a
package.py + application.py pair.

The four kernels and their byte counts per element follow the reference C
implementation:

=========  ==================  =================
kernel     operation           bytes/iteration
=========  ==================  =================
Copy       c = a               16
Scale      b = q·c             16
Add        c = a + b           24
Triad      a = b + q·c         24
=========  ==================  =================

Triad runs as two NumPy passes (``a = q·c`` then ``a += b``), since NumPy has
no fused multiply-add, so its counted 24 B per element understate the traffic
it actually moves.

Only the kernels are timed.  Set-up (one ``(3, n)`` block whose rows are
``a``, ``b`` and ``c``) and validation sit outside the timed region.
Validation is ``allclose`` against the recomputed expected values, taken over
each array's minimum and maximum: the values that pass form one interval
around the expected value, so the extremes give the same verdict as the whole
array without its full-size temporaries.  An ``ntimes`` whose expected values
overflow ``dtype`` is reported invalid.

Output format mirrors stream.c's "Best Rate MB/s" table so FOM regexes look
like the real thing.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["run_stream", "StreamResult", "run_command", "main", "KERNELS"]

KERNELS = ("Copy", "Scale", "Add", "Triad")
_Q = 3.0


@dataclass
class StreamResult:
    array_size: int
    ntimes: int
    #: kernel -> best rate in MB/s
    best_rates: Dict[str, float] = field(default_factory=dict)
    #: kernel -> average time in seconds
    avg_times: Dict[str, float] = field(default_factory=dict)
    valid: bool = True

    def report(self) -> str:
        lines = [
            f"STREAM array size = {self.array_size} (elements), "
            f"{self.ntimes} iterations",
            "Function    Best Rate MB/s  Avg time",
        ]
        for k in KERNELS:
            lines.append(
                f"{k + ':':<12}{self.best_rates[k]:>14.1f}  {self.avg_times[k]:.6f}"
            )
        lines.append(
            "Solution Validates: avg error less than 1.000000e-13"
            if self.valid
            else "Solution INVALID"
        )
        return "\n".join(lines)


def run_stream(array_size: int = 1_000_000, ntimes: int = 10,
               dtype=np.float64) -> StreamResult:
    """Run the four STREAM kernels ``ntimes`` and report best rates."""
    if array_size < 16:
        raise ValueError(f"array size too small: {array_size}")
    if ntimes < 2:
        raise ValueError("ntimes must be >= 2 (first iteration is warm-up)")
    a, b, c = np.empty((3, array_size), dtype=dtype)
    a.fill(1.0)
    b.fill(2.0)
    c.fill(0.0)
    itemsize = a.itemsize
    bytes_per = {
        "Copy": 2 * itemsize * array_size,
        "Scale": 2 * itemsize * array_size,
        "Add": 3 * itemsize * array_size,
        "Triad": 3 * itemsize * array_size,
    }

    times: Dict[str, List[float]] = {k: [] for k in KERNELS}
    for _ in range(ntimes):
        t = time.perf_counter()
        np.copyto(c, a)
        times["Copy"].append(time.perf_counter() - t)

        t = time.perf_counter()
        np.multiply(c, _Q, out=b)
        times["Scale"].append(time.perf_counter() - t)

        t = time.perf_counter()
        np.add(a, b, out=c)
        times["Add"].append(time.perf_counter() - t)

        t = time.perf_counter()
        np.multiply(c, _Q, out=a)
        np.add(a, b, out=a)
        times["Triad"].append(time.perf_counter() - t)

    result = StreamResult(array_size=array_size, ntimes=ntimes)
    for k in KERNELS:
        trimmed = times[k][1:]  # drop warm-up iteration, like stream.c
        best = min(trimmed)
        result.best_rates[k] = bytes_per[k] / best / 1e6
        result.avg_times[k] = sum(trimmed) / len(trimmed)

    # Validation identical in spirit to stream.c: recompute expected values.
    ea, eb, ec = 1.0, 2.0, 0.0
    for _ in range(ntimes):
        ec = ea
        eb = _Q * ec
        ec = ea + eb
        ea = eb + _Q * ec
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.array((ea, eb, ec), dtype=dtype)).all()
    result.valid = bool(
        finite and _close(a, ea) and _close(b, eb) and _close(c, ec)
    )
    return result


def _close(x: np.ndarray, expected: float) -> bool:
    """``np.allclose(x, expected)`` for a scalar ``expected``, without the
    full-size temporaries: the values that pass form one interval around
    ``expected``, so the array passes exactly when its extremes do."""
    return bool(np.allclose((x.min(), x.max()), expected))


_PARSER = argparse.ArgumentParser(prog="stream")
_PARSER.add_argument("-n", "--array-size", type=int, default=1_000_000)
_PARSER.add_argument("--ntimes", type=int, default=10)


def run_command(argv: Optional[List[str]], ranks: int = 1,
                interconnect=None) -> StreamResult:
    """Run ``stream argv``; STREAM measures one node's memory, so it
    ignores the launcher's ``ranks`` and the ``interconnect``."""
    args = _PARSER.parse_args(argv)
    return run_stream(args.array_size, args.ntimes)


def main(argv: Optional[List[str]] = None) -> int:
    result = run_command(argv)
    print(result.report())
    return 0 if result.valid else 1


if __name__ == "__main__":
    sys.exit(main())
