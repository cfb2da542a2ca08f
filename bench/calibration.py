"""Host-speed calibration.

A shared host's speed drifts, in every process alike: on the 2-core Xeon
host of the baseline, by up to half between runs seconds apart (see
README.md).  Timing fixed work owned by the benchmark next to the work
measured, and scaling by its nominal time over its measured time, cancels
that.
"""
from time import perf_counter

KERNEL_NOMINAL_S = 0.0004
_N = 12

# Importing in a fresh interpreter does not follow the kernel: its time
# moved by a third between host states in which the kernel's time stayed
# put (README.md).  So ``setup_s`` is scaled instead by the time a fresh
# interpreter takes to import these standard-library modules, pure Python
# and C extensions alike, measured in a child of its own right after each
# program import.  No change to the program can move it.
REFERENCE_IMPORTS = ("asyncio, csv, ctypes, decimal, email.mime.multipart, fractions, "
                     "http.client, json, logging, sqlite3, ssl, statistics, tarfile, "
                     "unittest, xml.etree.ElementTree, zipfile")
IMPORT_NOMINAL_S = 0.1


def _rows() -> list[list[int]]:
    state, rows = 20250218, []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            row.append(state >> 3)
        rows.append(row)
    return rows


_ROWS = _rows()


def kernel() -> int:
    """Fixed work: a fraction-free determinant of a 12 x 12 matrix of 61-bit
    integers, the same kind of big-integer loop as the program's hot paths,
    but owned by the benchmark so that no change to the program moves it."""
    m = [row[:] for row in _ROWS]
    prev = 1
    for k in range(_N - 1):
        pivot, mk = m[k][k], m[k]
        for i in range(k + 1, _N):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, _N):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return m[-1][-1]


def probe() -> float:
    """Current host speed: median wall seconds of five kernel runs."""
    times = []
    for _ in range(5):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[2]
