"""Fixed reference job that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

run.py times it in a fresh interpreter right before every pass and reports
each pass relative to it (see NOTES.md, *Noise and calibration*).  It never
imports the package, so no change to the program can change its time.  It
does the kinds of work the workloads do: interpreter start, the numpy and
scipy imports, small-array numpy arithmetic, small dense solves and a plain
Python loop.  It prints a checksum so that the work cannot be skipped.
"""

import numpy as np
import scipy.optimize  # noqa: F401  (an import cost the program pays too)


def main():
    x = np.linspace(0.01, 3.1, 128)
    f = np.ones(128)
    for _ in range(12000):
        g = np.exp(-np.cos(x) * f)
        f = f + 1e-3 * np.diff(g, prepend=g[0]) / (1.0 + g)
    a = np.eye(16) * 16.0 + np.cos(np.outer(np.arange(16), np.arange(16)))
    b = np.sin(np.arange(16.0))
    for _ in range(6000):
        b = np.linalg.solve(a, b + 1.0)
    s = 0.0
    for m in range(1, 400000):
        s += (2 * m - 1) / (2 * m + 2)
    print(f"{float(f.sum()) + float(b.sum()) + s:.12e}")


if __name__ == "__main__":
    main()
