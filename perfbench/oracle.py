"""Spectral oracle of the `evolve` workload.

    python3 perfbench/oracle.py OUT.json

Writes a_1 of the prolate solution at lambda = 11.3, the state the README
`evolve` run relaxes to, from the Newton solver and `zonal_moments`: an
answer reached without the dynamics code that `evolve` runs.  The package
is imported from the `src` directory next to this one.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onsager.kernel import build_kernel_spec  # noqa: E402
from onsager.solver import AxisymState, solve, zonal_moments  # noqa: E402

EVOLVE_LAMBDA = 11.3


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: oracle.py OUT.json\n")
        return 2
    # the CLI `evolve` run uses the default kernel table (n_max 12); the
    # polar family is the one with u_1 < 0
    spec = build_kernel_spec(3, 12, "onsager-quadrature")
    report = solve(spec, EVOLVE_LAMBDA, AxisymState(3, [-4.0] + [0.0] * 11))
    with open(argv[0], "w") as fh:
        json.dump({"lambda": EVOLVE_LAMBDA,
                   "converged": report.converged,
                   "u_1": float(report.state.coeffs[0]),
                   "a_1": float(zonal_moments(report.state)[0])}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
