"""Run one benchmark invocation with a span around every public function
of the package's layers, from outside the package.

    python3 perfbench/tracer.py SPANS INVOCATION_ID -m onsager.cli ARGS...

runs `onsager.cli.main(ARGS)`, which is what `python3 -m onsager.cli ARGS`
runs.  Each public function (the names in `__all__`) of polybasis, kernel,
solver, bifurcation, dynamics and cli is wrapped, and the wrapper replaces
the function in every module of the package that binds it, so calls
between layers (`bifurcation.solve`, `solver.legendre_table`, ...) are
seen too.

Spans (name, start, end, parent span) are kept in memory in flat arrays and
written when the invocation ends: SPANS.json holds the invocation id, the
span names, the span count and the work counts below; SPANS.bin holds the
columns name (int32), parent (int64, -1 at the top), start and end
(int64 nanoseconds) and nested (int8, 1 when a span of the same name is
already open), one column after the other.

Work counts recorded at the same boundaries:
    polybasis.legendre_table.values  sum of (max_degree + 1) * len(t)
    solver.multistart.starts/.found  starts tried and distinct solutions
    solver.solve.iterations          Newton/Picard iterations reported
    solver.solve.singular            solves ending in a singular system
    solver.solve.unconverged         reports with converged = False
    dynamics.evolve.steps            time steps taken
    cli.emit_table.bytes             bytes of the files written
"""

import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onsager import bifurcation, cli, dynamics, kernel, polybasis, solver  # noqa: E402,I001
from onsager.errors import SingularLinearizationError  # noqa: E402

LAYERS = (polybasis, kernel, solver, bifurcation, dynamics, cli)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_legendre(counts, args, kwargs, result):
    counts["polybasis.legendre_table.values"] += result.size


def _count_multistart(counts, args, kwargs, result):
    counts["solver.multistart.starts"] += _arg(args, kwargs, 2, "n_starts")
    counts["solver.multistart.found"] += len(result)


def _count_solve(counts, args, kwargs, result):
    counts["solver.solve.iterations"] += result.iterations
    counts["solver.solve.unconverged"] += not result.converged


def _count_evolve(counts, args, kwargs, result):
    dt = _arg(args, kwargs, 3, "dt")
    counts["dynamics.evolve.steps"] += round(result.times[-1] / dt)


def _count_emit(counts, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    size = os.path.getsize(path)
    if _arg(args, kwargs, 2, "fmt") == "csv":
        size += os.path.getsize(os.path.splitext(path)[0] + ".json")
    counts["cli.emit_table.bytes"] += size


COUNTERS = {
    "polybasis.legendre_table": _count_legendre,
    "solver.multistart": _count_multistart,
    "solver.solve": _count_solve,
    "dynamics.evolve": _count_evolve,
    "cli.emit_table": _count_emit,
}
COUNT_NAMES = (
    "polybasis.legendre_table.values", "solver.multistart.starts",
    "solver.multistart.found", "solver.solve.iterations",
    "solver.solve.singular", "solver.solve.unconverged",
    "dynamics.evolve.steps", "cli.emit_table.bytes",
)


class Recorder:
    """Spans and work counts of one invocation, held in memory."""

    def __init__(self):
        self.names = []
        self.name_col = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")
        self.open = []
        self.depth = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        counts, depth, open_spans = self.counts, self.depth, self.open
        name_col, parent, start, end, nested = (
            self.name_col, self.parent, self.start, self.end, self.nested)
        depth[name] = 0

        def traced(*args, **kwargs):
            span = len(start)
            name_col.append(index)
            parent.append(open_spans[-1] if open_spans else -1)
            nested.append(depth[name] > 0)
            end.append(0)
            open_spans.append(span)
            depth[name] += 1
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except SingularLinearizationError:
                if name == "solver.solve":
                    counts["solver.solve.singular"] += 1
                raise
            finally:
                end[span] = perf_counter_ns()
                depth[name] -= 1
                open_spans.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layers and rebind the wrapper
        wherever the package binds the original."""
        wrappers = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not isinstance(obj, type):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}",
                                                        obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "onsager" and not mod_name.startswith("onsager."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, stem, invocation):
        header = {"invocation": invocation, "names": self.names,
                  "spans": len(self.start), "counts": self.counts}
        with open(stem + ".bin", "wb") as fh:
            for column in (self.name_col, self.parent, self.start, self.end,
                           self.nested):
                column.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)


def main(argv) -> int:
    if argv[2:4] != ["-m", "onsager.cli"]:
        sys.stderr.write("usage: tracer.py SPANS INVOCATION_ID "
                         "-m onsager.cli ARGS...\n")
        return 2
    stem, invocation, args = argv[0], argv[1], argv[4:]
    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(args)
    finally:
        recorder.write(stem, invocation)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
