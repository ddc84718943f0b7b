"""Per-layer tracing of the superalg package, installed from outside.

`Tracer.install` replaces each public callable listed in LAYERS by a
wrapper, in every `superalg` module namespace that holds it by name (the
defining module and every module that imported it with `from ... import`),
and `uninstall` puts the originals back.  Nothing under `src/` changes.

A wrapper records a span (name, start, end, parent span, op) and the
layer's self time: its duration minus the time of the wrapped calls it
made.  `core.bracket`, called about a million times per pass, keeps only
self time and a call count, no span; `Element.__init__`, called several
million times, keeps only a call count, so its time stays with its caller
and the wrapper costs little.  Sizes observed from arguments
and results are taken after the span ends; that time is booked as the
pseudo-layer `trace.observe`, so the self times of all layers of an op
sum to the op's traced duration.
"""

import os
import time
from collections import defaultdict

from workloads import law_nnz

clock = time.perf_counter


def _bits(value):
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _max_bits(rows):
    return max((_bits(v) for row in rows for v in row if v), default=0)


def _observe_validate(stats, args, result, ok, parent):
    stats.add("core.validate.dim3", args[0].dim ** 3)


def _observe_nullspace(stats, args, result, ok, parent):
    if not ok:
        return
    M = args[0]
    stats.add("linalg.nullspace.rank", M.cols - len(result))
    stats.peak("linalg.nullspace.max_bits_in", _max_bits(M.entries))
    stats.peak("linalg.nullspace.max_bits_out", _max_bits(result))
    if parent == "derivations.derivation_space":
        stats.add("derivations.derivation_space.equations", M.rows)
        stats.add("derivations.derivation_space.unknowns", M.cols)
        stats.add("derivations.derivation_space.cells", M.rows * M.cols)
        stats.add("derivations.derivation_space.nonzeros",
                  sum(1 for row in M.entries for v in row if v))


def _observe_row_space_basis(stats, args, result, ok, parent):
    if ok:
        stats.add("linalg.row_space_basis.vectors_in", len(args[0]))
        stats.add("linalg.row_space_basis.rank", len(result))


def _observe_span_contains(stats, args, result, ok, parent):
    if ok and result[0]:
        stats.add("linalg.span_contains.hits", 1)


def _observe_extension(stats, args, result, ok, parent):
    if ok:
        stats.add("extension.semidirect_extension.successes", 1)


def _observe_load(stats, args, result, ok, parent):
    if isinstance(args[0], str):
        stats.add("fileformat.load.bytes", os.path.getsize(args[0]))
    if ok:
        stats.add("core.law_nnz_total", law_nnz(result))


def _observe_dump(stats, args, result, ok, parent):
    if ok and isinstance(args[1], str):
        stats.add("fileformat.dump.bytes", os.path.getsize(args[1]))


# (layer name, defining module, attribute, observer or None)
LAYERS = [
    ("core.validate", "superalg.core", "validate", _observe_validate),
    ("core.multiplication_matrix", "superalg.core", "multiplication_matrix", None),
    ("core.change_of_basis", "superalg.core", "change_of_basis", None),
    ("derivations.derivation_space", "superalg.derivations", "derivation_space", None),
    ("derivations.inner_space", "superalg.derivations", "inner_space", None),
    ("derivations.innerness_report", "superalg.derivations", "innerness_report", None),
    ("linalg.nullspace", "superalg.linalg", "nullspace", _observe_nullspace),
    ("linalg.row_space_basis", "superalg.linalg", "row_space_basis",
     _observe_row_space_basis),
    ("linalg.rank", "superalg.linalg", "rank", None),
    ("linalg.invert", "superalg.linalg", "invert", None),
    ("linalg.nilpotent_jordan_blocks", "superalg.linalg", "nilpotent_jordan_blocks", None),
    ("linalg.span_contains", "superalg.linalg", "span_contains", _observe_span_contains),
    ("invariants.product_space", "superalg.invariants", "product_space", None),
    ("invariants.series", "superalg.invariants", "series", None),
    ("invariants.characteristic_sequence", "superalg.invariants",
     "characteristic_sequence", None),
    ("invariants.right_annihilator", "superalg.invariants", "right_annihilator", None),
    ("extension.semidirect_extension", "superalg.extension", "semidirect_extension",
     _observe_extension),
    ("extension.nilradical_verdict", "superalg.extension", "nilradical_verdict", None),
    ("fileformat.load", "superalg.fileformat", "load_algebra", _observe_load),
    ("fileformat.dump", "superalg.fileformat", "dump_algebra", _observe_dump),
]

# Hot callables: self time and call count only.
HOT = [
    ("core.bracket", "superalg.core", "bracket"),
]

# Which end-to-end metric each layer should move, and on which workload,
# written down before any change to the program is measured.
SHOULD_MOVE = {
    "core.bracket": "wall_s, top_rung_s on survey",
    "core.element": "wall_s, top_rung_s on survey",
    "core.validate": "wall_s, top_rung_s on survey (little: derive_*)",
    "core.multiplication_matrix": "wall_s on survey and derive_* (inner_space)",
    "core.change_of_basis": "setup_s on derive_dense",
    "derivations.derivation_space": "wall_s, top_rung_s on derive_sparse "
                                    "(little: derive_dense; none: survey)",
    "derivations.inner_space": "wall_s on derive_*",
    "derivations.innerness_report": "wall_s on derive_*",
    "linalg.nullspace": "wall_s, top_rung_s on derive_dense",
    "linalg.row_space_basis": "wall_s, top_rung_s on survey (small dense systems)",
    "linalg.rank": "wall_s on survey",
    "linalg.invert": "setup_s on derive_dense",
    "linalg.nilpotent_jordan_blocks": "wall_s, top_rung_s on survey",
    "linalg.span_contains": "wall_s on derive_* (innerness_report) and survey",
    "invariants.product_space": "wall_s, top_rung_s on survey",
    "invariants.series": "wall_s, top_rung_s on survey",
    "invariants.characteristic_sequence": "wall_s, top_rung_s on survey",
    "invariants.right_annihilator": "wall_s, top_rung_s on survey",
    "extension.semidirect_extension": "wall_s on survey (verify)",
    "extension.nilradical_verdict": "wall_s on survey (verify)",
    "fileformat.load": "wall_s on survey",
    "fileformat.dump": "wall_s on survey, setup_s on derive_*",
    "cli": "wall_s on derive_* (der prints n x n matrices)",
}


# Every layer name a Stats may hold: the wrapped callables, Element.__init__,
# the roots the harness opens around each op and around the set-up, and the
# time the wrappers spend observing sizes.
NAMES = ([name for name, _, _, _ in LAYERS] + [name for name, _, _ in HOT]
         + ["core.element", "cli", "setup", "trace.observe"])


class Stats:
    """Self times, call counts and observed sizes of one traced stretch."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(int)
        self.peaks = defaultdict(int)

    def add(self, key, value):
        self.sums[key] += value

    def peak(self, key, value):
        if value > self.peaks[key]:
            self.peaks[key] = value

    def merge(self, other):
        out = Stats()
        for a in (self, other):
            for name, v in a.self_s.items():
                out.self_s[name] += v
            for name, v in a.calls.items():
                out.calls[name] += v
            for name, v in a.sums.items():
                out.sums[name] += v
            for name, v in a.peaks.items():
                out.peak(name, v)
        return out


class Tracer:
    """Installs the wrappers and collects spans and Stats."""

    def __init__(self, modules):
        self.modules = [m for name, m in sorted(modules.items())
                        if name == "superalg" or name.startswith("superalg.")]
        self.stats = Stats()
        self.spans = []        # (id, name, start, end, parent id, op)
        self.stack = []        # frames: [child time, name, span id]
        self.op = None
        self._next_id = 0
        self._saved = []

    # ---- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        tracer = self
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                stats = tracer.stats
                stats.self_s[name] += end - start - frame[0]
                stats.calls[name] += 1
                tracer.spans.append((span_id, name, start, end, parent[2], tracer.op))
                if observe is not None:
                    observe(stats, args, result, ok, parent[1])
                done = clock()
                stats.self_s["trace.observe"] += done - end
                parent[0] += done - start

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name, fn):
        tracer = self
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0, name, stack[-1][2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats = tracer.stats
                stats.self_s[name] += dur - frame[0]
                stats.calls[name] += 1
                stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def _counting_wrapper(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.stats.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        by_name = {m.__name__: m for m in self.modules}
        replace = {}
        for name, module, attr, observe in LAYERS:
            fn = getattr(by_name[module], attr)
            replace[id(fn)] = (fn, self._span_wrapper(name, fn, observe))
        for name, module, attr in HOT:
            fn = getattr(by_name[module], attr)
            replace[id(fn)] = (fn, self._hot_wrapper(name, fn))
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        element = by_name["superalg.core"].Element
        init = element.__init__
        self._saved.append((element, "__init__", init))
        element.__init__ = self._counting_wrapper("core.element", init)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # ---- roots ---------------------------------------------------------

    def root(self, name, op, fn, *args):
        """Run fn(*args) as the root span `name` of op number `op`."""
        self.op = op
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, name, span_id]
        self.stack.append(frame)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self.stack.pop()
            self.stats.self_s[name] += end - start - frame[0]
            self.stats.calls[name] += 1
            self.spans.append((span_id, name, start, end, None, op))

    def take(self):
        """Return the Stats collected so far and start a fresh one."""
        stats, self.stats = self.stats, Stats()
        return stats
