"""Per-layer tracing for the ddestab benchmark, from outside the package.

Every cross-layer call in ddestab goes through a module attribute (``tf.``,
``cr.``, ``md.``, ``sv.``, ``dg.``) and calls inside one module go through
its globals, which are the same attributes. Rebinding those attributes to
timing wrappers therefore reaches calls made inside ``cli`` and
``criteria`` too, without editing the package. ``uninstall`` puts every
original back.

Spans (name, start, end, parent span, op id) are kept in memory and written
once, by ``write_spans``. A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

from workloads import Rebinder

# (layer module key, attribute, row). Plain and ``_info`` forms share a row:
# the plain form calls the ``_info`` form, so a call counts once per row.
SPANNED = (
    ("tf", "sup_window_integral", "timefn.sup_window_integral"),
    ("tf", "sup_window_integral_info", "timefn.sup_window_integral"),
    ("tf", "sup_between_delays", "timefn.sup_between_delays"),
    ("tf", "sup_between_delays_info", "timefn.sup_between_delays"),
    ("tf", "liminf_forward_integral", "timefn.liminf_forward_integral"),
    ("tf", "liminf_forward_integral_info", "timefn.liminf_forward_integral"),
    ("tf", "ratio_extrema", "timefn.ratio_extrema"),
    ("tf", "coefficient_extrema", "timefn.coefficient_extrema"),
    ("cr", "check_diff_form", "criteria.check_diff_form"),
    ("cr", "check_ratio_form", "criteria.check_ratio_form"),
    ("cr", "check_nondelay_dominant", "criteria.check_nondelay_dominant"),
    ("md", "check_les_removal", "models.check_les_removal"),
    ("md", "check_les_production", "models.check_les_production"),
    ("md", "production_stability_checks", "models.production_stability_checks"),
    ("sv", "integrate", "solver.integrate"),
    ("dg", "find_threshold", "diagnostics.find_threshold"),
    ("dg", "classify", "diagnostics.classify"),
    ("dg", "fit_decay", "diagnostics.fit_decay"),
    ("cli", "main", "cli.main"),
)

CALL_ROWS = ("timefn.sup_window_integral", "timefn.sup_between_delays", "timefn.liminf_forward_integral")
SELF_ROWS = (
    "timefn.sup_window_integral",
    "timefn.sup_between_delays",
    "timefn.liminf_forward_integral",
    "timefn.ratio_extrema",
    "timefn.coefficient_extrema",
    "criteria.check_diff_form",
    "criteria.check_ratio_form",
    "criteria.check_nondelay_dominant",
    "models.check_les_removal",
    "models.check_les_production",
    "models.production_stability_checks",
    "solver.integrate",
    "diagnostics.find_threshold",
    "diagnostics.classify",
    "diagnostics.fit_decay",
    "cli.main",
)
CERTIFICATE_ROWS = (
    "criteria.check_diff_form",
    "criteria.check_ratio_form",
    "criteria.check_nondelay_dominant",
)


class Tracer:
    """Times calls into each layer of a loaded library while installed."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.op = None
        self.integral_calls = 0
        self.thresholds = 0
        self.predicate_calls = 0
        self.runs = []  # (span index, steps, distributed, diverged) per integrate call
        self._stack = []
        self._rebinder = Rebinder()

    # -- installation -------------------------------------------------------

    def install(self):
        for key, attr, row in SPANNED:
            owner = getattr(self.lib, key)
            after = self._after_integrate if row == "solver.integrate" else None
            fn = getattr(owner, attr)
            if row == "diagnostics.find_threshold":
                fn = self._counting_predicates(fn)
            self._rebinder.set(owner, attr, self._spanned(fn, row, after))
        coefficient = self.lib.tf.Coefficient
        self._rebinder.set(coefficient, "integral", self._counting_integral(coefficient.integral))

    def uninstall(self):
        self._rebinder.restore()

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block (an op root)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, fn, row, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(row)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(index)
                if after is not None:
                    after(index, args, result, error)

        return wrapper

    # -- counters -----------------------------------------------------------

    def _counting_integral(self, integral):
        tracer = self

        @functools.wraps(integral)
        def counted(coeff, t1, t2):
            tracer.integral_calls += 1
            return integral(coeff, t1, t2)

        return counted

    def _counting_predicates(self, find_threshold):
        tracer = self

        @functools.wraps(find_threshold)
        def counted(predicate, *args, **kwargs):
            def counted_predicate(value):
                tracer.predicate_calls += 1
                return predicate(value)

            tracer.thresholds += 1
            return find_threshold(counted_predicate, *args, **kwargs)

        return counted

    def _after_integrate(self, index, args, traj, exc):
        if traj is None:
            traj = getattr(exc, "trajectory", None)
        if traj is None:
            return
        target = args[0]
        distributed = bool(getattr(target, "distributed_terms", ()))
        self.runs.append((index, int(traj.times.size) - 1, distributed, bool(traj.diverged)))

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's coverage."""
        children = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = []
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child in sorted(children[index], key=lambda c: self.spans[c][1]):
                c_start, c_end = max(self.spans[child][1], reach), self.spans[child][2]
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def rows(self, ops: int) -> dict:
        """Per-layer rows, name -> (value, unit), over ``ops`` traced ops."""
        self_s = self.self_times()
        names = [span[0] for span in self.spans]
        rows = {"timefn.integral_calls": (self.integral_calls / max(ops, 1), "count")}
        totals = dict.fromkeys(SELF_ROWS, 0.0)
        calls = dict.fromkeys(SELF_ROWS, 0)
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            if name in totals:
                totals[name] += self_s[index]
                if parent is None or names[parent] != name:
                    calls[name] += 1
        for row in CALL_ROWS:
            rows[row + ".calls"] = (calls[row], "count")
        for row in SELF_ROWS:
            rows[row + ".self_s"] = (totals[row], "s")
        rows["criteria.certificates"] = (sum(calls[row] for row in CERTIFICATE_ROWS), "count")
        steps = {False: 0, True: 0}
        busy = {False: 0.0, True: 0.0}
        for index, n, distributed, _ in self.runs:
            steps[distributed] += n
            busy[distributed] += self_s[index]
        rows["solver.steps"] = (steps[False] + steps[True], "count")
        for distributed, name in ((False, "concentrated"), (True, "distributed")):
            n = steps[distributed]
            rows["solver.us_per_step." + name] = (1e6 * busy[distributed] / n if n else 0.0, "us")
        rows["solver.diverged_runs"] = (sum(1 for run in self.runs if run[3]), "count")
        rows["diagnostics.predicate_calls"] = (
            self.predicate_calls / self.thresholds if self.thresholds else 0.0, "count")
        return rows

    def write_spans(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
