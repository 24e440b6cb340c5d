"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of hopfgrow's modules with
timing wrappers, records spans in memory and puts every original back on
``restore``.  A module-level function is replaced in every hopfgrow module
namespace that holds it (``from .x import f`` copies the name), a method on
its class.  Coarse layers keep one span per call (name, start, end, parent,
job); hot leaf layers only aggregate call count and self time per job.  Self
time is a call's duration minus the time of the wrapped calls inside it.
"""

import json
import sys
from time import perf_counter

_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
          "__truediv__", "__pow__", "__eq__", "inverse")
_GROUP_METHODS = ("identity", "reduce", "mul", "inv", "power", "generator",
                  "generators", "is_identity", "word_length", "element_order",
                  "ball", "gk_dimension", "subgroup_free_rank",
                  "subgroup_is_torsionfree", "format_element")

# (module, class or None for a module function, attribute names, layer name
# or None for module.attribute / module.class.attribute)
TARGETS = [
    ("fileformat", None, ("parse_presentation_data",), None),
    ("presentation", "Presentation", ("normal_form_yword",), "presentation.normal_form_yword"),
    ("presentation", "Presentation", ("word_times_letter",), "presentation.word_times_letter"),
    ("presentation", "Presentation", ("filtration_dims",), "presentation.filtration_dims"),
    ("presentation", "Presentation", ("normalize",), "presentation.normalize"),
    ("presentation", "Presentation", ("multiply",), "presentation.multiply"),
    ("presentation", "Presentation", ("check_confluence",), "presentation.check_confluence"),
    ("groups", "GroupData", _GROUP_METHODS, "groups.GroupData"),
    ("scalars", "Scalar", _ARITH, "scalars.Scalar"),
    ("scalars", "Scalar", ("as_unit_monomial",), None),
    ("cyclotomic", "CycloRational", _ARITH, "cyclotomic.CycloRational"),
    ("cyclotomic", "CycloRational", ("unity_order",), None),
    ("linalg", "ScalarElimination", ("insert",), None),
    ("linalg", None, ("nullspace_of_columns",), None),
    ("coalgebra", None, ("delta_word",), None),
    ("coalgebra", None, ("find_skew_primitives",), None),
    ("invariants", None, ("compute_invariants",), None),
    ("bounds", None, ("all_bounds",), None),
    ("bounds", None, ("detect_exponential",), None),
    ("growth", None, ("measure_growth",), None),
    ("growth", None, ("pbw_dependence_scan",), None),
    ("growth", None, ("dp_word_counts",), None),
]

# Layers called too often for one span per call.
AGGREGATED = {
    "presentation.normal_form_yword", "presentation.word_times_letter",
    "presentation.normalize", "presentation.multiply", "groups.GroupData",
    "scalars.Scalar", "scalars.Scalar.as_unit_monomial",
    "cyclotomic.CycloRational", "cyclotomic.CycloRational.unity_order",
    "linalg.ScalarElimination.insert", "coalgebra.delta_word",
}

JOB_SPAN = "job"


class Tracer:
    def __init__(self):
        self.spans = []      # [id, name, start, end, parent id, job, self_s]
        self.agg = {}        # (job, name) -> [calls, self_s]
        self.stack = []      # open calls: [child_s, span id or None]
        self.job = None
        self.patches = []    # (owner, attribute, original)
        self.distinct = {}   # name -> set of (job, argument)
        self.tallies = {}    # name -> count of something per call

    # -- recording -------------------------------------------------------
    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        if name in AGGREGATED:
            frame = [0.0, None]
        else:
            span_id = len(self.spans)
            frame = [0.0, span_id]
            self.spans.append([span_id, name, 0.0, 0.0, self._parent_span(), self.job, 0.0])
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self_s = duration - frame[0]
            if frame[1] is None:
                key = (self.job, name)
                row = self.agg.get(key)
                if row is None:
                    self.agg[key] = [1, self_s]
                else:
                    row[0] += 1
                    row[1] += self_s
            else:
                span = self.spans[frame[1]]
                span[2], span[3], span[6] = start, end, self_s

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span of its own (the job's root span)."""
        return self.call(name, fn, args, {})

    def _count(self, name, amount):
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def _observe(self, name, args, result):
        """Counts beyond calls and time, taken at the layer boundary inside
        a job."""
        if self.job is None:
            return
        if name == "presentation.normal_form_yword":
            self.distinct.setdefault(name, set()).add((self.job, tuple(args[1])))
        elif name == "coalgebra.delta_word":
            self.distinct.setdefault(name, set()).add((self.job, args[1]))
        elif name == "presentation.word_times_letter":
            self._count("support_out", len(result))
        elif name == "linalg.ScalarElimination.insert":
            self._count("pivots", result is None)
        elif name == "linalg.nullspace_of_columns":
            self._count("columns", len(args[1]))
        elif name == "growth.measure_growth":
            self._count("words", result.dims[-1])

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name, fn, observe):
        tracer = self

        if observe:
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, args, kwargs)
                tracer._observe(name, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package="hopfgrow"):
        """Wrap every target; returns self so it can be used as a context."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        observed = {"presentation.normal_form_yword", "coalgebra.delta_word",
                    "presentation.word_times_letter", "linalg.ScalarElimination.insert",
                    "linalg.nullspace_of_columns", "growth.measure_growth"}
        for modname, owner_name, attrs, group in TARGETS:
            module = sys.modules["%s.%s" % (package, modname)]
            for attr in attrs:
                if owner_name is None:
                    name = group or "%s.%s" % (modname, attr)
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original, name in observed)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self.patches.append((mod, key, original))
                                setattr(mod, key, wrapper)
                else:
                    owner = getattr(module, owner_name)
                    name = group or "%s.%s.%s" % (modname, owner_name, attr)
                    original = owner.__dict__[attr]
                    self.patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, name in observed))
        return self

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def restored(self):
        """Whether every wrapped attribute holds its original object again."""
        for owner, attr, original in self.patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return True

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------
    def layer_totals(self, outside=()):
        """name -> [calls, self_s] over all jobs.

        Calls made outside a job (parsing, answer checks) are left out,
        except those of the layers named in ``outside``.
        """
        out = {}
        for span in self.spans:
            if span[5] is None and span[1] not in outside:
                continue
            row = out.setdefault(span[1], [0, 0.0])
            row[0] += 1
            row[1] += span[6]
        for (job, name), (calls, self_s) in self.agg.items():
            if job is None and name not in outside:
                continue
            row = out.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return out

    def root_balance(self):
        """Per job: root span duration minus the self times of all its spans.

        Every wrapped call inside the root reports its own self time, so the
        difference is rounding only.
        """
        totals = {}
        for span in self.spans:
            totals[span[5]] = totals.get(span[5], 0.0) + span[6]
        for (job, _), (_, self_s) in self.agg.items():
            totals[job] = totals.get(job, 0.0) + self_s
        return {span[5]: (span[3] - span[2]) - totals.get(span[5], 0.0)
                for span in self.spans if span[1] == JOB_SPAN}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                sid, name, start, end, parent, job, self_s = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "self_s": self_s}) + "\n")
            for (job, name), (calls, self_s) in sorted(self.agg.items(), key=str):
                fh.write(json.dumps({"aggregate": name, "job": job, "calls": calls,
                                     "self_s": self_s}) + "\n")
