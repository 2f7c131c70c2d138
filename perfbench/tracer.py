"""Spans around the public functions of every nilharm layer.

The tracer replaces each public function of a layer module with a
wrapper, in every namespace that holds the function by name (so
`stepwise.bracket` and `inversion.bracket` are traced as well as
`algebra.bracket`).  A span records its name, start, end, parent span
and job id; spans stay in memory until the run ends.  A layer's self
time is its span duration minus the durations of its child spans.

PER_LAYER maps each per-layer metric to the end-to-end metrics it should
move and the workloads where it does.
"""

import functools
import importlib
import inspect
import time

import workloads

# Methods traced besides the module-level public functions.
METHODS = (("polynomials", "Poly", "evaluate_float"),
           ("gaussians", "ComplexGaussian", "fourier"),
           ("gaussians", "ComplexGaussian", "partial_fourier"),
           ("gaussians", "ComplexGaussian", "marginalize"))

# Namespaces that import layer functions by name without being a layer.
EXTRA_NAMESPACES = ("nilharm", "nilharm.selftest")

PER_LAYER = {
    "algebra.bracket.calls": ("wall_s job_p90_s", "exact-sweep"),
    "algebra.bracket.self_s": ("wall_s job_p90_s", "exact-sweep"),
    "algebra.jacobi_defect.self_s": ("wall_s job_p90_s", "exact-sweep"),
    "algebra.nilpotency_class.calls": ("job_p50_s wall_s",
                                       "repeat-query exact-sweep"),
    "algebra.nilpotency_class.self_s": ("job_p50_s wall_s",
                                        "repeat-query exact-sweep"),
    "pfaffian.b_matrix.calls": ("job_p50_s wall_s",
                                "repeat-query exact-sweep"),
    "pfaffian.b_matrix.self_s": ("job_p50_s wall_s",
                                 "repeat-query exact-sweep"),
    "algebra.center.self_s": ("wall_s", "exact-sweep"),
    "algebra.subalgebra.self_s": ("wall_s", "exact-sweep"),
    "algebra.derived_subalgebra.self_s": ("wall_s", "exact-sweep"),
    "linalg.rref.calls": ("wall_s", "exact-sweep"),
    "linalg.rref.self_s": ("wall_s", "exact-sweep"),
    "linalg.kernel.self_s": ("wall_s", "exact-sweep"),
    "pfaffian.pf_polynomial.calls": ("wall_s peak_rss_mb",
                                     "exact-sweep inversion"),
    "pfaffian.pf_polynomial.self_s": ("wall_s peak_rss_mb",
                                      "exact-sweep inversion"),
    "pfaffian.pfaffian.self_s": ("wall_s peak_rss_mb",
                                 "exact-sweep inversion"),
    "pfaffian.is_square_integrable.self_s": ("wall_s peak_rss_mb",
                                             "exact-sweep inversion"),
    "stepwise.verify.calls": ("job_p90_s wall_s", "exact-sweep"),
    "stepwise.split_hit_ratio": ("job_p90_s wall_s", "exact-sweep"),
    "stepwise.find_codim_split.self_s": ("job_p90_s wall_s", "exact-sweep"),
    "catalog.from_name.self_s": ("setup_s wall_s",
                                 "exact-sweep repeat-query"),
    "composition.multiply.calls": ("setup_s wall_s",
                                   "exact-sweep repeat-query"),
    "orbits.orbit_representative.self_s": ("job_p50_s", "repeat-query"),
    "orbits.darboux_basis.self_s": ("job_p50_s", "repeat-query"),
    "polynomials.Poly.evaluate_float.calls": ("wall_s", "inversion"),
    "polynomials.Poly.evaluate_float.self_s": ("wall_s", "inversion"),
    "gaussians.ComplexGaussian.fourier.self_s": ("wall_s job_p50_s",
                                                 "inversion"),
    "gaussians.ComplexGaussian.partial_fourier.calls": ("wall_s job_p50_s",
                                                        "inversion"),
    "gaussians.ComplexGaussian.marginalize.self_s": ("wall_s job_p50_s",
                                                     "inversion"),
    "quadrature.tensor_integrate.calls": ("wall_s", "inversion"),
    "quadrature.tensor_integrate.self_s": ("wall_s", "inversion"),
    "quadrature.separable_integrate.self_s": ("wall_s", "inversion"),
    "quadrature.radial_integrate.self_s": ("wall_s", "inversion"),
    "quadrature.nodes": ("wall_s", "inversion"),
    "quadrature.node_efficiency": ("wall_s", "inversion"),
    "inversion.invert_flat.self_s": ("wall_s job_p50_s", "inversion"),
    "inversion.invert_stepwise.self_s": ("wall_s job_p50_s", "inversion"),
    "inversion.inner_nodes": ("wall_s job_p50_s", "inversion"),
    "inversion.outer_nodes": ("wall_s job_p50_s", "inversion"),
    "cli.import_s": ("setup_s job_p50_s", "cli-cold"),
    "cli.run.self_s": ("setup_s job_p50_s", "cli-cold"),
    "config.load_config.self_s": ("setup_s job_p50_s", "cli-cold"),
    "trace.overhead_s": ("none: traced minus untraced wall_s", "all"),
    "trace.remainder_s": ("none: job time in no layer span", "all"),
}

class Tracer:
    """Span recorder; spans are parallel lists indexed by span id."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.jobs = [], []
        self.stack = []
        self.counters = {"quadrature.nodes": 0, "quadrature.final_nodes": 0,
                         "stepwise.splits_found": 0}

    def install(self):
        """Wrap every public layer function in every namespace holding it."""
        wrappers = {}
        modules = workloads.load_modules()
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, "%s.%s" % (layer, attr))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(fn, "%s.%s.%s"
                                          % (layer, cls_name, meth)))
        namespaces = list(modules.values()) + [
            importlib.import_module(name) for name in EXTRA_NAMESPACES]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])

    def _wrap(self, fn, name):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(tracer, args)
            span = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.jobs.append(tracer.job)
            tracer.ends.append(0.0)
            tracer.stack.append(span)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[span] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def merge(self, spans, job):
        """Add spans recorded in a child process: (name, start, end, parent)."""
        base = len(self.names)
        for name, start, end, parent in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(base + parent if parent >= 0 else -1)
            self.jobs.append(job)

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def summarize(self, rounds, job_times, counters):
        """Per-layer metrics per round, plus the check of the spans.

        job_times[j] is the (start, end) of job j as the runner timed it.
        The check fails when a span was left open, lies outside its
        parent's interval or its job's, belongs to another job than its
        parent, or overlaps the previous span with the same parent.  When
        it passes, the layer self times plus the remainder (job time
        outside every top-level span) add up to the traced job time.
        Returns (metrics, spans_ok).
        """
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        roots = 0.0
        spans_ok = True
        # end of the latest span under each parent (a top-level span's
        # parent is its job)
        last_end = {}
        for i in range(n):
            p, job = self.parents[i], self.jobs[i]
            if p < 0:
                key, (lo, hi) = ("job", job), job_times[job]
                roots += durations[i]
            else:
                key, lo, hi = p, self.starts[p], self.ends[p]
                spans_ok &= self.jobs[p] == job
                children[p] += durations[i]
            spans_ok &= (max(lo, last_end.get(key, lo)) <= self.starts[i]
                         <= self.ends[i] <= hi)
            last_end[key] = self.ends[i]
        calls, self_s = {}, {}
        for i in range(n):
            name = self.names[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + durations[i] - children[i]

        # verify spans that ran inside a split search are its candidates
        candidates = 0
        for i in range(n):
            if self.names[i] == "stepwise.verify":
                p = self.parents[i]
                while p >= 0 and self.names[p] != "stepwise.find_codim_split":
                    p = self.parents[p]
                candidates += p >= 0

        remainder = sum(end - start for start, end in job_times) - roots

        out = {}
        for name in calls:
            out[name + ".calls"] = calls[name] / rounds
            out[name + ".self_s"] = self_s[name] / rounds
        counts = dict(self.counters)
        counts.update(counters)
        for name, value in counts.items():
            out[name] = value / rounds
        evaluated = counts["quadrature.nodes"]
        out["quadrature.node_efficiency"] = (
            counts["quadrature.final_nodes"] / evaluated if evaluated else 0.0)
        out["stepwise.split_hit_ratio"] = (
            counts["stepwise.splits_found"] / candidates if candidates
            else 0.0)
        out["trace.remainder_s"] = remainder / rounds
        return out, spans_ok


def _count_points(tracer, args):
    func = args[0]

    def counted(pts):
        tracer.counters["quadrature.nodes"] += len(pts)
        return func(pts)

    return (counted,) + tuple(args[1:])


def _final_nodes(tracer, result):
    tracer.counters["quadrature.final_nodes"] += result[1]["nodes"]


def _split_found(tracer, result):
    tracer.counters["stepwise.splits_found"] += result is not None


# Integrand points are counted where they are evaluated: tensor and
# radial rules.  separable_integrate calls tensor_integrate per axis.
_HOOKS = {
    "quadrature.tensor_integrate": (_count_points, _final_nodes),
    "quadrature.radial_integrate": (_count_points, _final_nodes),
    "stepwise.find_codim_split": (None, _split_found),
}
