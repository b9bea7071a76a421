"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces module attributes of symloc with timing
wrappers and ``Tracer.uninstall()`` puts the originals back.  Wrappers
record nested spans on one stack: a span's self time is its duration minus
the durations of the spans opened while it was open.  Spans are aggregated
per name in memory (calls, total and self seconds), and a few counts are
taken at the same boundaries.

A hook whose target attribute is gone is recorded in ``absent`` and
skipped, so the benchmark keeps running on a program whose layers moved;
the metrics it fed are listed in ``absent_metrics`` and read 0.
The wrappers only time and count; they pass arguments and results through
unchanged, so traced values are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span name, per-layer metrics that read 0 when the
# hook's target is gone).  Modules that import a name with ``from ...
# import`` hold their own reference, so each binding the program calls
# through is hooked where it is looked up.
HOOKS = (
    ("symloc.fields", "Expr.eval", "fields.eval", ("fields.eval_s", "fields.eval_calls")),
    ("symloc.fields", "MatrixField.eval", "fields.eval", ()),
    ("symloc.forms", "EquivariantForm.eval_terms", "forms.eval_terms", ("forms.eval_terms_s",)),
    ("symloc.forms", "wedge", "forms.build", ()),
    ("symloc.forms", "exp_form_part", "forms.build", ()),
    ("symloc.integrate", "wedge", "forms.build", ()),
    ("symloc.integrate", "exp_form_part", "forms.build", ()),
    ("symloc.integrate", "phi_reduced_integrand", "forms.build",
     ("forms.build_s", "integrate.integrand_s")),
    ("symloc.integrate", "_product_chunks", "integrate.nodegen",
     ("integrate.nodegen_s", "integrate.confirm_share")),
    ("symloc.integrate", "sgi_values", "integrate.sgi", ("integrate.sgi_s",)),
    ("symloc.integrate", "integrate_over_Mr", "integrate.driver",
     ("integrate.driver_s", "integrate.requests", "integrate.nodes", "integrate.levels",
      "integrate.confirm_share", "integrate.ns_per_node")),
    ("symloc.integrate", "basic_integral", "integrate.request", ()),
    ("symloc.analysis", "basic_integral", "integrate.request", ("analysis.bi_calls",)),
    ("symloc.integrate", "combine_terms", "kernels.combine", ("kernels.combine_s",)),
    ("symloc.integrate", "kahan_wsum", "kernels.reduce", ("kernels.reduce_s",)),
    ("symloc.analysis", "fit_poly_plus_tail", "analysis.fit", ("analysis.fit_s",)),
    ("symloc.critical", "find_critical_points", "critical.search",
     ("critical.search_s", "critical.converged_share")),
    ("symloc.analysis", "find_critical_points", "critical.search", ()),
    ("symloc.critical", "_sobol_seeds", "critical.seeds", ("critical.converged_share",)),
    ("symloc.reduced", "zero_level", "reduced.zero_level",
     ("reduced.zero_level_s", "reduced.level_nodes")),
    ("symloc.reduced", "kirwan_integral", "reduced.kirwan", ("reduced.kirwan_s",)),
)


class Tracer:
    def __init__(self):
        self.stack: list = []  # [name, child seconds] per open span
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.absent: list = []  # hooks whose target is gone
        self.absent_metrics: set = set()
        self._installed: list = []
        self._level_nodes: list | None = None  # per-level nodes of the open request

    def reset(self):
        for d in (self.calls, self.total_s, self.self_s, self.counts):
            d.clear()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, t0):
        dt = time.perf_counter() - t0
        name, child = self.stack.pop()
        self.calls[name] += 1
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        if self.stack:
            self.stack[-1][1] += dt

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(t0)

        return wrapper

    # -- hooks with counts ---------------------------------------------------

    def _wrap(self, module, attr, name, fn):
        if attr == "_product_chunks":
            return self._chunk_generator(name, fn)
        if attr == "_sobol_seeds":  # counted only: its time stays in the search
            return self._observe(fn, lambda pts: self._add("critical.seeds", len(pts)))
        timed = self._span(name, fn)
        if attr == "phi_reduced_integrand":
            return self._integrand_factory(timed)
        if attr == "integrate_over_Mr":
            return self._driver(timed)
        if attr == "basic_integral" and module == "symloc.analysis":
            return self._observe(timed, lambda _: self._add("analysis.bi_calls", 1))
        if attr == "find_critical_points":
            return self._observe(timed, lambda comps: self._add(
                "critical.converged", sum(c.n_converged for c in comps)))
        if attr == "zero_level":
            return self._observe(timed, lambda lv: self._add(
                "reduced.level_nodes", lv.n_nodes))
        return timed

    def _add(self, counter, amount):
        self.counts[counter] += amount

    def _observe(self, fn, on_result):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            on_result(out)
            return out

        return observed

    def _integrand_factory(self, timed_factory):
        @functools.wraps(timed_factory)
        def factory(*args, **kwargs):
            integrand = timed_factory(*args, **kwargs)
            # functools.wraps copies the function's __dict__, which carries
            # the _damp_profile the radial driver reads to place its panels.
            traced = self._span("integrate.integrand", integrand)
            profile = getattr(integrand, "_damp_profile", None)
            if getattr(traced, "_damp_profile", None) is not profile:
                raise RuntimeError("traced integrand lost its _damp_profile")
            return traced

        return factory

    def _chunk_generator(self, name, gen_fn):
        @functools.wraps(gen_fn)
        def chunks(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            record = self._level_nodes  # one call is one refinement level
            if record is not None:
                record.append(0)
            while True:
                t0 = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(t0)
                if record is not None:
                    record[-1] += len(item[1])
                yield item

        return chunks

    def _driver(self, timed):
        @functools.wraps(timed)
        def driver(*args, **kwargs):
            outer, self._level_nodes = self._level_nodes, []
            try:
                res = timed(*args, **kwargs)
                levels = self._level_nodes
            finally:
                self._level_nodes = outer
            self.counts["integrate.nodes"] += res.n_nodes
            self.counts["integrate.levels"] += res.level + 1
            if levels and sum(levels) == res.n_nodes:
                self.counts["integrate.confirm_nodes"] += levels[-1]
                self.counts["integrate.leveled_nodes"] += res.n_nodes
            return res

        return driver

    # -- install -------------------------------------------------------------

    def install(self):
        for module, path, name, feeds in HOOKS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module}.{path}")
                self.absent_metrics.update(feeds)
                continue
            setattr(owner, attr, self._wrap(module, attr, name, fn))
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers of everything traced since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts
        nodes = n["integrate.nodes"]
        busy = sum(v for k, v in s.items()
                   if k.split(".")[0] in ("integrate", "fields", "forms", "kernels"))
        return {
            "fields.eval_s": s["fields.eval"],
            "fields.eval_calls": c["fields.eval"],
            "forms.eval_terms_s": s["forms.eval_terms"],
            "forms.build_s": s["forms.build"],
            "integrate.nodegen_s": s["integrate.nodegen"],
            "integrate.integrand_s": s["integrate.integrand"],
            "integrate.sgi_s": s["integrate.sgi"],
            "integrate.driver_s": s["integrate.driver"],
            "kernels.combine_s": s["kernels.combine"],
            "kernels.reduce_s": s["kernels.reduce"],
            "integrate.requests": c["integrate.driver"],
            "integrate.nodes": nodes,
            "integrate.levels": n["integrate.levels"],
            "integrate.confirm_share": _ratio(n["integrate.confirm_nodes"],
                                              n["integrate.leveled_nodes"]),
            "integrate.ns_per_node": _ratio(1e9 * busy, nodes),
            "analysis.fit_s": s["analysis.fit"],
            "analysis.bi_calls": n["analysis.bi_calls"],
            "critical.search_s": s["critical.search"],
            "critical.converged_share": _ratio(n["critical.converged"],
                                               n["critical.seeds"]),
            "reduced.zero_level_s": s["reduced.zero_level"],
            "reduced.kirwan_s": s["reduced.kirwan"],
            "reduced.level_nodes": n["reduced.level_nodes"],
        }

    def spans(self) -> dict:
        return {k: {"calls": self.calls[k], "total_s": self.total_s[k],
                    "self_s": self.self_s[k]} for k in sorted(self.calls)}


def _ratio(num, den):
    return num / den if den else 0.0
