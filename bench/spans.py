"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each public entry point of a layer with a
wrapper that records a span (name, op, parent, start, end), under every
name the function is looked up by: a module-level function is patched in
each ``overt`` module that binds it (``plot`` imports ``decide_located_pair``
by name, ``located`` imports ``derive_cover``), a method on its class and on
every subclass that overrides it.  Calls between layers therefore nest, and
each span belongs to the op that was running.  ``uninstall`` puts the
originals back, so untraced ops run the library untouched.

Very hot predicates (``is_loc_model``, ``compare_distance``,
``candidate_instances``) are counted, not spanned.  Spans stay in memory
and are written out once, at the end of the run.  An entry point the
library no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
import weakref
from collections import Counter

MODULES = ("cli", "setspec", "plot", "located", "reals", "metric", "kernel",
           "vietoris", "intervals", "trees")

# (module, class or None, attribute, span name)
SPANNED = [
    ("cli", None, "main", "cli.main"),
    ("setspec", None, "parse_set_spec", "setspec.parse"),
    ("plot", None, "render_plot", "plot.render_plot"),
    ("located", "EpsilonNetFamily", "net", "located.net"),
    ("located", "EpsilonNetFamily", "net_index", "located.net_index"),
    ("located", None, "decide_located_pair", "located.dichotomy"),
    ("located", None, "distance_to_set", "located.distance_to_set"),
    ("located", None, "hausdorff_distance", "located.hausdorff_distance"),
    ("located", None, "net_from_located", "located.net_from_located"),
    ("located", None, "tvd_check", "located.tvd_check"),
    ("reals", None, "sqrt_bounds", "reals.sqrt_bounds"),
    ("metric", "BallBase", "axiom_instances", "metric.axiom_instances"),
    ("kernel", None, "derive_cover", "kernel.derive_cover"),
    ("kernel", None, "sublocale_cover", "kernel.sublocale_cover"),
    ("kernel", None, "check_derivation", "kernel.check_derivation"),
    ("vietoris", None, "enumerate_models", "vietoris.enumerate_models"),
    ("vietoris", None, "term_leq", "vietoris.term_leq"),
    ("vietoris", None, "normalize", "vietoris.normalize"),
    ("intervals", None, "finite_cover_decide", "intervals.finite_cover_decide"),
    ("trees", None, "check_spread_mon", "trees.check_spread_mon"),
]

COUNTED = [
    ("metric", "MetricSpace", "compare_distance", "metric.compare_distance"),
    ("kernel", "Base", "candidate_instances", "kernel.candidate_instances"),
    ("vietoris", None, "is_loc_model", "vietoris.is_loc_model"),
]

_KERNEL_SEARCH = ("kernel.derive_cover", "kernel.sublocale_cover")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, op, parent index or None, start_ns, end_ns]
        self.stack: list = []
        self.counts: Counter = Counter()  # op-phase counters
        self.op = ("op", 0)
        self.filters: list = []
        self._tagged = weakref.WeakKeyDictionary()
        self._patches: list = []
        self._mods = {m: importlib.import_module(f"overt.{m}") for m in MODULES}

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else None, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None and self.op[0] == "op":
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op[0] == "op":
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self.stack)

    # -- after hooks: work counts measured where the work happens ------------

    def _after(self, name):
        c = self.counts
        if name == "located.net":
            return lambda a, k, r: c.update({"located.net.points": len(r)})
        if name == "located.dichotomy":
            def dichotomy(a, k, r):
                S = a[0]
                if getattr(S, "distance_compare", None) is not None or getattr(S, "pos_exact", None) is not None:
                    c["located.dichotomy.exact"] += 1
            return dichotomy
        if name in ("located.distance_to_set", "located.hausdorff_distance"):
            tag = "located.distance" if name == "located.distance_to_set" else "located.hausdorff"

            def remember(a, k, r):
                try:
                    self._tagged[r] = tag
                except TypeError:
                    pass
            return remember
        if name == "located.net_from_located":
            return lambda a, k, r: c.update({"located.net_from_located.kept": len(r)})
        if name == "metric.axiom_instances":
            def families(a, k, r):
                filt = self.filters[-1] if self.filters else None
                c["metric.axiom_instances.families"] += len(r)
                u = a[1] if len(a) > 1 else k.get("u")
                c["metric.axiom_instances.used"] += sum(
                    1 for axiom, fam in r if filt is None or filt(axiom, u, fam))
            return families
        if name in _KERNEL_SEARCH:
            def search(a, k, r):
                if self._open(_KERNEL_SEARCH):
                    return
                c["kernel.search.outer"] += 1
                if r is None:
                    c["kernel.search.unknown"] += 1
                else:
                    c["kernel.derivation.nodes"] += sum(1 for _ in r.nodes())
            return search
        if name == "vietoris.enumerate_models":
            return lambda a, k, r: c.update({"vietoris.models": len(r)})
        if name == "trees.check_spread_mon":
            return lambda a, k, r: c.update({"trees.nodes_checked": r.checked})
        if name == "plot.render_plot":
            def pixels(a, k, r):
                spec = a[0] if a else k.get("spec")
                c["plot.pixels"] += spec.width * spec.height
            return pixels
        return None

    def _with_filter(self, fn):
        """Keep the axiom filter of the innermost search visible to the
        axiom_instances hook, which counts the families it lets through."""
        sig = inspect.signature(fn)

        def inner(*args, **kwargs):
            try:
                filt = sig.bind(*args, **kwargs).arguments.get("axiom_filter")
            except TypeError:
                filt = None
            self.filters.append(filt)
            try:
                return fn(*args, **kwargs)
            finally:
                self.filters.pop()

        return inner

    # -- installation ----------------------------------------------------------

    def _targets(self, mod, cls_name, attr):
        """(namespace, attribute, original) for every place to patch."""
        if cls_name is None:
            fn = getattr(self._mods[mod], attr, None)
            if fn is None:
                return []
            return [(m, attr, fn) for m in self._mods.values() if getattr(m, attr, None) is fn]
        base = getattr(self._mods[mod], cls_name, None)
        if base is None:
            return []
        classes = {base}
        for m in self._mods.values():
            for obj in vars(m).values():
                if isinstance(obj, type) and issubclass(obj, base):
                    classes.add(obj)
        return [(c, attr, c.__dict__[attr]) for c in sorted(classes, key=lambda c: c.__qualname__)
                if attr in c.__dict__]

    def install(self):
        patches = []
        for mod, cls_name, attr, name in SPANNED:
            for ns, a, fn in self._targets(mod, cls_name, attr):
                inner = self._with_filter(fn) if name in _KERNEL_SEARCH else fn
                patches.append((ns, a, fn, self._span(name, inner, self._after(name))))
        for mod, cls_name, attr, name in COUNTED:
            for ns, a, fn in self._targets(mod, cls_name, attr):
                patches.append((ns, a, fn, self._count(name, fn)))
        DR = getattr(self._mods["reals"], "DedekindReal", None)
        if DR is not None and "approximate" in DR.__dict__:
            orig = DR.__dict__["approximate"]
            tagged = {t: self._span(t, orig) for t in ("located.distance", "located.hausdorff")}

            def approximate(real, *args, **kwargs):
                kind = self._tagged.get(real)
                if kind is None:
                    return orig(real, *args, **kwargs)
                return tagged[kind](real, *args, **kwargs)

            patches.append((DR, "approximate", orig, self._span("reals.approximate", approximate)))
        for ns, a, _, new in patches:
            setattr(ns, a, new)
        self._patches = patches

    def uninstall(self):
        for ns, a, orig, _ in reversed(self._patches):
            setattr(ns, a, orig)
        self._patches = []

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        n = len(spans)
        child_ns = [0] * n
        has_net_child = [False] * n
        for rec in spans:
            p = rec[2]
            if p is not None:
                child_ns[p] += rec[4] - rec[3]
                if rec[0] == "located.net":
                    has_net_child[p] = True
        calls, outer_ns, self_ns = Counter(), Counter(), Counter()
        probes = builds = 0
        for i, (name, op, parent, start, end) in enumerate(spans):
            key = name if op[0] == "op" else f"{name}@{op[0]}"
            calls[key] += 1
            self_ns[key] += end - start - child_ns[i]
            p, nested = parent, False
            while p is not None:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][2]
            if not nested:
                outer_ns[key] += end - start
            if op[0] != "op":
                continue
            if name == "located.dichotomy" and parent is not None and spans[parent][0] == "located.net_from_located":
                probes += 1
            if name == "located.net_index" and has_net_child[i]:
                builds += 1
        c = self.counts

        def s(key):
            return outer_ns[key] / 1e9

        def frac(a, b):
            return a / b if b else 0.0

        return {
            "located.net.calls": calls["located.net"],
            "located.net.points": c["located.net.points"],
            "located.net.s": s("located.net"),
            "located.net_index.builds": builds,
            "located.net_index.s": s("located.net_index"),
            "located.dichotomy.calls": calls["located.dichotomy"],
            "located.dichotomy.exact_frac": frac(c["located.dichotomy.exact"], calls["located.dichotomy"]),
            "located.dichotomy.s": s("located.dichotomy"),
            "located.distance.s": s("located.distance"),
            "located.hausdorff.s": s("located.hausdorff"),
            "located.net_from_located.probes": probes,
            "located.net_from_located.kept_frac": frac(c["located.net_from_located.kept"], probes),
            "located.tvd_check.s": s("located.tvd_check"),
            "reals.approximate.calls": calls["reals.approximate"],
            "reals.approximate.self_s": self_ns["reals.approximate"] / 1e9,
            "reals.sqrt_bounds.calls": calls["reals.sqrt_bounds"],
            "reals.sqrt_bounds.s": s("reals.sqrt_bounds"),
            "metric.axiom_instances.calls": calls["metric.axiom_instances"],
            "metric.axiom_instances.families": c["metric.axiom_instances.families"],
            "metric.axiom_instances.s": s("metric.axiom_instances"),
            "metric.instances_used_frac": frac(c["metric.axiom_instances.used"],
                                               c["metric.axiom_instances.families"]),
            "metric.compare_distance.calls": c["metric.compare_distance"],
            "kernel.derive_cover.calls": calls["kernel.derive_cover"],
            "kernel.derive_cover.s": s("kernel.derive_cover"),
            "kernel.sublocale_cover.s": s("kernel.sublocale_cover"),
            "kernel.candidate_instances.calls": c["kernel.candidate_instances"],
            "kernel.check_derivation.s": s("kernel.check_derivation@check"),
            "kernel.derivation.nodes": c["kernel.derivation.nodes"],
            "kernel.unknown_frac": frac(c["kernel.search.unknown"], c["kernel.search.outer"]),
            "vietoris.enumerate_models.calls": calls["vietoris.enumerate_models"],
            "vietoris.enumerate_models.s": s("vietoris.enumerate_models"),
            "vietoris.is_loc_model.calls": c["vietoris.is_loc_model"],
            "vietoris.models_per_check": frac(c["vietoris.models"], c["vietoris.is_loc_model"]),
            "vietoris.term_leq.s": s("vietoris.term_leq"),
            "vietoris.normalize.s": s("vietoris.normalize"),
            "intervals.finite_cover_decide.calls": calls["intervals.finite_cover_decide"],
            "intervals.finite_cover_decide.s": s("intervals.finite_cover_decide"),
            "trees.check_spread_mon.s": s("trees.check_spread_mon"),
            "trees.nodes_checked": c["trees.nodes_checked"],
            "plot.render_plot.s": s("plot.render_plot"),
            "plot.pixels": c["plot.pixels"],
            "setspec.parse.s": s("setspec.parse"),
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_ns["cli.main"] / 1e9,
        }

    def write(self, path):
        """All spans as CSV: op, phase, name, parent span, start and end (ns)."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span,phase,op,name,parent,start_ns,end_ns\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{op[0]},{op[1]},{name},{'' if parent is None else parent},{start},{end}\n")

