"""Layer probes, installed from outside the program.

Each probed public function is wrapped once and the wrapper is bound in every
module namespace of the package that holds the original, so a call from
inside another module (`corpus.find_contraction`, `markov.point_preimages`,
...) is counted too. A name that no longer exists is reported as absent
instead of failing, so the benchmark outlives refactors of the program.

A span records calls, total time and self time (its time minus the time of
probed calls made inside it). Outcome ratios count useful results over
calls. Fraction operation counts come from the standard profiler in a
separate pass, because profiling distorts every span time.
"""

from __future__ import annotations

import fractions
import sys
import time
from functools import update_wrapper

PACKAGE = "backlim"

SPANS = {
    "plmap": ("point_preimages", "compose", "image", "preimage"),
    "orbits": ("periodic_orbits",),
    "markov": ("markov_partition", "check_cycle_of_intervals", "exceptional_set"),
    "backlimits": (
        "find_exact_tail",
        "find_contraction",
        "cycle_membership",
        "avoided_region",
        "analyze_map",
        "orbit_targets",
        "salpha_enclosure",
        "beta_upper",
        "certified_period_set",
        "verify_certificate",
    ),
}
# span -> (ratio name, test for a useful result)
OUTCOMES = {
    "backlimits.find_exact_tail": ("hit_ratio", lambda out: out is not None),
    "backlimits.find_contraction": ("hit_ratio", lambda out: out is not None),
    "backlimits.cycle_membership": ("hit_ratio", lambda out: out is not None),
    "backlimits.avoided_region": ("accept_ratio", lambda out: type(out).__name__ == "AvoidanceCert"),
}
CACHED = ("salpha_enclosure", "analyze_map", "orbit_targets")
FRACTION_OPS = {
    "exactnum.fraction_cmp": ("_richcmp", "__eq__"),
    "exactnum.fraction_arith": ("_add", "_sub", "_mul", "_div"),
    "exactnum.fraction_hash": ("__hash__",),
    "exactnum.fraction_new": ("__new__",),
}


def package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def replace_everywhere(orig, new):
    """Rebind every package-level name that refers to `orig` to `new`;
    returns a function that undoes it."""
    bound = []
    for mod in package_modules().values():
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is orig:
                namespace[key] = new
                bound.append((namespace, key))

    def undo() -> None:
        for namespace, key in bound:
            namespace[key] = orig

    return undo


class _Span:
    __slots__ = ("calls", "self_s", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.useful = 0


class Tracer:
    """Spans and counts for one pass; `install` before it, `uninstall` after."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self.absent: list[str] = []
        self.intervalset_of = [0]
        self.tree = {"built": 0, "levels": 0, "nodes": 0, "truncated_levels": 0, "expand_s": 0.0}
        self._cached: dict[str, object] = {}
        self._stack = [0.0]
        self._undo: list = []

    def install(self) -> None:
        modules = package_modules()
        for layer, names in SPANS.items():
            home = modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                orig = getattr(home, name, None)
                if not callable(orig):
                    self.absent.append(key)
                    continue
                if name in CACHED:
                    self._cached[name] = orig
                self._undo.append(replace_everywhere(orig, self._span(key, orig)))
        self._probe_intervalset_of(modules.get(f"{PACKAGE}.exactnum"))
        self._probe_tree(modules.get(f"{PACKAGE}.backlimits"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _span(self, key: str, fn):
        stat = self.spans[key] = _Span()
        stack = self._stack
        clock = time.perf_counter
        useful = OUTCOMES.get(key, (None, None))[1]

        def probe(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
            if useful is not None and useful(out):
                stat.useful += 1
            return out

        return update_wrapper(probe, fn)

    def _probe_intervalset_of(self, exactnum) -> None:
        cls = getattr(exactnum, "IntervalSet", None)
        raw = vars(cls).get("of") if isinstance(cls, type) else None
        if not isinstance(raw, staticmethod):
            self.absent.append("exactnum.intervalset_of")
            self.intervalset_of = None
            return
        fn = raw.__func__
        count = self.intervalset_of

        def of(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        cls.of = staticmethod(of)
        self._undo.append(lambda: setattr(cls, "of", raw))

    def _probe_tree(self, backlimits) -> None:
        """Count the levels every BackwardTree expands, via a subclass bound
        wherever the class is; expansion time includes the probed calls it
        makes (point_preimages)."""
        base = getattr(backlimits, "BackwardTree", None)
        if not (isinstance(base, type) and callable(getattr(base, "ensure_depth", None))):
            self.absent.append("backlimits.tree")
            self.tree = None
            return
        tree = self.tree
        stack = self._stack
        clock = time.perf_counter

        class ProbedTree(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tree["built"] += 1
                if not (isinstance(getattr(self, "levels", None), list)
                        and isinstance(getattr(self, "truncated", None), list)):
                    tree["unreadable"] = True

            def ensure_depth(self, depth):
                if "unreadable" in tree or not isinstance(getattr(self, "levels", None), list):
                    return super().ensure_depth(depth)
                before = len(self.levels)
                stack.append(0.0)
                start = clock()
                try:
                    return super().ensure_depth(depth)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1] += elapsed
                    grown = self.levels[before:]
                    if grown:
                        tree["levels"] += len(grown)
                        tree["nodes"] += sum(len(level) for level in grown)
                        tree["truncated_levels"] += sum(bool(t) for t in self.truncated[before:])
                        tree["expand_s"] += elapsed

        self._undo.append(replace_everywhere(base, ProbedTree))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function metrics, by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key, stat in self.spans.items():
            out[f"{key}.calls"] = (stat.calls, "count")
            out[f"{key}.self_ms"] = (stat.self_s * 1000, "ms")
            if key in OUTCOMES:
                ratio = stat.useful / stat.calls if stat.calls else 0.0
                out[f"{key}.{OUTCOMES[key][0]}"] = (ratio, "ratio")
        if self.intervalset_of is not None:
            out["exactnum.intervalset_of.calls"] = (self.intervalset_of[0], "count")
        return out

    def internals(self) -> dict[str, tuple[float, str]]:
        """Metrics read from program internals that refactors may remove:
        tree levels and the module-level caches."""
        out: dict[str, tuple[float, str]] = {}
        if self.tree is not None and "unreadable" in self.tree:
            self.absent.append("backlimits.tree")
        elif self.tree is not None:
            for key in ("built", "levels", "nodes", "truncated_levels"):
                out[f"backlimits.tree.{key}"] = (self.tree[key], "count")
            out["backlimits.tree.expand_ms"] = (self.tree["expand_s"] * 1000, "ms")
        for name in CACHED:
            info = getattr(self._cached.get(name), "cache_info", None)
            if info is None:
                self.absent.append(f"backlimits.cache.{name}")
                continue
            got = info()
            total = got.hits + got.misses
            out[f"backlimits.cache.{name}.hit_ratio"] = (got.hits / total if total else 0.0, "ratio")
        return out


def fraction_counts(profile) -> dict[str, tuple[float, str]]:
    """Exact counts of Fraction operations seen by a cProfile.Profile."""
    calls: dict[str, int] = {}
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str) and code.co_filename == fractions.__file__:
            calls[code.co_name] = calls.get(code.co_name, 0) + entry.callcount
    return {
        name: (sum(calls.get(op, 0) for op in ops), "count")
        for name, ops in FRACTION_OPS.items()
    }
