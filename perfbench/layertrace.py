"""Outside-in tracing of the osdd layers.

The tracer wraps public functions of the package from the outside and
rebinds every module attribute that still names the original, so calls
made through ``module.name`` and through names imported with ``from ...
import`` both go through the wrapper.  Methods are wrapped on their class.

Each wrapper opens a span on a stack.  A span's self time is its duration
minus the time covered by the spans it opened; inclusive time is counted
only at the outermost entry of a recursive function, so nested calls of
``normalize`` are not summed twice.  Per-function counters stay in memory;
the worker reads them with :meth:`Tracer.snapshot` and writes them out
when it ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) pairs for functions; (module, class, method) for methods.
# The third element of a function entry picks the key whose distinct values
# count as distinct work, or None when distinctness is not tracked.
FUNCTIONS = [
    ("constraints", "satisfiable", lambda f: f.atoms),
    ("constraints", "close", None),
    ("diagram", "make_node", None),  # distinct results, see _wrap
    ("diagram", "normalize", lambda d, path=None: (d, None if path is None else path.atoms)),
    ("diagram", "combine", lambda a, b, op, _memo=None: (frozenset((a, b)), op)),
    ("diagram", "apply_constraint", lambda d, beta: (d, beta)),
    ("diagram", "to_proper", lambda d, max_rounds=None: d),
    ("engine", "transform", None),
    ("exact", "measurability", None),
    ("exact", "exact_probability", None),
    ("exact", "exact_probability_measurable", None),
    ("sampling", "lw_sample", None),
    ("program", "parse_program", None),
]
METHODS = [
    ("engine", "EvalSession", "query"),
    ("concrete", "WorldEvaluator", "holds"),
]
DISTINCT_RESULT = {"diagram.make_node"}


class Stat:
    __slots__ = ("calls", "self_s", "inclusive_s", "active", "keys")

    def __init__(self, distinct: bool):
        self.calls = 0
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.active = 0
        self.keys = set() if distinct else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # child time covered, per open span

    def install(self, package: str = "osdd") -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for mod_name, attr, key_fn in FUNCTIONS:
            original = getattr(modules[f"{package}.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, key_fn)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(modules[f"{package}.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(f"{mod_name}.{cls_name}.{attr}", original, None))

    def _wrap(self, name, fn, key_fn):
        distinct_result = name in DISTINCT_RESULT
        stat = self.stats[name] = Stat(distinct_result or key_fn is not None)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                stat.keys.add(key_fn(*args, **kwargs))
            stat.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat.active -= 1
                stat.calls += 1
                stat.self_s += duration - stack.pop()
                if stat.active == 0:
                    stat.inclusive_s += duration
                if stack:
                    stack[-1] += duration
            if distinct_result:
                stat.keys.add(id(result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def snapshot(self) -> dict:
        """Counters so far, as plain numbers, keyed by function name."""
        return {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "inclusive_s": s.inclusive_s,
                "distinct": len(s.keys) if s.keys is not None else None,
            }
            for name, s in self.stats.items()
        }


def delta(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots."""
    out = {}
    for name, a in after.items():
        b = before[name]
        out[name] = {
            "calls": a["calls"] - b["calls"],
            "self_s": a["self_s"] - b["self_s"],
            "inclusive_s": a["inclusive_s"] - b["inclusive_s"],
            "distinct": None if a["distinct"] is None else a["distinct"] - b["distinct"],
        }
    return out


def add(total: dict, part: dict) -> dict:
    """Sum of two counter dicts of the shape :func:`delta` returns."""
    out = {name: dict(v) for name, v in total.items()}
    for name, p in part.items():
        t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "distinct": None})
        t["calls"] += p["calls"]
        t["self_s"] += p["self_s"]
        t["inclusive_s"] += p["inclusive_s"]
        if p["distinct"] is not None:
            t["distinct"] = (t["distinct"] or 0) + p["distinct"]
    return out
