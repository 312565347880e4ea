"""Spans around the library's public functions, recorded from outside it.

``Tracer`` replaces every public function of every ``quditmbqc`` module with
a wrapper, in every module namespace that binds it (``match_pauli`` alone is
bound in five), and counts calls of chosen ``DimSpec`` methods on the class.
Spans stay in memory as (name, start, end, parent, run id) and are written
out once the run ends.  Leaving the ``with`` block restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List

PACKAGE = "quditmbqc"
COUNTED_METHODS = ("add", "neg", "mul", "char_phase")
# spans whose first argument is a StateVector: record its amplitude count
AMPS_SPANS = ("sim.apply", "sim.measure")


def _package_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))}


def public_functions() -> Dict[str, object]:
    """'<module>.<function>' -> function, for functions a module defines."""
    out = {}
    for name, mod in _package_modules().items():
        short = name[len(PACKAGE) + 1:]
        if not short:
            continue
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == name):
                out[f"{short}.{attr}"] = value
    return out


class Tracer:
    def __init__(self):
        self.spans: List[list] = []   # [name, start, end, parent, run_id]
        self.amps: Dict[str, int] = defaultdict(int)
        self.method_calls: Dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # --- installing -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, amps = self.spans, self._stack, self.amps
        clock = time.perf_counter
        count_amps = name in AMPS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.run_id])
            if count_amps:
                amps[name] += args[0].amps.size
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _count(self, name: str, method):
        calls = self.method_calls

        @functools.wraps(method)
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    def __enter__(self):
        targets = public_functions()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in targets.items()}
        for mod in _package_modules().values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and inspect.isfunction(value):
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, w)
        from quditmbqc.galois import DimSpec
        for meth in COUNTED_METHODS:
            orig = DimSpec.__dict__[meth]
            self._restore.append((DimSpec, meth, orig))
            setattr(DimSpec, meth, self._count(f"galois.{meth}", orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # --- reading ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def totals(self) -> Dict[str, dict]:
        """name -> {calls, self_s, inclusive_s} over all spans."""
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            t = out[span[0]]
            t["calls"] += 1
            t["self_s"] += self_s
            t["inclusive_s"] += span[2] - span[1]
        return out

    def descendant_time(self, root: str, prefix: str) -> float:
        """Time in spans named prefix* that run under a span named root,
        counting only the outermost such span on each path."""
        n = len(self.spans)
        under = [False] * n     # has an ancestor named root
        counted = [False] * n   # has an ancestor already counted
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] == root
                counted[i] = counted[parent] or (
                    under[parent] and self.spans[parent][0].startswith(prefix))
            if under[i] and not counted[i] and name.startswith(prefix):
                total += end - start
        return total

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run"],
                       "names": names,
                       "spans": [[index[s[0]], round(s[1], 9),
                                  round(s[2], 9), s[3], s[4]]
                                 for s in self.spans]}, fh)
