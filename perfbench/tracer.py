"""Span tracer that wraps oafinder's public functions from the outside.

``Tracer.patched()`` replaces every public function, and every public method
of a public class, defined in the traced modules with a timing wrapper. It
patches each oafinder module namespace that binds the function, since
modules import names directly (``crawl`` binds ``match_full_text``, ``cli``
binds ``load_records``), and restores the originals on exit. Nothing is
changed inside the program.

Spans (name, start, end, parent) are kept in flat arrays while the run lasts
and written out once at its end. A span's self time is its duration minus
the time its traced children cover, so ``parse_html`` called from both
``extract_text`` and ``extract_candidate_links`` is charged to itself only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Module path under ``oafinder`` -> layer prefix of its span names.
TRACED_MODULES = {
    "cli": "cli",
    "corpus": "corpus",
    "records": "records",
    "robot.crawl": "crawl",
    "robot.extract": "extract",
    "robot.match": "match",
    "robot.urls": "urls",
    "metrics": "metrics",
    "stats": "stats",
}


class Tracer:
    """Records one span per call of a wrapped function.

    ``probes`` maps a span name to a predicate on the call's return value;
    calls for which it holds are counted as probe hits (for example fetches
    that returned an HTML page).
    """

    def __init__(self, probes=None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self._stack = [-1]
        self.probes = dict(probes or {})

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts = self.name, self.parent, self.start
        ends, hits, stack = self.end, self.hit, self._stack
        probe = self.probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            hits.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None and probe(result):
                hits[i] = 1
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap the traced modules' public functions while the block runs."""
        functions = {}  # id(original) -> (original, wrapper)
        methods = []  # (class, attribute, original, wrapper)
        for path, layer in TRACED_MODULES.items():
            module = importlib.import_module(f"oafinder.{path}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if inspect.isfunction(obj):
                    functions[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for mname, method in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(method):
                            methods.append((obj, mname, method, self._wrap(
                                f"{layer}.{obj.__name__}.{mname}", method)))
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "oafinder" and not modname.startswith("oafinder."):
                continue
            for attr, obj in list(vars(module).items()):
                pair = functions.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    undo.append((module, attr, obj))
        for cls, mname, method, wrapper in methods:
            setattr(cls, mname, wrapper)
            undo.append((cls, mname, method))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def mark(self) -> int:
        """Index of the next span; spans [mark_a, mark_b) form one phase."""
        return len(self.name)

    def aggregate(self, lo: int, hi: int):
        """(calls, self seconds, probe hits) per span name over spans [lo, hi)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        hits: Counter = Counter()
        child = [0.0] * (hi - lo)
        # A child span always has a higher index than its parent, so walking
        # backwards sees every child before its parent.
        for i in range(hi - 1, lo - 1, -1):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i - lo]
            hits[name] += self.hit[i]
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur
        return calls, self_s, hits

    def dump(self, path) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\n")
