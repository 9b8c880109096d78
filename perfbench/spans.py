"""Span recording around the public functions of each monobase layer.

The traced run replaces every module binding of the functions in TRACED with a
wrapper that records one span per call: (function, start, end, parent span,
item id, note).  Rebinding every module that holds the function, not just the
defining one, attributes nested calls such as ``report.factor_integer`` inside
``irreducibility_check`` to the right layer.  Spans stay in memory until the
run ends; the program's own files are not touched.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

RAISED = "raised"


def _cofactor_bits(fac) -> int:
    return fac.cofactor.bit_length() if fac.cofactor > 1 else 0


# (module, function, note): the note reduces a return value to what the
# per-layer metrics count; None records nothing.
TRACED = (
    ("discriminant", "quadrinomial_discriminant", None),
    ("integer_core", "factor_integer", _cofactor_bits),
    ("integer_core", "is_prime", None),
    ("integer_core", "squarefree_status", None),
    ("polynomials", "factor_mod_p", None),
    ("index_criteria", "prime_divides_index", lambda verdict: verdict.source),
    ("dedekind", "dedekind_divides_index", None),
    ("report", "irreducibility_check", lambda status: status.status),
    ("report", "analyze", lambda report: report.index.kind + ":" + report.monogenic),
    ("report", "cross_check_with_dedekind", None),
    ("families", "search_family", None),
)
NAMES = tuple(f"{module}.{function}" for module, function, _ in TRACED)


class Recorder:
    """In-memory span store, one array per field, indexed by span id (call
    order).  ``item`` is set by the caller before each item."""

    def __init__(self) -> None:
        self.item = -1
        self.fids = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.items = array("q")
        self.notes: list = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.notes)

    def wrap(self, fid: int, fn, note):
        fids, starts, ends = self.fids, self.starts, self.ends
        parents, items, notes = self.parents, self.items, self.notes
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(notes)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            notes.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                notes[idx] = RAISED
                raise
            ends[idx] = clock()
            stack.pop()
            if note is not None:
                notes[idx] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines, one per call, in call order."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tfunction\tstart_s\tend_s\tparent\titem\tnote\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{NAMES[self.fids[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                    f"{self.parents[i]}\t{self.items[i]}\t{self.notes[i]}\n"
                )


class Bindings:
    """Every module attribute that holds a traced function, with the wrapper
    that replaces it.  Use as a context manager, as often as needed: inside,
    calls are recorded; on exit the originals are back."""

    def __init__(self, recorder: Recorder) -> None:
        wrappers = {}
        for fid, (module, function, note) in enumerate(TRACED):
            fn = getattr(sys.modules[f"monobase.{module}"], function)
            wrappers[id(fn)] = (fn, recorder.wrap(fid, fn, note))
        self._swaps = []
        for mod in list(sys.modules.values()):
            for name, value in list(getattr(mod, "__dict__", {}).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swaps.append((mod, name, value, hit[1]))

    def __enter__(self) -> "Bindings":
        for mod, name, _, wrapper in self._swaps:
            setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original, _ in self._swaps:
            setattr(mod, name, original)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    notes: Counter = field(default_factory=Counter)


def summarize(rec: Recorder) -> dict[str, LayerStats]:
    """Calls, self time (duration minus child spans) and note counts per
    traced function."""
    durations = [end - start for start, end in zip(rec.starts, rec.ends)]
    self_time = durations[:]
    for i, parent in enumerate(rec.parents):
        if parent >= 0:
            self_time[parent] -= durations[i]
    stats = {name: LayerStats() for name in NAMES}
    for i, fid in enumerate(rec.fids):
        s = stats[NAMES[fid]]
        s.calls += 1
        s.self_s += self_time[i]
        if rec.notes[i] is not None:
            s.notes[rec.notes[i]] += 1
    return stats
