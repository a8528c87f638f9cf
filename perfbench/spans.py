"""Spans around the package's public functions, recorded from outside the package.

The package modules bind names with ``from .x import y``, so a function is
looked up in many places.  ``Tracer.install`` replaces the original object
wherever an ``epmgames`` module (or the package itself) holds it, and
``Tracer.remove`` puts every original back.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, post, counts]``: ``post`` is the
time spent after ``end`` reading counters off the call's arguments and
result, which is charged to tracing, not to the parent's self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _lp_counts(args, kwargs, result):
    A = kwargs["A"] if "A" in kwargs else args[1]
    return {
        "rows": len(A),
        "cols": len(A[0]) if len(A) else 0,
        "nnz": sum(1 for row in A for v in row if v != 0),
        "max_bits": max((max(v.numerator.bit_length(), v.denominator.bit_length())
                         for v in result.x), default=0),
    }


def _seq_counts(args, kwargs, result):
    return {"seqs": sum(result.extras["seqs"])}


def _aux_counts(args, kwargs, result):
    stats = result.stats
    return {"nodes": stats.nodes, "memo_hits": stats.memo_hits,
            "assignments": stats.assignments}


def _monitoring_counts(args, kwargs, result):
    return {"histories": result.num_actions ** result.horizon}


def _batch_counts(args, kwargs, result):
    return {"samples": len(result.alpha_indices)}


# (module, function, counter reader, counter names); each also gets self_s and calls.
TRACED = (
    ("core", "build_monitoring", _monitoring_counts, ("histories",)),
    ("core", "check_perfect_recall", None, ()),
    ("core", "check_epm", None, ()),
    ("core", "observation_stage", None, ()),
    ("lp", "solve_standard_lp", _lp_counts, ("rows", "cols", "nnz", "max_bits")),
    ("lp", "solve_matrix_game", None, ()),
    ("solver", "sequence_form_value", _seq_counts, ("seqs",)),
    ("solver", "best_response", None, ()),
    ("solver", "brute_force_value", None, ()),
    ("solver", "fictitious_play", None, ()),
    ("solver", "normal_form", None, ()),
    ("reduction", "compare_values", None, ()),
    ("reduction", "build_aux_game", None, ()),
    ("reduction", "aux_value", _aux_counts, ("nodes", "memo_hits", "assignments")),
    ("strategy", "coupled_sample_batch", _batch_counts, ("samples",)),
    ("strategy", "payoff", None, ()),
    ("strategy", "strategy_distance", None, ()),
    ("strategy", "random_rational", None, ()),  # classmethod of BehavioralStrategy
    ("strategy", "grids_for", None, ()),
    ("cli", "build_game", None, ()),
    ("cli", "main", None, ()),
)

# Counters combined by maximum over calls; the rest are summed.
MAX_COUNTERS = {"max_bits"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id of the operation running now
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
                span[5] = perf_counter() - span[2]
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module, func, counter, _ in TRACED:
            name = f"{module}.{func}"
            if func == "random_rational":
                cls = package.strategy.BehavioralStrategy
                original = cls.__dict__[func]
                self._restore.append((cls, func, original))
                setattr(cls, func, classmethod(self._wrap(name, original.__func__, counter)))
                continue
            original = getattr(getattr(package, module), func)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-function self time, call count and summed (or max) counters."""
        out: dict[str, float] = {}
        for module, func, _, counters in TRACED:
            for key in ("self_s", "calls") + counters:
                out[f"{module}.{func}.{key}"] = 0
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op, post, counts in self.spans:
            if parent is not None:
                covered[parent] += end - start + post
        for (name, start, end, parent, op, post, counts), child in zip(self.spans, covered):
            out[f"{name}.self_s"] += end - start - child
            out[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                metric = f"{name}.{key}"
                out[metric] = max(out[metric], value) if key in MAX_COUNTERS else out[metric] + value
        return out

    def dump(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "op": op,
                 "counter_s": post, "counts": counts}
                for name, start, end, parent, op, post, counts in self.spans]
