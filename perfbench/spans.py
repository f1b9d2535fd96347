"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the exactmdp modules from outside the
package: nothing under ``src/`` changes.  Modules import kernels by name
(``from .exactarith import isolate_roots``), so a wrapper is bound under every
name in every ``exactmdp`` module that holds the original object, not only in
the defining module; otherwise internal calls would go uncounted.

A span holds name, start, end, parent span and CLI-call id.  A layer's self
time is its span's duration minus the time covered by its child spans.  The
high-frequency arithmetic kernels (mode "agg" below) are timed and counted
like the others but their individual spans are not kept, because a pass can
make hundreds of thousands of them; every other span stays in memory and is
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _emitted_bytes(tracer, args, kwargs, result):
    # cli.emit writes json.dumps(report, indent=2) plus a newline; the output
    # is ASCII, so characters are bytes
    tracer.add("cli.emit.bytes", len(json.dumps(args[0], indent=2)) + 1)


def _isolate_hits(tracer, args, kwargs, result):
    tracer.add("exactarith.isolate_roots.hits", 1 if result else 0)


def _partition_mdp(tracer, args, kwargs, result):
    tracer.mdps.add(_arg(args, kwargs, 0, "mdp"))


def _symbolic_levels(tracer, args, kwargs, result):
    tracer.add("partition.symbolic_value_iteration.horizons", _arg(args, kwargs, 1, "n_max"))
    tracer.add(
        "partition.symbolic_value_iteration.pieces",
        sum(len(level.pieces) for level in result),
    )


def _vi_horizons(tracer, args, kwargs, result):
    tracer.add("bellman.value_iteration.horizons", _arg(args, kwargs, 2, "n_max"))


def _turnpike_certificate(tracer, args, kwargs, result):
    tracer.add("turnpike.certificate_horizon.sum", result.certificate_horizon)
    tracer.add("turnpike.n_value.sum", result.n_value)


# (module, attribute, span name, mode, hook); mode is "span" (kept spans),
# "agg" (timed and counted, spans not kept) or "count" (calls only).
TARGETS = (
    ("exactarith", "poly_gcd", "exactarith.poly_gcd", "agg", None),
    ("exactarith", "RationalFunction.__add__", "exactarith.RationalFunction.arith", "agg", None),
    ("exactarith", "RationalFunction.__sub__", "exactarith.RationalFunction.arith", "agg", None),
    ("exactarith", "RationalFunction.__mul__", "exactarith.RationalFunction.arith", "agg", None),
    ("exactarith", "RationalFunction.__init__", "exactarith.RationalFunction.init", "agg", None),
    ("exactarith", "isolate_roots", "exactarith.isolate_roots", "span", _isolate_hits),
    ("exactarith", "count_roots_open", "exactarith.count_roots_open", "agg", None),
    ("exactarith", "sturm_chain", "exactarith.sturm_chain", "count", None),
    ("exactarith", "squarefree_part", "exactarith.squarefree_part", "count", None),
    ("exactarith", "value_rational_function", "exactarith.value_rational_function", "span", None),
    ("exactarith", "poly_det", "exactarith.poly_det", "agg", None),
    ("exactarith", "Polynomial.__init__", "exactarith.Polynomial.init", "count", None),
    ("partition", "canonical_partition", "partition.canonical_partition", "span", _partition_mdp),
    ("partition", "symbolic_value_iteration", "partition.symbolic_value_iteration", "span", _symbolic_levels),
    ("bellman", "optimal_set", "bellman.optimal_set", "span", None),
    ("bellman", "evaluate_deterministic", "bellman.evaluate_deterministic", "count", None),
    ("bellman", "value_iteration", "bellman.value_iteration", "span", _vi_horizons),
    ("turnpike", "turnpike_integer", "turnpike.turnpike_integer", "span", _turnpike_certificate),
    ("turnpike", "turnpike_intervals", "turnpike.turnpike_intervals", "span", None),
    ("turnpike", "suboptimality_gap", "turnpike.suboptimality_gap", "count", None),
    ("conditions", "boundedness_verdict", "conditions.boundedness_verdict", "span", None),
    ("conditions", "check_condition_A", "conditions.check_condition_A", "span", None),
    ("conditions", "check_condition_B", "conditions.check_condition_B", "span", None),
    ("smalldiscount", "policy_filtration", "smalldiscount.policy_filtration", "span", None),
    ("smalldiscount", "small_discount_checks", "smalldiscount.small_discount_checks", "span", None),
    # one document load is loads_document followed by mdp_from_document
    ("docio", "loads_document", "docio.load", "span", None),
    ("docio", "mdp_from_document", "docio.load", "span", None),
    ("mdp", "validate", "mdp.validate", "span", None),
    ("cli", "emit", "cli.emit", "span", _emitted_bytes),
)


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.mdps: set = set()
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, call id)
        self.call_id = -1
        self._stack: list[list] = []  # [child time, span id] per open span
        self._active: dict[int, int] = {}  # name index -> open spans of that name
        self._next_id = 0
        self._restore: list[tuple] = []

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return self.names.index(name)

    def _timed(self, name: str, fn, keep: bool, hook):
        index = self._name_index(name)
        stat = self.stats[name]
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            outer = active.get(index, 0) == 0
            active[index] = active.get(index, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[index] -= 1
                duration = end - start
                stat[0] += 1
                if outer:
                    stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append((span_id, index, start, end, parent, tracer.call_id))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name: str):
        """Root span of one CLI call; returns a function that runs it."""
        self.call_id += 1
        return self._timed(name, lambda fn, *a: fn(*a), True, None)

    def install(self) -> None:
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "exactmdp" or key.startswith("exactmdp.")
        }
        for module, attr, name, mode, hook in TARGETS:
            owner = modules[f"exactmdp.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                holders = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                holders = [
                    (mod, key)
                    for mod in modules.values()
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            if mode == "count":
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original, mode == "span", hook)
            for holder, key in holders:
                setattr(holder, key, wrapped)
                self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "call"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )
