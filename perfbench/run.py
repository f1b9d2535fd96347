"""Benchmark of the exactmdp command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one fresh process each
    python3 perfbench/run.py --record-golden           # rewrite perfbench/golden.json

The harness drives ``exactmdp.cli.main(argv)`` in this process, on MDP
documents written before timing starts, with one thread in a closed loop:
each CLI call starts after the previous one returns.  A pass runs every call
of the workload once; passes repeat until ``--seconds`` have elapsed and at
least MIN_PASSES have run.  Every output is checked after the timed region,
against golden digests or independent invariants.  The gated times are
scaled to a reference machine speed by SpeedProbe.  The last line of standard
output is the JSON result; the line before it holds the run's details.

With ``--trace 1`` the run alternates two untraced passes with two passes in
which every layer function is wrapped by the span recorder in spans.py, and
reports the per-layer metrics named in BENCHMARK.json instead of the
end-to-end ones.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

import mdpgen
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 0
SETUP_REPEATS = 9
MIN_PASSES = 3
TAIL_SAMPLES_BEYOND = 10
MAX_DEN = 8
# the speed probe: iterations of its loop, the period of the timer that runs
# it, the fewest loop timings inside an interval that set its speed (else the
# PROBE_NEAREST nearest ones do), and the loop time that defines the
# reference speed (a fixed scale, near the loop's median time on the 2-vCPU
# Xeon VM of README.md)
PROBE_LOOPS = 300
PROBE_PERIOD_S = 0.1
PROBE_MIN_INSIDE = 3
PROBE_NEAREST = 4
REF_PROBE_S = 0.003

CORPUS_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "remark-variant")
CORPUS_COMMANDS = (
    ("validate",),
    ("solve", "--alpha", "1/2"),
    ("turnpike", "--alpha", "3/4"),
    ("turnpike", "--interval", "1/100,9/10"),
    ("partition",),
    ("small-discount",),
    ("sweep", "--interval", "1/100,9/10", "--steps", "20"),
)
# (states, actions, family index) of each random instance
PARTITION_FAMILY = tuple((s, a, i) for s, a in ((3, 2), (4, 2), (3, 3)) for i in range(2))
PARTITION_COMMANDS = (
    ("partition",),
    ("turnpike", "--interval", "1/100,9/10", "--ncap", "10"),
)
POINTWISE_FAMILY = tuple((12, 4, i) for i in range(2))
POINTWISE_ALPHAS = ("9/10", "19/20", "97/100")
POINTWISE_COMMANDS = tuple(
    (cmd, "--alpha", a) for a in POINTWISE_ALPHAS for cmd in ("solve", "turnpike")
)
WORKLOADS = ("corpus-cli", "random-partition", "random-pointwise")
PER_COMMAND = (
    "validate_s",
    "partition_s",
    "turnpike_interval_s",
    "turnpike_point_s",
    "solve_s",
    "conditions_s",
    "small_discount_s",
    "sweep_s",
)


class SetupError(RuntimeError):
    pass


@dataclass(frozen=True)
class Call:
    """One CLI call: the command word, the document file name, the options."""

    words: tuple[str, ...]
    workdir: str

    @property
    def key(self) -> str:
        return " ".join(self.words)

    @property
    def doc(self) -> str:
        return self.words[1]

    @property
    def argv(self) -> list[str]:
        return [self.words[0], os.path.join(self.workdir, self.doc), *self.words[2:]]

    @property
    def group(self) -> str:
        """Name of the per-command total this call adds to."""
        if self.words[0] == "turnpike":
            return "turnpike_point_s" if "--alpha" in self.words else "turnpike_interval_s"
        return self.words[0].replace("-", "_") + "_s"


@dataclass
class Plan:
    calls: list[Call]
    instances: list[dict]


def run_cli(main, argv) -> tuple[object, str]:
    """Exit code (or the exception that escaped) and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # recorded as a failed call
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def import_program():
    """A fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "exactmdp" or n.startswith("exactmdp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    names = ("cli", "docio", "bellman", "limits", "turnpike", "exactarith")
    mods = {n: importlib.import_module(f"exactmdp.{n}") for n in names}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise SetupError(f"exactmdp was imported from {mods['cli'].__file__}, not {SRC}")
    return argparse.Namespace(**mods)


def _write(workdir: str, name: str, text: str) -> None:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _describe(name: str, doc: dict) -> dict:
    counts = [len(doc["actions"][s]) for s in doc["states"]]
    return {
        "doc": name,
        "states": len(counts),
        "actions": sum(counts),
        "rules": math.prod(counts),
    }


def build_corpus(prog, seed: int, workdir: str) -> Plan:
    calls, instances = [], []
    for eid in CORPUS_IDS:
        code, text = run_cli(prog.cli.main, ["corpus", "--id", eid])
        if code != 0:
            raise SetupError(f"corpus --id {eid} exited {code}")
        name = f"{eid}.json"
        _write(workdir, name, text)
        instances.append(_describe(name, json.loads(text)))
        code, out = run_cli(prog.cli.main, ["partition", os.path.join(workdir, name)])
        if code != 0:
            raise SetupError(f"partition {name} exited {code}")
        points = [
            ip["point"]
            for ip in json.loads(out)["irregular_points"]
            if isinstance(ip["point"], str) and ip["point"] != "0"
        ]
        calls += [Call((w[0], name, *w[1:]), workdir) for w in CORPUS_COMMANDS]
        calls += [Call(("conditions", name, "--point", p), workdir) for p in points]
    random.Random(seed).shuffle(calls)
    return Plan(calls, instances)


def _build_random(prog, seed, workdir, family, commands) -> Plan:
    rng = random.Random(seed)
    calls, instances = [], []
    for states, actions, index in family:
        doc = mdpgen.rename(mdpgen.random_document(states, actions, MAX_DEN, index), rng)
        name = f"r{states}x{actions}-{index}.json"
        _write(workdir, name, prog.docio.dumps_document(doc))
        instances.append(_describe(name, doc))
        calls += [Call((w[0], name, *w[1:]), workdir) for w in commands]
    rng.shuffle(calls)
    return Plan(calls, instances)


BUILDERS = {
    "corpus-cli": build_corpus,
    "random-partition": partial(
        _build_random, family=PARTITION_FAMILY, commands=PARTITION_COMMANDS
    ),
    "random-pointwise": partial(
        _build_random, family=POINTWISE_FAMILY, commands=POINTWISE_COMMANDS
    ),
}


def setup(workload: str, seed: int):
    """Import, write the documents and warm up; returns (prog, plan)."""
    prog = import_program()
    workdir = os.path.join(WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    plan = BUILDERS[workload](prog, seed, workdir)
    for inst in plan.instances:
        code, _ = run_cli(prog.cli.main, ["validate", os.path.join(workdir, inst["doc"])])
        if code != 0:
            raise SetupError(f"validate {inst['doc']} exited {code}")
    return prog, plan


def _probe_loop() -> Fraction:
    x = Fraction(1, 3)
    kept = {}
    for i in range(1, PROBE_LOOPS):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) % 7
        kept[i % 17] = [x, i]
    return x


class SpeedProbe:
    """Converts wall time to seconds at the reference machine speed.

    The speed of a shared VM drifts by tens of percent within seconds, and a
    closed-loop single-thread program slows down with it.  While the probe
    is on, a timer interrupts the program every PROBE_PERIOD_S and times a
    fixed loop of stdlib ``Fraction`` arithmetic that no exactmdp code runs.
    Garbage collection is off during the loop, so the program's heap does
    not change the loop's time.  An interval's own time is its wall time
    less the loop timings inside it; its reference time is its own time
    times REF_PROBE_S over the median loop time inside it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds) per loop
        self.passes: list[list[tuple[float, float]]] = []  # (start, end) per call
        self._busy = False

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_loop()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def own_seconds(self, start: float, end: float) -> float:
        """Wall time from start to end less the loop timings in it.  The
        handler runs between bytecodes, so no loop straddles a clock read."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return end - start - sum(s for _, s in self.samples[lo:hi])

    def reference_seconds(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        if hi - lo < PROBE_MIN_INSIDE:
            mid = bisect.bisect_left(self.samples, ((start + end) / 2,))
            lo, hi = max(0, mid - PROBE_NEAREST // 2), mid + PROBE_NEAREST // 2
        loop = statistics.median(s for _, s in self.samples[lo:hi])
        return self.own_seconds(start, end) * REF_PROBE_S / loop

    def pass_seconds(self) -> list[float]:
        return [sum(self.reference_seconds(*span) for span in spans) for spans in self.passes]


def run_pass(main, calls, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
    """Summed time of the calls and (exit code, stdout, seconds) per call;
    with a probe, a call's seconds leave out the probe's own time, and the
    probe keeps each call's (start, end)."""
    gc.collect()
    results, spans = [], []
    for call in calls:
        argv = call.argv
        start = time.perf_counter()
        if tracer is None:
            code, out = run_cli(main, argv)
        else:
            code, out = tracer.call(f"cli.{call.words[0]}")(run_cli, main, argv)
        end = time.perf_counter()
        results.append((code, out, end - start))
        spans.append((start, end))
    if probe is not None:
        results = [(c, o, probe.own_seconds(*span)) for (c, o, _), span in zip(results, spans)]
        probe.passes.append(spans)
    return sum(seconds for _, _, seconds in results), results


# ---- output checks ---------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rules_named(mdp, sets) -> set[tuple[str, ...]]:
    per_state = [sorted(mdp.actions[i][k] for k in s) for i, s in enumerate(sets)]
    return set(product(*per_state))


def _left_edge(point) -> Fraction:
    return Fraction(point) if isinstance(point, str) else Fraction(point["bracket"][1])


def _right_edge(point) -> Fraction:
    return Fraction(point) if isinstance(point, str) else Fraction(point["bracket"][0])


def _check_solve(prog, mdp, code, rep):
    alpha = Fraction(rep["alpha"])
    values = tuple(Fraction(rep["value"][s]) for s in mdp.states)
    step, sets = prog.bellman.bellman_step(
        mdp, alpha, prog.bellman.ValueVector(values, alpha, None)
    )
    if step.values != values:
        return "value is not a fixed point of bellman_step"
    if set(map(tuple, rep["optimal_rules"])) != _rules_named(mdp, sets):
        return "optimal rules differ from the Bellman argmax"
    return None


def _check_turnpike_point(prog, mdp, code, rep):
    result = prog.turnpike.TurnpikeResult(
        Fraction(rep["alpha"]), rep["N"], rep["certificate_horizon"], None, None, ()
    )
    return None if prog.turnpike.certificate_audit(mdp, result) else "certificate audit failed"


def _check_partition(prog, mdp, code, rep):
    for iv in rep["intervals"]:
        lo, hi = _left_edge(iv["lo"]), _right_edge(iv["hi"])
        inside = prog.exactarith.simplest_fraction_between(lo, hi)
        sets = prog.bellman.optimal_set(mdp, inside).d_alpha_sets
        if set(map(tuple, iv["optimal_rules"])) != _rules_named(mdp, sets):
            return f"interval rules differ from optimal_set at {inside}"
    return None


def _check_turnpike_interval(prog, mdp, code, rep):
    if code != (3 if rep["partial"] else 0):
        return f"exit code {code} does not match partial={rep['partial']}"
    spans = rep["spans"]
    lo, hi = (Fraction(x) for x in rep["interval"])
    if not spans or _right_edge(spans[0]["lo"]) != lo or _left_edge(spans[-1]["hi"]) != hi:
        return "spans do not cover the interval"
    for a, b in zip(spans, spans[1:]):
        if a["hi"] != b["lo"] or (a["hi_closed"] and b["lo_closed"]):
            return "spans are not contiguous"
    if rep["partial"]:
        return None  # N is certified constant on a span only when not partial
    for s in spans:
        left, right = _left_edge(s["lo"]), _right_edge(s["hi"])
        if left < right:
            alpha = prog.exactarith.simplest_fraction_between(left, right)
        elif left == right and isinstance(s["lo"], str):
            alpha = left
        else:
            continue
        n_value = prog.turnpike.turnpike_integer(mdp, alpha).n_value
        if n_value != s["N"]:
            return f"span N={s['N']} but turnpike_integer gives {n_value} at {alpha}"
    return None


def _invariant_failure(prog, call: Call, code, out: str) -> str | None:
    words = call.words
    partial_allowed = words[0] == "turnpike" and "--interval" in words
    if code != 0 and not (code == 3 and partial_allowed):
        return f"exit code {code}"
    with open(call.argv[1], encoding="utf-8") as fh:
        mdp = prog.docio.mdp_from_document(prog.docio.loads_document(fh.read()))
    rep = json.loads(out)
    if words[0] == "solve":
        check = _check_solve
    elif words[0] == "turnpike":
        check = _check_turnpike_point if "--alpha" in words else _check_turnpike_interval
    elif words[0] == "partition":
        check = _check_partition
    elif words[0] == "validate":
        return None if rep["ok"] else "document reported invalid"
    else:
        return "no invariant check for this command"
    return check(prog, mdp, code, rep)


def load_golden(workload: str, seed: int) -> dict | None:
    """Golden (exit code, digest) by call key, when they apply to this seed."""
    if not os.path.exists(GOLDEN):
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return {key: (code, sha) for key, code, sha in entry["calls"]}


def check_passes(prog, plan: Plan, passes, golden: dict | None) -> list[str]:
    """One line per failed call: the first pass is checked against the golden
    digests or, without them, by invariants; later passes must repeat it."""
    failures = []
    first = passes[0][1]
    for call, (code, out, _) in zip(plan.calls, first):
        if golden is not None:
            want = golden.get(call.key)
            reason = None if want == (code, digest(out)) else f"golden {want}"
        else:
            try:
                reason = _invariant_failure(prog, call, code, out)
            except Exception as exc:  # a malformed output fails its call
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{call.key}: {reason}")
    for n, (_, results) in enumerate(passes[1:], start=2):
        for call, (code, out, _), (code1, out1, _) in zip(plan.calls, results, first):
            if code != code1 or out != out1:
                failures.append(f"{call.key}: pass {n} differs from pass 1")
    return failures


# ---- metrics ---------------------------------------------------------------


def nearest_rank(values, percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def tail_percent(calls_per_pass: int) -> int:
    """Highest whole percentile with TAIL_SAMPLES_BEYOND samples above it at
    MIN_PASSES passes; fixed per workload so that every run reports the same
    percentile."""
    samples = MIN_PASSES * calls_per_pass
    return max(50, math.floor(100 * (samples - TAIL_SAMPLES_BEYOND) / samples))


def per_command(plan: Plan, results) -> dict[str, float]:
    totals = dict.fromkeys(PER_COMMAND, 0.0)
    for call, (_, _, seconds) in zip(plan.calls, results):
        totals[call.group] += seconds
    return totals


def instance_summary(plan: Plan, results) -> list[dict]:
    """Each instance's shape with the (N, K) or N range its outputs report."""
    by_doc = {inst["doc"]: dict(inst) for inst in plan.instances}
    for call, (code, out, _) in zip(plan.calls, results):
        if call.words[0] != "turnpike" or code not in (0, 3):
            continue
        rep = json.loads(out)
        inst = by_doc[call.doc]
        if "--alpha" in call.words:
            inst.setdefault("N_K", {})[rep["alpha"]] = [rep["N"], rep["certificate_horizon"]]
        else:
            ns = [s["N"] for s in rep["spans"] if s["N"] is not None]
            inst["interval_N"] = [min(ns, default=None), max(ns, default=None)]
            inst["partial"] = rep["partial"]
    return list(by_doc.values())


def layer_metrics(spec: list[dict], tracer: Tracer, overhead: float, commands: dict) -> dict:
    stats, counters = tracer.stats, tracer.counters

    def calls_of(name):
        return stats.get(name, [0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "exactarith.isolate_roots.hit_ratio": lambda: ratio(
            counters.get("exactarith.isolate_roots.hits", 0),
            calls_of("exactarith.isolate_roots"),
        ),
        "partition.canonical_partition.per_mdp": lambda: ratio(
            calls_of("partition.canonical_partition"), len(tracer.mdps)
        ),
        "turnpike.useful_horizon_ratio": lambda: ratio(
            counters.get("turnpike.n_value.sum", 0),
            counters.get("turnpike.certificate_horizon.sum", 0),
        ),
        "trace.overhead_ratio": lambda: overhead,
    }
    fields = {"calls": 0, "total_s": 1, "self_s": 2}
    metrics = {}
    for m in spec:
        name = m["name"]
        base, _, field = name.rpartition(".")
        if name in special:
            value = special[name]()
        elif name in commands:
            value = commands[name]
        elif name in counters or name.endswith((".horizons", ".pieces", ".sum", ".bytes")):
            value = counters.get(name, 0)
        elif field in fields:
            value = stats.get(base, [0, 0.0, 0.0])[fields[field]]
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


# ---- driver ----------------------------------------------------------------


def clear_caps() -> list[str]:
    removed = sorted(k for k in os.environ if k.startswith("EXACTMDP_"))
    for key in removed:
        del os.environ[key]
    return removed


def caps_in_effect(prog) -> dict[str, int]:
    return {
        name: fn()
        for name, fn in sorted(vars(prog.limits).items())
        if name.endswith("_cap") and callable(fn)
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    removed = clear_caps()
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = SpeedProbe()
    setups = []
    with probe:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prog, plan = setup(workload, seed)
            setups.append((start, time.perf_counter()))
        main = prog.cli.main
        if not trace:
            passes = []
            begin = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
                passes.append(run_pass(main, plan.calls, probe=probe))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    golden = load_golden(workload, seed)

    if trace:
        # untraced and traced passes alternate, so that the overhead ratio
        # compares passes made at nearly the same time; the per-layer figures
        # are those of the first traced pass
        passes, tracers = [], []
        for _ in range(2):
            passes.append(run_pass(main, plan.calls))
            tracers.append(Tracer())
            tracers[-1].install()
            try:
                passes.append(run_pass(main, plan.calls, tracers[-1]))
            finally:
                tracers[-1].uninstall()
        tracers[0].write(os.path.join(WORK, f"trace-{workload}-{seed}.json"))

    failures = check_passes(prog, plan, passes, golden)
    attempted = len(plan.calls) * len(passes)
    call_times = [t for _, results in passes for _, _, t in results]
    percent = tail_percent(len(plan.calls))
    pass_ref_s = probe.pass_seconds()
    setup_ref_s = [probe.reference_seconds(*s) for s in setups]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "unset_env": removed,
        "caps": caps_in_effect(prog),
        "checked_by": "golden digests" if golden is not None else "invariants",
        "instances": instance_summary(plan, passes[0][1]),
        "setup_wall_s": [probe.own_seconds(*s) for s in setups],
        "setup_ref_s": setup_ref_s,
        "pass_wall_s": [p[0] for p in passes],
        "pass_ref_s": pass_ref_s,
        "wall_s": statistics.median(p[0] for p in passes),
        "probe_loops": len(probe.samples),
        "probe_loop_s": statistics.median(s for _, s in probe.samples),
        "per_command_s": per_command(plan, passes[0][1]),
        "call_samples": len(call_times),
        "call_p50_s": statistics.median(call_times),
        "call_tail_percentile": percent,
        "call_tail_s": nearest_rank(call_times, percent),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
    }
    if trace:
        overhead = (passes[1][0] + passes[3][0]) / (passes[0][0] + passes[2][0])
        commands = per_command(plan, passes[0][1])
        metrics = layer_metrics(spec["per_layer"], tracers[0], overhead, commands)
    else:
        values = {
            "setup_s": statistics.median(setup_ref_s),
            "pass_ref_s": statistics.median(pass_ref_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps(details), flush=True)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def record_golden() -> None:
    """Write (argv, exit code, sha256(stdout)) for every call of every
    workload at DEFAULT_SEED; random-workload outputs must pass the
    invariant checks first."""
    clear_caps()
    golden = {}
    for workload in WORKLOADS:
        prog, plan = setup(workload, DEFAULT_SEED)
        passes = [run_pass(prog.cli.main, plan.calls)]
        if workload != "corpus-cli":
            failures = check_passes(prog, plan, passes, None)
            if failures:
                raise SetupError("; ".join(failures))
        golden[workload] = {
            "seed": None if workload == "corpus-cli" else DEFAULT_SEED,
            "calls": sorted(
                [call.key, code, digest(out)]
                for call, (code, out, _) in zip(plan.calls, passes[0][1])
            ),
        }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "exactmdp")):
        print(f"error: no exactmdp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload == "all":
        # each workload in a fresh process, so set-up time and peak memory
        # belong to that workload alone
        code = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
