"""Self-test of the benchmark harness on reduced workloads.

    python3 perfbench/selftest.py

Checks, on a few calls of each workload:
- two traced passes give identical calls / horizons / pieces / sum counts;
- traced and untraced passes give identical outputs;
- a corrupted golden digest, and corrupted outputs checked by invariants,
  each show up as exactly one failed call.
Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import sys

import run
from spans import Tracer

REDUCED = {
    "corpus-cli": lambda call: call.doc in ("ex1.json", "ex2.json", "remark-variant.json"),
    "random-partition": lambda call: call.doc.startswith("r3x2-"),
    "random-pointwise": lambda call: call.doc.endswith("-0.json") and "9/10" in call.words,
}
SEED = 3  # not DEFAULT_SEED, so the random workloads are checked by invariants


def traced_counts(prog, calls):
    tracer = Tracer()
    tracer.install()
    try:
        outcome = run.run_pass(prog.cli.main, calls, tracer)
    finally:
        tracer.uninstall()
    counts = {name: stat[0] for name, stat in tracer.stats.items()}
    counts.update(tracer.counters)
    return outcome, counts


def main() -> int:
    run.clear_caps()
    sys.path.insert(0, run.SRC)
    failed = []

    def check(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failed.append(label)

    for workload, keep in REDUCED.items():
        prog, plan = run.setup(workload, SEED)
        plan.calls = [c for c in plan.calls if keep(c)]
        untraced = run.run_pass(prog.cli.main, plan.calls)
        traced, counts1 = traced_counts(prog, plan.calls)
        _, counts2 = traced_counts(prog, plan.calls)
        check(f"{workload}: {len(plan.calls)} calls, two traced passes count alike",
              counts1 == counts2 and counts1.get("mdp.validate", 0) > 0)
        same = [(c, o) for c, o, _ in untraced[1]] == [(c, o) for c, o, _ in traced[1]]
        check(f"{workload}: traced and untraced outputs are identical", same)
        golden = run.load_golden(workload, SEED)
        failures = run.check_passes(prog, plan, [untraced, traced], golden)
        check(f"{workload}: outputs pass the {'golden' if golden else 'invariant'} checks",
              not failures)

        if golden is not None:
            key = plan.calls[0].key
            bad = dict(golden)
            bad[key] = (bad[key][0], "0" * 64)
            failures = run.check_passes(prog, plan, [untraced], bad)
            check(f"{workload}: a corrupted golden digest fails one call",
                  len(failures) == 1 and failures[0].startswith(key))
        else:
            for index, (code, out, seconds) in enumerate(untraced[1]):
                rep = json.loads(out)
                if "N" in rep:
                    rep["N"] += 1
                elif "value" in rep:
                    state = next(iter(rep["value"]))
                    rep["value"][state] += "1"
                elif "intervals" in rep:
                    rep["intervals"][0]["optimal_rules"] = []
                elif "spans" in rep:
                    rep["partial"] = not rep["partial"]
                else:
                    continue
                corrupted = list(untraced[1])
                corrupted[index] = (code, json.dumps(rep), seconds)
                failures = run.check_passes(prog, plan, [(untraced[0], corrupted)], None)
                key = plan.calls[index].key
                check(f"{workload}: a corrupted output of '{key}' fails one call",
                      len(failures) == 1 and failures[0].startswith(key))
    print("self-test", "failed: " + ", ".join(failed) if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(run.SRC, "exactmdp")):
        print(f"error: no exactmdp package under {run.SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
