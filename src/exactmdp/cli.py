"""Command-line front end.

Every command reads an MDP document (see docio), runs one analysis, and
prints a JSON report with deterministic key order to stdout; ``sweep``
writes CSV.  Exit codes: 0 success, 2 input error (a cap environment
variable that is not a positive integer included), 3 a resource cap was
exceeded (a partial report is still emitted when one is available).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import docio
from .bellman import ActionSets, optimal_set, rules_from_action_sets
from .docio import format_rational
from .limits import CapExceededError, CapSettingError, parse_int
from .mdp import DecisionRule, Mdp, count_rules, validate
from .turnpike import turnpike_integer, turnpike_intervals

# A command imports the layers that only it runs (partition, polyarith,
# smalldiscount, conditions, corpus) inside itself, so validate, solve and
# turnpike --alpha never load them; see the package docstring.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3

_DECIMAL = re.compile(r"[+-]?[0-9]*[.][0-9]+")
# argparse takes "-1/2" for a flag, so main writes "--alpha -1/2" as "--alpha=-1/2"
_RATIONAL_OPTIONS = ("--alpha", "--point", "--interval")


class InputError(ValueError):
    pass


def parse_alpha(text: str) -> Fraction:
    """The exact rational that text spells, after outer whitespace is
    stripped, in ASCII digits only (``parse_int``):

        integer   [+-]?[0-9]+
        fraction  integer "/" integer
        decimal   [+-]?[0-9]*[.][0-9]+   (read exactly: 0.5 is 1/2)

    so ".5", "+.5" and "-0.5" are decimals, and "1." and "." are not."""
    text = text.strip()
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(parse_int(num), parse_int(den))
        if "." in text:
            if not _DECIMAL.fullmatch(text):
                raise ValueError(text)
            return Fraction(text)  # exact: d.ddd = dddd / 10^k
        return Fraction(parse_int(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse {text!r} as an exact rational")


def parse_discount(text: str) -> Fraction:
    value = parse_alpha(text)
    if not (0 <= value < 1):
        raise InputError(f"discount factor {text!r} is outside [0, 1)")
    return value


def parse_interval(text: str, command: str) -> tuple[Fraction, Fraction]:
    """The discount pair "lo,hi" of ``command``'s --interval, with lo < hi."""
    lo_text, _, hi_text = text.partition(",")
    lo, hi = parse_discount(lo_text), parse_discount(hi_text)
    if not lo < hi:
        raise InputError(f"{command} interval must have lo < hi")
    return lo, hi


def read_mdp(path: str) -> Mdp:
    """The document at path as an Mdp, not yet checked against the model
    rules; an unreadable file or a malformed document is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return docio.mdp_from_document(docio.loads_document(fh.read()))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except docio.DocumentError as exc:
        raise InputError(f"{path}: {exc}")


def load_mdp(path: str) -> Mdp:
    mdp = read_mdp(path)
    report = validate(mdp)
    if not report.ok:
        first = report.violations[0]
        raise InputError(
            f"{path}: invalid MDP: {first.code}"
            + (f" at state {first.state}" if first.state else "")
            + (f", action {first.action}" if first.action else "")
        )
    return mdp


def rule_json(mdp: Mdp, rule: DecisionRule) -> list[str]:
    return [mdp.actions[i][a] for i, a in enumerate(rule.choices)]


def rules_json(mdp: Mdp, sets: ActionSets) -> list[list[str]]:
    """The product's rules, in lexicographic order; raises CapExceededError
    past the cap."""
    return [rule_json(mdp, r) for r in rules_from_action_sets(sets)]


def point_json(pt):
    if isinstance(pt, Fraction):
        return format_rational(pt)
    return {
        "bracket": [format_rational(pt.lo), format_rational(pt.hi)],
        "defining": [format_rational(c) for c in pt.defining.coeffs],
    }


def emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def cmd_validate(args) -> int:
    report = validate(read_mdp(args.file))
    emit(
        {
            "ok": report.ok,
            "violations": [
                {
                    "code": v.code,
                    "state": v.state,
                    "action": v.action,
                    "detail": v.detail,
                }
                for v in report.violations
            ],
        }
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    mdp = load_mdp(args.file)
    alpha = parse_discount(args.alpha)
    opt = optimal_set(mdp, alpha)
    emit(
        {
            "alpha": format_rational(alpha),
            "value": {
                s: format_rational(opt.v_alpha[i]) for i, s in enumerate(mdp.states)
            },
            "num_optimal_rules": count_rules(opt.d_alpha_sets),
            "optimal_rules": rules_json(mdp, opt.d_alpha_sets),
        }
    )
    return EXIT_OK


def cmd_turnpike(args) -> int:
    mdp = load_mdp(args.file)
    if args.alpha is None and args.interval is None:
        raise InputError("turnpike needs --alpha or --interval")
    if args.alpha is not None and args.interval is not None:
        raise InputError("turnpike takes --alpha or --interval, not both")
    if args.ncap < 1:
        raise InputError("--ncap must be a positive integer")
    if args.alpha is not None:
        alpha = parse_discount(args.alpha)
        res = turnpike_integer(mdp, alpha)
        emit(
            {
                "alpha": format_rational(alpha),
                "N": res.n_value,
                "certificate_horizon": res.certificate_horizon,
                "gap": format_rational(res.gap) if res.gap is not None else None,
                "witness": rule_json(mdp, res.witness) if res.witness else None,
            }
        )
        return EXIT_OK
    lo, hi = parse_interval(args.interval, "turnpike")
    tmap = turnpike_intervals(mdp, lo, hi, n_cap=args.ncap)
    report = {
        "interval": [format_rational(lo), format_rational(hi)],
        "spans": [
            {
                "lo": point_json(s.lo),
                "hi": point_json(s.hi),
                "lo_closed": s.lo_closed,
                "hi_closed": s.hi_closed,
                "N": s.n_value,
            }
            for s in tmap.spans
        ],
        "discontinuities": {
            "left": [format_rational(p) for p in tmap.d_minus],
            "right": [format_rational(p) for p in tmap.d_plus],
            "both": [format_rational(p) for p in tmap.d_hat],
            "all": [format_rational(p) for p in tmap.d_all],
        },
        "indeterminate_points": [point_json(p) for p in tmap.indeterminate],
        "partial": tmap.partial,
    }
    emit(report)
    return EXIT_CAP if tmap.partial else EXIT_OK


def cmd_partition(args) -> int:
    from .partition import canonical_partition

    mdp = load_mdp(args.file)
    part = canonical_partition(mdp)
    emit(
        {
            "irregular_points": [
                {
                    "point": point_json(ip.point),
                    "class": ip.kind,
                    "optimal_at": rules_json(mdp, ip.d_at),
                    "optimal_left": rules_json(mdp, ip.d_left),
                    "optimal_right": rules_json(mdp, ip.d_right),
                }
                for ip in part.irregular_points
            ],
            "intervals": [
                {
                    "lo": point_json(iv.lo),
                    "hi": point_json(iv.hi),
                    "optimal_rules": rules_json(mdp, iv.d_set),
                }
                for iv in part.intervals
            ],
            "blackwell_point": point_json(part.blackwell_point),
        }
    )
    return EXIT_OK


def cmd_small_discount(args) -> int:
    from .smalldiscount import small_discount_checks

    mdp = load_mdp(args.file)
    checks = small_discount_checks(mdp)
    rep = checks.filtration
    emit(
        {
            "l_value": rep.l_value,
            "h_value": rep.h_value,
            "jump_indices": list(rep.jump_indices),
            "c_chain": [
                format_rational(c) if c is not None else None for c in rep.c_chain
            ],
            "delta": format_rational(rep.delta),
            "delta_tilde": format_rational(rep.delta_tilde),
            "stable_rules": rules_json(mdp, rep.rules_at(rep.l_value)),
            "checks": [
                {"name": o.name, "passed": o.passed, "detail": o.detail}
                for o in checks.outcomes
            ],
        }
    )
    return EXIT_OK


def _verdict_json(mdp: Mdp, v) -> dict:
    out = {
        "condition": v.condition,
        "holds": v.holds,
        "method": v.method,
        "horizon_used": v.horizon_used,
    }
    if v.threshold is not None:
        out["threshold"] = format_rational(v.threshold)
    if v.extrema:
        out["extrema"] = [
            {
                "phi": rule_json(mdp, phi),
                "psi": rule_json(mdp, psi),
                "value": format_rational(data["value"]),
                "state": data["state"],
            }
            for (phi, psi), data in sorted(v.extrema.items())
        ]
    if v.window:
        out["window"] = {str(n): ok for n, ok in sorted(v.window.items())}
    return out


def cmd_conditions(args) -> int:
    from .conditions import NotIrregularError, boundedness_verdict

    mdp = load_mdp(args.file)
    point = parse_discount(args.point)
    try:
        report = boundedness_verdict(mdp, point)
    except NotIrregularError as exc:
        raise InputError(str(exc))
    emit(
        {
            "point": format_rational(point),
            "left": report.left,
            "right": report.right,
            "method_left": report.method_left,
            "method_right": report.method_right,
            "A_minus": _verdict_json(mdp, report.a_left),
            "A_plus": _verdict_json(mdp, report.a_right),
            "B_minus": _verdict_json(mdp, report.b_left),
            "B_plus": _verdict_json(mdp, report.b_right),
            "samples_left": [
                [format_rational(a), n] for a, n in report.samples_left
            ],
            "samples_right": [
                [format_rational(a), n] for a, n in report.samples_right
            ],
        }
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .partition import canonical_partition
    from .polyarith import point_sign

    mdp = load_mdp(args.file)
    lo, hi = parse_interval(args.interval, "sweep")
    steps = args.steps
    if steps < 1:
        raise InputError("sweep needs at least one step")
    part = canonical_partition(mdp)
    lines = ["alpha,N,num_optimal_rules,in_interval_id"]
    for i in range(1, steps + 1):
        alpha = lo + (hi - lo) * Fraction(i, steps + 1)
        res = turnpike_integer(mdp, alpha, part)
        n_opt = count_rules(res.d_alpha_sets)
        # irregular points at or left of alpha, each side decided exactly
        interval_id = sum(
            1 for ip in part.irregular_points if point_sign(ip.point, alpha) <= 0
        )
        lines.append(f"{format_rational(alpha)},{res.n_value},{n_opt},{interval_id}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_corpus(args) -> int:
    from .corpus import build_example

    try:
        fixture = build_example(args.id, m=args.m)
    except ValueError as exc:  # an unknown id, or a chain with under two states
        raise InputError(str(exc))
    if args.m is not None and args.id != "ex3":
        raise InputError("--m applies only to the chain example ex3")
    doc = docio.document_from_mdp(fixture.mdp)
    sys.stdout.write(docio.dumps_document(doc))
    return EXIT_OK


@functools.cache  # parsing leaves the parser unchanged, so main calls share it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactmdp",
        description="Exact-arithmetic analysis of discounted finite MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an MDP document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="optimal value and rules at a discount")
    p.add_argument("file")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("turnpike", help="turnpike integer or interval map")
    p.add_argument("file")
    p.add_argument("--alpha")
    p.add_argument("--interval", help="rational pair lo,hi")
    p.add_argument("--ncap", type=int, default=16)
    p.set_defaults(func=cmd_turnpike)

    p = sub.add_parser("partition", help="canonical partition of [0, 1)")
    p.add_argument("file")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("small-discount", help="filtration, radii and checks")
    p.add_argument("file")
    p.set_defaults(func=cmd_small_discount)

    p = sub.add_parser("conditions", help="boundedness conditions at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("sweep", help="CSV sweep of N over an interval")
    p.add_argument("file")
    p.add_argument("--interval", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("corpus", help="emit a bundled example as a document")
    p.add_argument("--id", required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _RATIONAL_OPTIONS and re.match(r"-[0-9.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapSettingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
