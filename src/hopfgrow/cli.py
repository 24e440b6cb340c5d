"""Command surface.

    hopfgrow normalize   --example qplane --element "y2 y1 g1"
    hopfgrow delta       --example taft --param p=5 --element "y y"
    hopfgrow primitives  --example exterior --weight "g1"
    hopfgrow invariants  --example exterior --param s=3
    hopfgrow bounds      --example qplane --param v=2
    hopfgrow growth      --example skew_free --nmax 10
    hopfgrow check-example taft --param p=5
    hopfgrow list-examples

Presentations come from a builtin (--example, with --param overrides) or a
JSON file.  Exit codes: 0 ok, 1 usage or parse error, 2 hypothesis or
consistency failure (including non-confluence and check mismatches),
3 resource ceiling reached.  HOPFGROW_MAX_WORDS caps the growth
enumeration; a value that is not a nonnegative integer is a usage error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .bounds import all_bounds, detect_exponential
from .catalog import EXAMPLES, build_example, run_example_check
from .coalgebra import delta, find_skew_primitives
from .errors import (ConsistencyError, NonConfluentError, PresentationError,
                     ResourceCeilingError, ScalarShapeError)
from .fileformat import (_SIZE_CEILING, load_presentation, parse_element_expr,
                         parse_group_element)
from .growth import measure_growth, word_ceiling
from .invariants import compute_invariants
from .scalars import INFINITE
from .serialize import (element_to_str, scalar_to_expr, tensor_to_str,
                        word_to_str)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_param(text):
    if "=" not in text:
        raise UsageError("--param wants key=value, got %r" % text)
    key, raw = text.split("=", 1)
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    try:
        if "," in raw:
            return key, tuple(int(x) for x in raw.split(","))
        if "/" in raw:
            return key, Fraction(raw)
        return key, int(raw)
    except (ValueError, ZeroDivisionError):
        # the value is not echoed: it may be thousands of digits long
        if "," in raw or "/" in raw or raw.strip().lstrip("+-").isdigit():
            raise UsageError("--param %s: not a number this program reads" % key) from None
    return key, raw  # not a number: the builder rejects what it cannot use


def _load(args):
    params = dict(_parse_param(s) for s in (args.param or []))
    if args.example and args.file:
        raise UsageError("give either --example or a file, not both")
    if args.example:
        p, merged = build_example(args.example, params)
        return p, {"name": args.example, "source": "builtin",
                   "params": {k: _plain(v) for k, v in merged.items()}}
    if args.file:
        p, meta = load_presentation(args.file)
        return p, {"name": p.name or args.file, "source": "file",
                   "params": {}}
    raise UsageError("a presentation is required: --example NAME or a file path")


def _plain(x):
    """Recursively convert report values into JSON-native data."""
    if x is INFINITE:
        return "infinite"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    if hasattr(x, "is_zero"):  # a Scalar
        return scalar_to_expr(x)
    return str(x)


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(_plain(payload), indent=2, sort_keys=True))
    else:
        print(text)


def _invariant_payload(p, report):
    counts = report.summary_counts()
    return {
        "counts": counts,
        "weights": [p.group.format_element(w) for w in report.weights],
        "weights_with_primitive_power": [
            p.group.format_element(w) for w in report.weights_with_primitive_power],
        "weights_with_free_commutator": [
            p.group.format_element(w) for w in report.weights_with_free_commutator],
        "weight_commutators": [
            {"weight": p.group.format_element(wc.weight),
             "gamma": scalar_to_expr(wc.gamma), "level": wc.level,
             "class": wc.gamma_class}
            for wc in report.weight_commutators],
        "witnesses": [
            {"weight": p.group.format_element(r.weight),
             "element": element_to_str(p, r.element),
             "gamma": scalar_to_expr(r.gamma), "level": r.level,
             "class": r.gamma_class,
             "character": [scalar_to_expr(c) for c in (r.character or ())],
             "character_level": r.char_level,
             "power_primitive_n": r.power_primitive_n,
             "power_predicted_n": r.power_predicted_n}
            for r in report.witnesses],
        "diagnostics": report.diagnostics,
        "bounds_used": report.bounds_used,
        "caveat": report.CAVEAT,
    }


def _invariant_text(p, report):
    counts = report.summary_counts()
    lines = ["invariants of %s (bounds %r)" % (p.name or "presentation",
                                               report.bounds_used)]
    lines.append("  weights: {%s}" % ", ".join(
        p.group.format_element(w) for w in report.weights))
    lines.append("  with primitive power: {%s}" % ", ".join(
        p.group.format_element(w) for w in report.weights_with_primitive_power))
    lines.append("  with free commutator: {%s}" % ", ".join(
        p.group.format_element(w) for w in report.weights_with_free_commutator))
    for wc in report.weight_commutators:
        lines.append("  pair (%s, %s): level %d, %s" % (
            p.group.format_element(wc.weight), scalar_to_expr(wc.gamma),
            wc.level, wc.gamma_class))
    lines.append("  dim torsion span = %d, dim free quotient = %d" %
                 (counts["dim_torsion_span"], counts["dim_free_quotient"]))
    for r in report.witnesses:
        extra = ""
        if r.power_primitive_n:
            extra = ", power %d primitive" % r.power_primitive_n
        lines.append("    witness %s: gamma %s, level %d (%s)%s" % (
            element_to_str(p, r.element), scalar_to_expr(r.gamma),
            r.level, r.gamma_class, extra))
    for d in report.diagnostics:
        lines.append("  diagnostic at %s: %s %s" % (
            p.group.format_element(d["weight"]), d["note"],
            d["relation"] or ""))
    lines.append("  note: %s" % report.CAVEAT)
    return "\n".join(lines)


def _bound_payload(results):
    return [{"rule": r.rule, "value": r.value,
             "hypotheses": [{"name": h.name, "passed": h.passed,
                             "detail": h.detail} for h in r.hypotheses],
             "inputs": r.inputs}
            for r in results]


def cmd_normalize(args):
    p, source = _load(args)
    elt = parse_element_expr(p, args.element)
    payload = {"input": args.element,
               "normal_form": element_to_str(p, elt)}
    _emit(args, {"command": "normalize", "presentation": source,
                 "report": payload},
          "%s  ->  %s" % (args.element, payload["normal_form"]))
    return EXIT_OK


def cmd_delta(args):
    p, source = _load(args)
    elt = parse_element_expr(p, args.element)
    t = delta(p, elt)
    pairs = [{"left": word_to_str(p, l), "right": word_to_str(p, r),
              "coeff": scalar_to_expr(c)}
             for (l, r), c in sorted(t.terms.items())]
    payload = {"input": args.element, "coproduct": tensor_to_str(p, t),
               "terms": pairs}
    _emit(args, {"command": "delta", "presentation": source, "report": payload},
          "delta(%s) = %s" % (args.element, payload["coproduct"]))
    return EXIT_OK


def cmd_primitives(args):
    p, source = _load(args)
    if args.weight:
        weights = [parse_group_element(p.group, args.weight)]
    else:
        weights = p.group.ball(args.group_bound)
    spaces = []
    lines = []
    for w in weights:
        space = find_skew_primitives(p, w, degree_bound=args.degree,
                                     group_word_bound=args.group_bound)
        if space.dim == 0 and not args.weight:
            continue
        spaces.append({
            "weight": p.group.format_element(w),
            "dim": space.dim,
            "has_coradical_line": space.has_coradical_line,
            "basis": [element_to_str(p, e) for e in space.basis],
            "witnesses": [element_to_str(p, e) for e in space.witnesses()],
        })
        lines.append("weight %s: dim %d%s" % (
            p.group.format_element(w), space.dim,
            " (contains the coradical line)" if space.has_coradical_line else ""))
        for e in space.basis:
            lines.append("  %s" % element_to_str(p, e))
    payload = {"spaces": spaces,
               "bounds_used": {"degree_bound": args.degree,
                               "group_word_bound": args.group_bound}}
    _emit(args, {"command": "primitives", "presentation": source,
                 "report": payload},
          "\n".join(lines) if lines else "no skew primitives found")
    return EXIT_OK


def cmd_invariants(args):
    p, source = _load(args)
    report = compute_invariants(p, degree_bound=args.degree,
                                group_word_bound=args.group_bound,
                                power_bound=args.power_bound)
    _emit(args, {"command": "invariants", "presentation": source,
                 "report": _invariant_payload(p, report)},
          _invariant_text(p, report))
    return EXIT_OK


def cmd_bounds(args):
    p, source = _load(args)
    report = compute_invariants(p, degree_bound=args.degree,
                                group_word_bound=args.group_bound,
                                power_bound=args.power_bound)
    results = all_bounds(p, report)
    verdict = detect_exponential(p, report, m_max=args.mmax)
    payload = {
        "invariants": _invariant_payload(p, report),
        "bounds": _bound_payload(results),
        "detector": {"classification": verdict.classification,
                     "evidence": verdict.evidence},
    }
    lines = [_invariant_text(p, report), "", "lower bounds:"]
    for r in results:
        if r.value is None:
            failing = ", ".join("%s (%s)" % (h.name, h.detail)
                                for h in r.failing())
            lines.append("  %-25s no bound: %s" % (r.rule, failing))
        else:
            lines.append("  %-25s GKdim >= %d" % (r.rule, r.value))
    lines.append("growth detector: %s" % verdict.classification)
    for e in verdict.evidence["pairs"]:
        if e["cases"]:
            lines.append("  pair %s fires %s" % (e["pair"], ", ".join(e["cases"])))
    rc = verdict.evidence.get("rank_criterion")
    if rc and rc.get("fires"):
        lines.append("  commutator rank %d exceeds weight rank %d"
                     % (rc["commutator_rank"], rc["weight_rank"]))
    _emit(args, {"command": "bounds", "presentation": source,
                 "report": payload}, "\n".join(lines))
    return EXIT_OK


def cmd_growth(args):
    p, source = _load(args)
    growth = measure_growth(p, n_max=args.nmax)
    report = compute_invariants(p, degree_bound=args.degree,
                                group_word_bound=args.group_bound,
                                power_bound=args.power_bound)
    verdict = detect_exponential(p, report, m_max=args.mmax)
    if (verdict.classification == "exponential"
            and growth.estimate["kind"] == "polynomial"):
        raise ConsistencyError(
            "detector says exponential but the measured growth is polynomial")
    payload = {
        "dims": growth.dims,
        "estimate": growth.estimate,
        "window": list(growth.window),
        "truncated": growth.truncated,
        "generating_set": growth.letters_desc,
        "detector": {"classification": verdict.classification},
        "table": growth.table(),
    }
    lines = [growth.table(), "", "estimate: %r" % (growth.estimate,),
             "detector: %s" % verdict.classification]
    if growth.truncated:
        lines.append("enumeration truncated at the word ceiling")
    _emit(args, {"command": "growth", "presentation": source,
                 "report": payload}, "\n".join(lines))
    return EXIT_RESOURCE if growth.truncated else EXIT_OK


def cmd_check_example(args):
    params = dict(_parse_param(s) for s in (args.param or []))
    outcome = run_example_check(args.name, params)
    payload = {"example": args.name,
               "params": {k: _plain(v) for k, v in params.items()},
               "passed": outcome.passed,
               "checks": outcome.lines}
    lines = []
    for c in outcome.lines:
        lines.append("%-28s expected %-12r actual %-12r %s" % (
            c["check"], c["expected"], c["actual"],
            "ok" if c["ok"] else "MISMATCH"))
    lines.append("check-example %s: %s" % (
        args.name, "pass" if outcome.passed else "FAIL"))
    _emit(args, {"command": "check-example",
                 "presentation": {"name": args.name, "source": "builtin",
                                  "params": payload["params"]},
                 "report": payload}, "\n".join(lines))
    return EXIT_OK if outcome.passed else EXIT_FAILURE


def cmd_list_examples(args):
    items = []
    lines = []
    for name in sorted(EXAMPLES):
        entry = EXAMPLES[name]
        items.append({"name": name, "description": entry.description,
                      "defaults": {k: _plain(v)
                                   for k, v in entry.defaults.items()}})
        lines.append("%-14s %s" % (name, entry.description))
        lines.append("%-14s defaults: %r" % ("", entry.defaults))
    _emit(args, {"command": "list-examples",
                 "presentation": {"name": "-", "source": "none", "params": {}},
                 "report": {"examples": items}}, "\n".join(lines))
    return EXIT_OK


def _nonnegative(text):
    """argparse type of the bound flags: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative, got %d" % value)
    return value


def _horizon(text):
    """argparse type of --nmax: an integer from 0 to the parser's size cap,
    since the growth sequence holds n_max + 1 entries."""
    value = _nonnegative(text)
    if value > _SIZE_CEILING:
        raise argparse.ArgumentTypeError("%d exceeds the cap %d" % (value, _SIZE_CEILING))
    return value


def _add_common(sub, element=False, weight=False):
    sub.add_argument("file", nargs="?", help="presentation file (JSON)")
    sub.add_argument("--example", help="builtin example name")
    sub.add_argument("--param", action="append", metavar="K=V",
                     help="builtin parameter override")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--degree", type=_nonnegative, default=6,
                     help="y-degree bound for searches")
    sub.add_argument("--group-bound", dest="group_bound", type=_nonnegative,
                     default=6,
                     help="group word-length bound")
    sub.add_argument("--power-bound", dest="power_bound", type=_nonnegative,
                     default=6,
                     help="largest power tested for primitivity")
    sub.add_argument("--nmax", type=_horizon, default=12,
                     help="growth measurement horizon")
    sub.add_argument("--mmax", type=_nonnegative, default=12,
                     help="exponent ceiling for the relation search")
    if element:
        sub.add_argument("--element", required=True,
                         help="element expression, e.g. '2 * g1 y1 + y2'")
    if weight:
        sub.add_argument("--weight", help="group word, e.g. 'g1^2'")


def build_parser():
    parser = _Parser(prog="hopfgrow",
                     description="exact invariants, growth bounds, and growth "
                                 "measurements for pointed Hopf algebra "
                                 "presentations")
    subs = parser.add_subparsers(dest="command", required=True)
    s = subs.add_parser("normalize", help="normal form of an element")
    _add_common(s, element=True)
    s.set_defaults(func=cmd_normalize)
    s = subs.add_parser("delta", help="coproduct of an element")
    _add_common(s, element=True)
    s.set_defaults(func=cmd_delta)
    s = subs.add_parser("primitives", help="skew-primitive spaces by weight")
    _add_common(s, weight=True)
    s.set_defaults(func=cmd_primitives)
    s = subs.add_parser("invariants", help="weight/commutator invariant report")
    _add_common(s)
    s.set_defaults(func=cmd_invariants)
    s = subs.add_parser("bounds", help="invariants, all lower bounds, detectors")
    _add_common(s)
    s.set_defaults(func=cmd_bounds)
    s = subs.add_parser("growth", help="measured growth and its classification")
    _add_common(s)
    s.set_defaults(func=cmd_growth)
    s = subs.add_parser("check-example",
                        help="compare a builtin against its expected values")
    s.add_argument("name")
    s.add_argument("--param", action="append", metavar="K=V")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_check_example)
    s = subs.add_parser("list-examples", help="catalog of builtin examples")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(func=cmd_list_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            word_ceiling()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except PresentationError as exc:
        print("presentation error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except NonConfluentError as exc:
        print("non-confluent: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    except (ConsistencyError, ScalarShapeError) as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    except ResourceCeilingError as exc:
        print("resource ceiling: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
