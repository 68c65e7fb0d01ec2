"""Batch command-line front end.

Subcommands: chars, induce, lens, circle, growth, zoo, ringcheck, verify.
Output is deterministic: identical invocations emit byte-identical JSON
(timestamps only appear behind --meta).  Exit codes: 0 success, 1 usage or
validation error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .chars import (FiniteGroup, RhoVector, class_space_basis, rank_minus,
                    rank_plus, tau_orbits)
from .circle import (QuadratureConfig, QuadratureError, SubsetFamily,
                     eta_partial, product_with_ahat)
from .cyclotomic import CyclotomicValue
from .lens import LensSpace, lens_delocalized_rho
from .rho import (SubgroupInclusion, ZooRhoTable, induce_rho,
                  rho2_from_delocalized, ring_from_orders)
from .serialize import value_json
from .verify import verify_all
from .zoo import (CapExceededError, Cyclic, HnnShift, Lamplighter,
                  QSemidirect, ZooError, class_ball, class_ball_rationals,
                  class_intersect_integers, conjugate_of_one_test,
                  growth_classify, normalize, word_ball)


# input caps, checked before any work; going over one exits 1
LENS_N_CAP = 127
LENS_WEIGHTS_CAP = 8
TERMS_CAP = 1_000_000
AUDIT_TERMS_CAP = 64  # an audit term takes about a second; 64 errors are shown
GROUP_ORDER_CAP = 256  # a cyclic:N table holds N^2 entries; table:PATH checks in O(n^3)


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{what} {value} is above the cap of {cap}")


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict
    diagnostics: list = field(default_factory=list)
    exit_code: int = 0

    def to_json(self) -> dict:
        return {"command": self.command, "inputs": self.inputs,
                "results": self.results, "diagnostics": self.diagnostics,
                "exit_code": self.exit_code}


class UsageError(Exception):
    pass


# negative numbers that an option may take as its value: -7, -1/2, -2.5,
# -1e-9, -inf (argparse itself knows only the forms -7 and -2.5 and reads
# the others as unknown options)
_NEGATIVE_NUMBER = re.compile(r"-(\d+(/\d+)?|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?)\Z",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _parse_group(token: str):
    if token.startswith("cyclic:"):
        order = int(token.split(":", 1)[1])
        _check_cap("group order", order, GROUP_ORDER_CAP)
        return FiniteGroup.cyclic(order)
    if token.startswith("table:"):
        data = json.loads(Path(token.split(":", 1)[1]).read_text())
        if not isinstance(data, dict) or not isinstance(data.get("elements"), list):
            raise ValueError(f"{token}: expected a JSON object with an 'elements' list")
        _check_cap("group order", len(data["elements"]), GROUP_ORDER_CAP)
        return FiniteGroup.from_json(data)
    raise UsageError(f"unknown group descriptor {token!r} (use cyclic:N or table:PATH)")


def _parse_zoo_group(token: str):
    if token.startswith("cyclic:"):
        return Cyclic(int(token.split(":", 1)[1]))
    if token.startswith("lamplighter:"):
        return Lamplighter(int(token.split(":", 1)[1]))
    if token in ("qsemi", "qsemidirect"):
        return QSemidirect()
    if token == "hnn":
        return HnnShift()
    raise UsageError(f"unknown zoo group {token!r} "
                     "(use cyclic:N, lamplighter:N, qsemi, hnn)")


def _parse_values(text: str, group: FiniteGroup) -> RhoVector:
    """Comma list of rationals, or @file.json holding cyclotomic class values."""
    if text.startswith("@"):
        data = json.loads(Path(text[1:]).read_text())
        vals = [CyclotomicValue.from_json(v) for v in data["values"]]
        return RhoVector(group, tuple(vals))
    vals = [Fraction(tok) for tok in text.split(",")]
    return RhoVector(group, tuple(vals))


_SUBSET_SYNTAX = "use finite:n1,n2,..., ap:a,d, geo:b or primes"
_SUBSET_ARITY = {"finite": None, "ap": 2, "geo": 1, "primes": 0}  # None: one or more
_INTEGER = re.compile(r"\s*[+-]?\d+\s*")  # what int() reads, bar "_"


def _parse_subset(token: str) -> SubsetFamily:
    kind, colon, rest = token.partition(":")
    if kind not in _SUBSET_ARITY:
        raise UsageError(f"unknown subset family {token!r} ({_SUBSET_SYNTAX})")
    fields = rest.split(",") if colon else []
    arity = _SUBSET_ARITY[kind]
    if ((not fields if arity is None else len(fields) != arity)
            or not all(_INTEGER.fullmatch(x) for x in fields)):
        raise UsageError(f"malformed subset {token!r} ({_SUBSET_SYNTAX})")
    args = [int(x) for x in fields]
    if kind == "finite":
        return SubsetFamily.finite(args)
    if kind == "ap":
        return SubsetFamily.arithmetic(*args)
    if kind == "geo":
        return SubsetFamily.geometric(*args)
    return SubsetFamily.primes()


def _add_common(parser, suppress: bool):
    default = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--format", choices=("json", "tsv", "pretty"),
                        default=default("json"), help="output format")
    parser.add_argument("--meta", action="store_true",
                        default=default(False),
                        help="attach a metadata block (timestamps) to JSON output")
    parser.add_argument("--config", type=str, default=default(None),
                        help="key=value config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="etarho",
                     description="Exact/numerical eta-rho invariant calculator")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("chars", help="class-function bases and ranks",
                       parents=[common])
    p.add_argument("--group", required=True, help="cyclic:N or table:PATH")
    p.add_argument("--basis", choices=("plus", "minus"), default="plus")
    p.add_argument("--include-identity", action="store_true",
                   help="count the identity orbit in rank_plus as well")

    p = sub.add_parser("induce", parents=[common], help="push a rho table along an inclusion")
    p.add_argument("--sub", required=True, help="cyclic:N or table:PATH")
    p.add_argument("--target", required=True,
                   help="cyclic:N, table:PATH, or zoo group (lamplighter:N...)")
    p.add_argument("--map", required=True, dest="mapping",
                   help="comma list: image element index per subgroup element, "
                        "or a word per element for zoo targets (semicolon-separated)")
    p.add_argument("--rho", required=True,
                   help="comma list of rationals per class, or @file.json")

    p = sub.add_parser("lens", parents=[common], help="delocalized rho table of a lens space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma list, e.g. 1,1")
    p.add_argument("--defect-scale", default="1", help="overall rational scale")

    p = sub.add_parser("circle", parents=[common], help="eta terms over a subset of the naturals")
    p.add_argument("--subset", required=True,
                   help="finite:1,2,3 | ap:a,d | geo:2 | primes")
    p.add_argument("--terms", type=int, default=100)
    p.add_argument("--tol", type=float, default=None,
                   help="absolute tolerance for audit quadrature")
    p.add_argument("--audit", action="store_true",
                   help="full quadrature per term instead of the closed form")
    p.add_argument("--ahat", default=None,
                   help="rational A-hat multiplier of a 4k-dimensional factor")

    p = sub.add_parser("growth", parents=[common], help="conjugacy-class growth estimate")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True, help="word, e.g. 'lamp:0' or 'q:1'")
    p.add_argument("--max-radius", type=int, default=10)

    p = sub.add_parser("zoo", parents=[common], help="normal forms and conjugacy balls")
    p.add_argument("--group", required=True)
    p.add_argument("--normalize", default=None,
                   help="word to normalize ('-' reads words from stdin)")
    p.add_argument("--ball", type=int, default=None,
                   help="word-ball radius to enumerate")
    p.add_argument("--class-of", default=None, help="word whose conjugacy ball to compute")
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--intersect-integers", action="store_true",
                   help="integers in the conjugacy class of 1 in Q")

    p = sub.add_parser("ringcheck", parents=[common], help="denominator-ring membership")
    p.add_argument("--orders", required=True,
                   help="comma list of element orders; 'inf' allowed")
    p.add_argument("--value", required=True, help="rational to test, e.g. 7/15")
    p.add_argument("--invert-two", action="store_true",
                   help="adjoin 1/2 (signature-operator ring)")

    p = sub.add_parser("verify", parents=[common], help="run the acceptance suites")
    p.add_argument("--suite", default=None,
                   help="comma list of suite numbers (default: all)")
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_chars(args) -> RunReport:
    group = _parse_group(args.group)
    basis = class_space_basis(group, args.basis)
    results = {
        "group": group.name,
        "order": len(group),
        "classes": [list(c) for c in group.classes],
        "class_labels": [[group.labels[g] for g in c] for c in group.classes],
        "tau_orbits": [list(o) for o in tau_orbits(group)],
        "rank_plus": rank_plus(group, include_identity=args.include_identity),
        "rank_minus": rank_minus(group),
        "basis": [{"values": [value_json(v) for v in f.values]} for f in basis],
        "basis_parity": args.basis,
    }
    return RunReport("chars", {"group": args.group, "basis": args.basis,
                               "include_identity": args.include_identity}, results)


def _cmd_induce(args) -> RunReport:
    sub_group = _parse_group(args.sub)
    diagnostics = []
    try:
        target = _parse_group(args.target)
        mapping = tuple(int(tok) for tok in args.mapping.split(","))
    except UsageError:
        target = _parse_zoo_group(args.target)
        mapping = tuple(normalize(target, word) for word in args.mapping.split(";"))
    rho = _parse_values(args.rho, sub_group)
    inclusion = SubgroupInclusion(sub_group, target, mapping)
    induced = induce_rho(inclusion, rho)
    if isinstance(induced, ZooRhoTable):
        results = {
            "target": target.name,
            "values": [{"class_key": repr(k), "value": value_json(v)}
                       for k, v in sorted(induced.values.items(), key=lambda kv: repr(kv[0]))],
        }
    else:
        results = {
            "target": target.name,
            "classes": [list(c) for c in target.classes],
            "values": [value_json(v) for v in induced.values],
        }
    return RunReport("induce", {"sub": args.sub, "target": args.target,
                                "map": args.mapping, "rho": args.rho},
                     results, diagnostics)


def _cmd_lens(args) -> RunReport:
    weights = tuple(int(x) for x in args.weights.split(","))
    _check_cap("lens --n", args.n, LENS_N_CAP)
    _check_cap("number of lens --weights", len(weights), LENS_WEIGHTS_CAP)
    space = LensSpace(args.n, weights)
    scale = Fraction(args.defect_scale)
    rho = lens_delocalized_rho(space, scale)
    ring = ring_from_orders([space.n])
    rho2 = rho2_from_delocalized(rho)
    diagnostics = []
    symmetric = space.parity == "plus"
    parity_holds = rho.is_tau_symmetric() if symmetric else rho.is_tau_antisymmetric()
    if not parity_holds:
        diagnostics.append("parity law violated (unexpected)")
    results = {
        "space": str(space),
        "dim": space.dim,
        "expected_parity": "symmetric" if symmetric else "antisymmetric",
        "parity_holds": parity_holds,
        "table": [{"class": f"g^{j}", "value": value_json(v)}
                  for j, v in enumerate(rho.values)],
        "rho2": value_json(rho2),
        "rho2_in_ring": (rho2.is_rational()
                         and ring.contains(rho2.as_rational())),
        "ring": str(ring),
    }
    return RunReport("lens", {"n": args.n, "weights": list(weights),
                              "defect_scale": str(scale)}, results, diagnostics)


def _check_printable(what: str, q: Fraction) -> None:
    """Exit 1 on an exact coefficient longer than str() may print, rather
    than fail inside the JSON rendering; the process-wide limit stays."""
    limit = sys.get_int_max_str_digits()
    for part, n in (("numerator", abs(q.numerator)), ("denominator", q.denominator)):
        if limit and n >= 10 ** limit:  # Decimal counts the digits without str()
            raise ValueError(f"{what} has a {Decimal(n).adjusted() + 1}-digit {part}, "
                             f"above the {limit} digits that may be printed")


def _cmd_circle(args) -> RunReport:
    family = _parse_subset(args.subset)
    _check_cap("circle --terms", args.terms, TERMS_CAP)
    if args.audit:  # a finite subset stops at its own size
        audited = min(args.terms, len(family.params)) if family.is_finite() else args.terms
        _check_cap("number of audited terms", audited, AUDIT_TERMS_CAP)
    cfg = QuadratureConfig() if args.tol is None else QuadratureConfig(abs_tol=args.tol)
    report = eta_partial(family, args.terms, cfg, audit=args.audit)
    if args.ahat is not None:
        report = product_with_ahat(report, Fraction(args.ahat))
    for what, exact in (("the exact sum over the subset", report.verdict.exact),
                        ("the exact partial sum", report.exact)):
        if exact is not None:
            _check_printable(what, exact.coeff)
    diagnostics = []
    if report.verdict.kind == "unknown":
        diagnostics.append("no convergence certificate; verdict unknown")
    sample = max(1, report.terms_used // 50)
    results = report.to_json(sample_every=sample)
    results["per_term_errors"] = [f"{e:.3e}" for e in report.per_term_errors[:64]]
    results["partial_sums"] = [
        {"terms": m, "value": value_json(complex(v["re"], v["im"]))}
        for m, v in results["partial_sums"]]
    return RunReport("circle", {"subset": args.subset, "terms": args.terms,
                                "audit": args.audit,
                                "ahat": args.ahat, "tol": args.tol},
                     results, diagnostics)


def _cmd_growth(args) -> RunReport:
    group = _parse_zoo_group(args.group)
    element = normalize(group, args.element)
    report = growth_classify(group, element, args.max_radius)
    results = report.to_json()
    results["group"] = group.name
    results["element"] = group.format_element(element)
    return RunReport("growth", {"group": args.group, "element": args.element,
                                "max_radius": args.max_radius}, results)


def _cmd_zoo(args) -> RunReport:
    group = _parse_zoo_group(args.group)
    inputs = {"group": args.group, "radius": args.radius}
    results: dict = {"group": group.name}
    diagnostics: list = []
    if args.normalize is not None:
        words = ([line.strip() for line in sys.stdin if line.strip()]
                 if args.normalize == "-" else [args.normalize])
        inputs["normalize"] = args.normalize
        results["normal_forms"] = [
            {"word": w, "normal_form": group.format_element(normalize(group, w))}
            for w in words]
    if args.ball is not None:
        inputs["ball"] = args.ball
        ball = word_ball(group, args.ball)
        elements = sorted(((group.format_element(el), length)
                           for el, length in ball.elements.items()),
                          key=lambda pair: (pair[1], pair[0]))
        results["word_ball"] = {
            "radius": args.ball,
            "generators": list(ball.generating_set),
            "sizes_by_radius": ball.sizes_by_radius(),
            "elements": [{"normal_form": nf, "length": ln} for nf, ln in elements],
        }
    if args.class_of is not None:
        element = normalize(group, args.class_of)
        inputs["class_of"] = args.class_of
        ball = class_ball(group, element, args.radius)
        results["class_ball"] = {
            "radius": args.radius,
            "size": len(ball),
            "elements": sorted(group.format_element(el) for el in ball)[:500],
        }
        if isinstance(group, QSemidirect):
            # None marks an element outside the rational kernel: not tested
            results["class_ball"]["all_in_positive_rationals"] = all(
                conjugate_of_one_test(el) is not False for el in ball)
    if args.intersect_integers:
        if not isinstance(group, (QSemidirect, HnnShift)):
            raise UsageError("--intersect-integers needs qsemi or hnn")
        ints = class_intersect_integers(group, args.radius)
        results["class_integers"] = {"radius": args.radius, "integers": ints}
        rationals = class_ball_rationals(group, 1, args.radius)
        results["class_integers"]["rational_conjugates"] = len(rationals)
        results["class_integers"]["all_positive"] = all(q > 0 for q in rationals)
    return RunReport("zoo", inputs, results, diagnostics)


def _cmd_ringcheck(args) -> RunReport:
    orders = []
    for tok in args.orders.split(","):
        tok = tok.strip().lower()
        orders.append(float("inf") if tok in ("inf", "infinity", "oo") else int(tok))
    ring = ring_from_orders(orders, invert_two=args.invert_two)
    value = Fraction(args.value)
    results = {
        "ring": str(ring),
        "prime_support": sorted(ring.prime_support),
        "value": str(value),
        "contained": ring.contains(value),
    }
    return RunReport("ringcheck", {"orders": args.orders, "value": args.value,
                                   "invert_two": args.invert_two}, results)


def _cmd_verify(args) -> RunReport:
    if args.suite is not None and not args.suite.strip():
        raise UsageError("--suite needs a comma list of suite numbers")
    only = [int(x) for x in args.suite.split(",")] if args.suite else None
    outcome = verify_all(only)
    diagnostics = [f"criterion {r['criterion']} failed"
                   for r in outcome["suites"] if not r["passed"]]
    return RunReport("verify", {"suite": args.suite}, outcome, diagnostics,
                     exit_code=0 if outcome["all_passed"] else 2)


COMMANDS = {
    "chars": _cmd_chars,
    "induce": _cmd_induce,
    "lens": _cmd_lens,
    "circle": _cmd_circle,
    "growth": _cmd_growth,
    "zoo": _cmd_zoo,
    "ringcheck": _cmd_ringcheck,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def render(report: RunReport, fmt: str, meta: bool) -> str:
    payload = report.to_json()
    if meta:
        payload["meta"] = {"unix_time": time.time()}
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "tsv":
        rows: list = []
        _flatten("", payload["results"], rows)
        return "\n".join(f"{k}\t{v}" for k, v in rows)
    lines = [f"== {report.command} =="]
    rows = []
    _flatten("", payload["results"], rows)
    width = max((len(k) for k, _ in rows), default=0)
    lines += [f"{k.ljust(width)}  {v}" for k, v in rows]
    if report.diagnostics:
        lines.append("-- diagnostics --")
        lines += [f"  {d}" for d in report.diagnostics]
    return "\n".join(lines)


# the keys a config file may set, each with its values: the options that
# every subcommand shares (--config itself aside)
CONFIG_KEYS = {
    "format": {"json": "json", "tsv": "tsv", "pretty": "pretty"},
    "meta": {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False},
}


def _load_config(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def run(argv) -> tuple[RunReport, str, int]:
    """Parse argv, dispatch, and return (report, rendered output, exit code)."""
    parser = build_parser()
    # config file: values act as defaults, explicit flags override
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(list(argv))[0].config
    if config_path is not None:
        typed = {}
        for key, value in _load_config(config_path).items():
            if key not in CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r} "
                                 f"(a config file sets only {' and '.join(CONFIG_KEYS)})")
            if value.lower() not in CONFIG_KEYS[key]:
                raise UsageError(f"config {key}={value!r}: expected one of "
                                 f"{', '.join(CONFIG_KEYS[key])}")
            typed[key] = CONFIG_KEYS[key][value.lower()]
        parser.set_defaults(**typed)
    args = parser.parse_args(list(argv))
    if not args.command:
        raise UsageError("a subcommand is required "
                         f"(one of {', '.join(sorted(COMMANDS))})")
    report = COMMANDS[args.command](args)
    return report, render(report, args.format, args.meta), report.exit_code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        _, rendered, code = run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        build_parser().print_usage(sys.stderr)
        return 1
    except (QuadratureError, CapExceededError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ZooError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:  # a rational argument such as 1/0
        print(f"error: zero denominator: {exc}", file=sys.stderr)
        return 1
    try:
        print(rendered)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the flush at exit
        # fails no more, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
