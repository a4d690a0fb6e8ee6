"""Command-line front end.

Verbs: measure, eq, normalize, count, qe, oracle, certify.  Inputs are
presentation documents (JSON, the ring schema) or inline formulas; all output
is deterministic text with exact rationals.  Exit codes: 0 success (or
Equal / valid), 1 NotEqual (or invalid certificate), 2 usage or input error,
3 divergent measure or infinite fiber.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .algebra import format_rational, parse_rational, variable_name
from .measure import (
    DivergesError,
    ExpPolynomial,
    InputError,
    PAdicContext,
)
from .oracle import (
    BudgetExceededError,
    WindowTooSmallError,
    truncated_measure,
)
from .presburger import (
    FormulaSyntaxError,
    conj,
    format_formula,
    free_variables,
    parse,
    parse_domain,
    qe,
)
from .semilinear import (
    InfiniteFiberError,
    NotRectilinearizableError,
    OutOfDomainError,
    count_parametric,
    to_cells,
)
from .ring import (
    NotEqual,
    Presentation,
    certificate_from_document,
    certificate_to_document,
    decide_equal,
    find_invalid_step,
    from_document,
    measure_function,
    normalize_to_basic,
    to_document,
)

_USAGE_ERRORS = (
    FormulaSyntaxError,
    OutOfDomainError,
    NotRectilinearizableError,
    WindowTooSmallError,
    BudgetExceededError,
    ValueError,
    KeyError,
    OSError,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_document(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except RecursionError:
        # json recurses once per nesting level; the traceback would exit 1
        raise InputError(f"document {path} nests too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"document {path} is not a JSON object")
    return doc


def _load_presentation(path: str, prime: int) -> Presentation:
    pres = from_document({"prime": prime, **_read_document(path)}, f"document {path}")
    if pres.ctx.p != prime:
        raise InputError(f"document prime {pres.ctx.p} does not match --prime {prime}")
    return pres


def _parse_assignment(text: str | None) -> dict[str, int] | None:
    if text is None:
        return None
    point: dict[str, int] = {}
    if text.strip():
        for item in text.split(","):
            name, _, value = item.partition("=")
            if not _:
                raise InputError(f"bad assignment entry {item!r}")
            name = variable_name(name.strip())
            if name in point:
                raise InputError(f"--at assigns {name} twice")
            number = parse_rational(value)
            if number.denominator != 1:
                raise InputError(f"--at value {value.strip()} of {name} is not an integer")
            point[name] = number.numerator
    return point


def _print_exp_poly(e: ExpPolynomial) -> None:
    if not e.terms:
        print("0")
        return
    for term in e.terms:
        guard = format_formula(conj(term.guard))
        print(f"sum[ {guard} ; {term.poly} ; p^({term.exponent}) ]")


def _require_point(point: dict[str, int], names: Sequence[str]) -> dict[str, int]:
    missing = [v for v in names if v not in point]
    if missing:
        raise InputError(f"--at misses parameters {missing}")
    unknown = [v for v in point if v not in names]
    if unknown:
        raise InputError(f"--at names {unknown}, which are not parameters")
    return point


def _cmd_measure(args) -> int:
    ctx = PAdicContext(args.prime)
    pres = _load_presentation(args.document, ctx.p)
    mf = measure_function(pres)
    point = _parse_assignment(args.at)
    if point is None:
        _print_exp_poly(mf.exp_poly)
        return 0
    value = mf.evaluate(_require_point(point, pres.param_vars))
    print(format_rational(value))
    return 0


def _cmd_eq(args) -> int:
    ctx = PAdicContext(args.prime)
    left = _load_presentation(args.left, ctx.p)
    right = _load_presentation(args.right, ctx.p)
    result = decide_equal(left, right)
    if not isinstance(result, NotEqual):
        print("Equal")
        return 0
    at = ",".join(f"{k}={v}" for k, v in result.witness)
    print(f"NotEqual at {at or '()'}: "
          f"{format_rational(result.value1)} != {format_rational(result.value2)}")
    return 1


def _cmd_normalize(args) -> int:
    ctx = PAdicContext(args.prime)
    pres = _load_presentation(args.document, ctx.p)
    ell, basic, cert = normalize_to_basic(pres)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as handle:
            json.dump(certificate_to_document(cert), handle, indent=1)
            handle.write("\n")
    print(f"ell {ell}")
    print(json.dumps(to_document(basic.presentation), indent=1))
    return 0


def _cmd_count(args) -> int:
    PAdicContext(args.prime)  # the prime is validated even though counting is p-free
    f = parse_domain(args.formula)
    lambda_vars: list[str] = []
    for item in args.lambda_vars.split(","):
        if item.strip():
            name = variable_name(item.strip())
            if name in lambda_vars:
                raise InputError(f"--lambda-vars names {name} twice")
            lambda_vars.append(name)
    domain = parse_domain(args.domain)
    params = sorted((set(free_variables(f)) | set(free_variables(domain)))
                    - set(lambda_vars))
    cells = to_cells(f, lambda_vars, params)
    piecewise = count_parametric(cells, domain, params)
    point = _parse_assignment(args.at)
    if point is not None:
        print(format_rational(piecewise.evaluate(_require_point(point, params))))
        return 0
    for guard, poly in piecewise.pieces:
        print(f"count[ {format_formula(conj(guard))} ; {poly} ]")
    return 0


def _cmd_qe(args) -> int:
    print(format_formula(qe(parse(args.formula))))
    return 0


def _cmd_oracle(args) -> int:
    ctx = PAdicContext(args.prime)
    pres = _load_presentation(args.document, ctx.p)
    point = _require_point(_parse_assignment(args.at) or {}, pres.param_vars)
    bracket = truncated_measure(pres, point, args.depth, args.window)
    print(f"bracket[ {format_rational(bracket.lower)} , "
          f"{format_rational(bracket.upper)} ] depth={bracket.depth} "
          f"window={bracket.valuation_window}")
    return 0


def _cmd_certify(args) -> int:
    PAdicContext(args.prime)
    cert = certificate_from_document(_read_document(args.certificate))
    for step in cert.steps:
        if step.before.ctx.p != args.prime:
            raise InputError("certificate prime does not match --prime")
    bad = find_invalid_step(cert)
    if bad is None:
        print("valid")
        return 0
    print(f"invalid step {bad}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-measure",
        description="exact p-adic measures of cellular definable families",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("-p", "--prime", type=int, required=True)
        p.add_argument("--at", nargs="?", const="", default=None,
                       help="parameter point, e.g. s=3,t=5 (empty for none)")

    p = sub.add_parser("measure", help="measure function of a presentation")
    p.add_argument("document")
    add_common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("eq", help="decide equality of two presentations")
    p.add_argument("left")
    p.add_argument("right")
    add_common(p)
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("normalize", help="normalize to a basic presentation")
    p.add_argument("document")
    p.add_argument("--cert", help="write the replayable certificate here")
    add_common(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("count", help="parametric fiber cardinalities")
    p.add_argument("--formula", required=True)
    p.add_argument("--lambda-vars", dest="lambda_vars", required=True,
                   help="comma-separated counted variables")
    p.add_argument("--domain", default="true")
    add_common(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("qe", help="quantifier elimination for a formula")
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_qe)

    p = sub.add_parser("oracle", help="brute-force measure bracket")
    p.add_argument("document")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--window", type=int, default=12)
    add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("certify", help="replay a certificate")
    p.add_argument("certificate")
    add_common(p)
    p.set_defaults(fn=_cmd_certify)

    return parser


def run(argv) -> int:
    """Dispatch one command line; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DivergesError, InfiniteFiberError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
