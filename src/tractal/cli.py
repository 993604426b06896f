"""Command-line front end: classify, complexity, sweep, verify, oracle-compare.

Exit codes: 0 success, 1 verification failure, 2 unsupported criterion,
3 invalid input, 4 resource cap or out of memory; a stdout closed by its
reader exits 0.
Reports are JSON; sweeps emit CSV.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import complexity, products, spectra
from .errors import (
    CapExceededError,
    InvalidInputError,
    TractalError,
    UnsupportedCriterionError,
)
from .sequences import SequenceDescriptor
from .xreal import jsonable_float

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNSUPPORTED_CRITERION = 2
EXIT_INVALID_INPUT = 3
EXIT_RESOURCE_CAP = 4


# ---------------------------------------------------------------------------
# family documents
# ---------------------------------------------------------------------------

# kind -> (constructor, required fields in argument order, optional fields)
_SEQUENCE_KINDS = {
    "constant": (SequenceDescriptor.constant, ("c",), ()),
    "power": (SequenceDescriptor.power, ("c", "alpha"), ()),
    "log_growth": (SequenceDescriptor.log_growth, ("theta",), ()),
    "explicit": (SequenceDescriptor.explicit, ("values",), ("liminf_log_ratio", "limit")),
}

_FAMILY_KINDS = {
    "euler": (spectra.euler, ("r",), ()),
    "wiener": (spectra.wiener, ("r",), ()),
    "korobov": (spectra.korobov, ("r", "g"), ()),
    "gaussian": (spectra.gaussian, ("gamma_sq",), ()),
    "analytic_korobov": (spectra.analytic_korobov, ("omega", "a", "b"), ()),
    "custom": (spectra.custom_tabulated, ("tables",), ("tail", "tau0", "a_star", "b_limit")),
}


def _check_fields(doc, required, optional, context):
    keys = set(doc)
    unknown = keys - required - optional
    if unknown:
        raise InvalidInputError(f"{context}: unknown fields {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise InvalidInputError(f"{context}: missing fields {sorted(missing)}")


def _number(value, what, optional=False):
    """A JSON number as a float.  Booleans, strings, lists and NaN are not
    numbers; None (absent or null) is allowed only for an optional field."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise InvalidInputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the double range
        raise InvalidInputError(f"{what} is out of range: {value}")


def _numbers(value, what):
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a list of numbers, got {value!r}")
    return [_number(v, what) for v in value]


def parse_sequence(doc, name) -> SequenceDescriptor:
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise InvalidInputError(f"{name}: expected an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in _SEQUENCE_KINDS:
        raise InvalidInputError(f"{name}: unknown sequence kind {kind!r}")
    make, required, optional = _SEQUENCE_KINDS[kind]
    _check_fields(doc, {"kind", *required}, set(optional), name)

    def field(key, absent_ok=False):
        what = f"{name}: {key}"
        if key == "values":
            return _numbers(doc[key], what)
        return _number(doc.get(key), what, optional=absent_ok)
    return make(*[field(key) for key in required], **{key: field(key, True) for key in optional})


def parse_family(doc) -> spectra.FamilySpec:
    if not isinstance(doc, dict) or not isinstance(doc.get("family"), str):
        raise InvalidInputError("family document must be an object with a 'family' field")
    fam = doc["family"]
    if fam not in _FAMILY_KINDS:
        raise InvalidInputError(f"unknown family {fam!r}")
    make, required, optional = _FAMILY_KINDS[fam]
    _check_fields(doc, {"family", *required}, set(optional), f"family {fam!r}")
    if fam != "custom":
        return make(*[_number(doc[key], key) if key == "omega" else parse_sequence(doc[key], key)
                      for key in required])
    tail = None
    if doc.get("tail") is not None:
        tdoc = doc["tail"]
        if not isinstance(tdoc, dict):
            raise InvalidInputError(f"tail must be an object, got {tdoc!r}")
        _check_fields(tdoc, {"kind"}, {"ratio", "exponent"}, "tail")
        tail = spectra.TailModel(
            kind=tdoc["kind"],
            ratio=_number(tdoc.get("ratio", 0.0), "tail: ratio"),
            exponent=_number(tdoc.get("exponent", 0.0), "tail: exponent"))
    if not isinstance(doc["tables"], list):
        raise InvalidInputError(f"tables must be a list of lists, got {doc['tables']!r}")
    return make(
        [_numbers(row, f"table {i + 1}") for i, row in enumerate(doc["tables"])],
        tail=tail,
        tau0=_number(doc.get("tau0"), "tau0", optional=True),
        a_star=_number(doc.get("a_star"), "a_star", optional=True),
        b_limit=_number(doc.get("b_limit"), "b_limit", optional=True))


def _load_family(path) -> spectra.FamilySpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read family file: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed family JSON: {exc}")
    return parse_family(doc)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_float_list(text):
    try:
        vals = [float(t) for t in text.split(",") if t]
    except ValueError:
        raise InvalidInputError(f"bad float list {text!r}")
    if not vals:
        raise InvalidInputError("empty value list")
    return vals


def _parse_int_list(text, cap=products.DIMENSION_CAP):
    """A --d list: comma-separated integers and ``a:b`` ranges.

    No value may pass cap, the family's (``products.dimension_cap``), and a
    range is checked before it is expanded: its end may not pass cap, nor
    the list grow past ``products.DIMENSION_CAP`` values.
    """
    out = []
    for tok in text.split(","):
        if not tok:
            continue
        if ":" in tok:
            lo, hi = tok.split(":", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise InvalidInputError(f"bad range {tok!r}")
            if hi > cap:
                raise CapExceededError(f"range {tok!r} exceeds the dimension cap {cap}")
            if len(out) + hi - lo >= products.DIMENSION_CAP:
                raise CapExceededError(f"range {tok!r} makes the list longer than the "
                                       f"dimension cap {products.DIMENSION_CAP}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise InvalidInputError(f"bad integer {tok!r}")
            products.check_dimension(out[-1], cap)
    if not out:
        raise InvalidInputError("empty value list")
    return out


def _emit(text, out_path):
    if out_path:
        import tempfile

        directory = os.path.dirname(os.path.abspath(out_path))
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tractal-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, out_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise InvalidInputError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump_json(obj):
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_classify(args) -> int:
    from . import tractability  # only classify reads it; counting commands must not load it

    spec = _load_family(args.family)
    report = tractability.classify(spec, args.criterion)
    _emit(_dump_json(report.to_json_dict()), args.out)
    return EXIT_OK


def run_complexity(args) -> int:
    spec = _load_family(args.family)
    eps_list = _parse_float_list(args.epsilon)
    d_list = _parse_int_list(args.d, products.dimension_cap(spec))
    if len(eps_list) != 1 or len(d_list) != 1:
        raise InvalidInputError("complexity takes a single epsilon and a single d; use sweep for grids")
    eps, d = eps_list[0], d_list[0]
    result = complexity.info_complexity_grid(spec, args.criterion, [d], [eps], args.cap)[0]
    doc = {
        "epsilon": eps,
        "d": d,
        "criterion": args.criterion,
        "n": result.n,
        "saturated": result.saturated,
        "threshold": jsonable_float(result.threshold),
    }
    _emit(_dump_json(doc), args.out)
    if result.saturated and args.strict:
        print("count saturated at the cap under --strict", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    return EXIT_OK


def run_sweep(args) -> int:
    """CSV of n(eps, d), d ascending and eps descending within each d.

    The grid is counted by one walk of the product spectrum per band (see
    :func:`complexity.info_complexity_grid`): under nor each epsilon is one
    band over all d, and under abs so it is when every leading eigenvalue
    is 1; otherwise each point is a band of its own.
    """
    spec = _load_family(args.family)
    eps_list = sorted(_parse_float_list(args.epsilon), reverse=True)
    d_list = sorted(set(_parse_int_list(args.d, products.dimension_cap(spec))))
    grid = [(d, eps) for d in d_list for eps in eps_list]
    results = complexity.info_complexity_grid(spec, args.criterion, d_list, eps_list, args.cap)
    if args.strict and any(r.saturated for r in results):
        print("a sweep point saturated at the cap under --strict", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    lines = ["family,criterion,epsilon,d,n,saturated"]
    for (d, eps), res in zip(grid, results):
        lines.append(f"{spec.family.value},{args.criterion},{eps!r},{d},"
                     f"{res.n},{'true' if res.saturated else 'false'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def run_oracle_compare(args) -> int:
    import numpy as np

    spec = _load_family(args.family)
    d_list = _parse_int_list(args.d)
    if len(d_list) != 1:
        raise InvalidInputError(f"oracle-compare takes one --d value, got {args.d!r}")
    d = d_list[0]
    problem = products.ProductProblem.from_family(spec, d)
    J = args.j
    # the box is kept in the problem's space: a log-space count compares log
    # sums with ln T, and their exp can round onto a subnormal threshold;
    # their values are the ones brute_force_oracle gives
    space = problem.space
    box = np.sort(products.box_folds(problem, J, space))[::-1]
    oracle = space.values(box)
    if not 0.0 < oracle[0] < math.inf:
        raise InvalidInputError(
            "every product in the box underflows to 0, or the largest overflows, "
            "in double precision; nothing to compare")
    m = min(args.m, oracle.size)
    top = products.product_eigenvalues_top(problem, m)
    floor = products.oracle_validity_floor(problem, J)
    # the box holds every product above its floor, so only those compare
    compared = int(np.count_nonzero(top > floor))
    top_dev = float(np.max(np.abs(top[:compared] - oracle[:compared]), initial=0.0))
    t_lo = max(floor * 1.0000001, oracle[-1])
    t_hi = oracle[0]
    mismatches = 0
    # clamp at the smallest positive double: a box of subnormal products
    # still has thresholds below its largest product
    thresholds = np.geomspace(max(t_lo, math.ulp(0.0)), t_hi, 17)[:-1] * 0.9999
    for T in thresholds:
        if T <= floor:
            continue
        a = products.count_products_above(problem, float(T)).count
        b = int((box > space.term(T)).sum())
        if a != b:
            mismatches += 1
    doc = {
        "d": d,
        "m": m,
        "box_side": J,
        "top_compared": compared,
        "top_max_abs_deviation": top_dev,
        "count_mismatches": mismatches,
        "pass": top_dev == 0.0 and mismatches == 0,
    }
    _emit(_dump_json(doc), args.out)
    return EXIT_OK if doc["pass"] else EXIT_VERIFY_FAILED


def run_verify(args) -> int:
    from . import verify  # loads numpy; sweep and complexity must not

    suites = {row.suite for row in verify.CHECKS}
    if args.suite != "all" and args.suite not in suites:
        raise InvalidInputError(
            f"unknown suite {args.suite!r}; available: {', '.join(sorted(suites))}, all")
    checks = [row.run() for row in verify.CHECKS if args.suite in ("all", row.suite)]
    ok = all(c["pass"] for c in checks)
    doc = {"suite": args.suite, "checks": checks, "pass": ok}
    _emit(_dump_json(doc), args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tractal",
        description="Information complexity and tractability for tensor-product spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--family": dict(required=True, help="path to a family JSON document"),
        "--criterion": dict(choices=("abs", "nor"), default="nor"),
        "--epsilon": dict(default="0.5", help="comma-separated list"),
        "--d": dict(default="1", help="comma-separated list; a:b for ranges"),
        "--cap": dict(type=int, default=products.COUNTING_CAP),
        "--strict": dict(action="store_true"),
        "--suite": dict(default="all"),
        "--m": dict(type=int, default=200),
        "--j": dict(type=int, default=30),
        "--out": dict(default=None, help="write output to this path atomically"),
    }
    counting = ("--family", "--criterion", "--epsilon", "--d", "--cap", "--strict", "--out")
    for name, text, names in (
            ("classify", "tractability flags and exponents",
             ("--family", "--criterion", "--out")),
            ("complexity", "information complexity at one (epsilon, d)", counting),
            ("sweep", "CSV of n(epsilon, d) over a grid", counting),
            ("verify", "run a named verification suite", ("--suite", "--out")),
            ("oracle-compare", "enumeration vs brute-force oracle",
             ("--family", "--d", "--m", "--j", "--out"))):
        p = sub.add_parser(name, help=text)
        for opt in names:
            p.add_argument(opt, **options[opt])
    return parser


_COMMANDS = {
    "classify": run_classify,
    "complexity": run_complexity,
    "sweep": run_sweep,
    "verify": run_verify,
    "oracle-compare": run_oracle_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code not in (0, None) else 0
    with warnings.catch_warnings():
        # a library warning is one line, as an error is, with no source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code = _COMMANDS[args.command](args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # The reader closed stdout (`| head`) and has what it wanted.  Point
            # stdout at devnull, so the interpreter's final flush cannot raise.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        except UnsupportedCriterionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED_CRITERION
        except (CapExceededError, MemoryError) as exc:
            # the interpreter's MemoryError carries no message
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_RESOURCE_CAP
        # a Warning arrives here only when the warning filters raise it as an error
        except (InvalidInputError, TractalError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
