"""Command-line front end.

Verbs: cohomology, operations, brauer, order, group, twist, dsv, superline,
classify, verify.  Complexes are JSON files
{"vertex_count": n, "maximal_simplices": [[...], ...]} or built-in corpus
names prefixed with @ (e.g. @rp2).  Reports are deterministic; --json emits
a machine-readable report.  Exit codes: 0 success, 1 domain error, 2 parse
error.  classify --enumerate exits 1 when the structures outnumber
stable2type.DEFAULT_ENUM_CAP; element orders are exact and have no cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import brauer, corpus, dsv, operations, simplicial, stable2type, superline, verify
from .exact_linalg import AbelianGroupPresentation
from .simplicial import SimplicialComplex


class DomainError(Exception):
    pass


class ParseError(Exception):
    pass


def _load_complex(source: str) -> SimplicialComplex:
    if source.startswith("@"):
        try:
            return corpus.complex_by_name(source)
        except KeyError as e:
            raise ParseError(str(e)) from e
    data = _load_json(source)
    try:
        return SimplicialComplex.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"cannot read complex from {source}: {e}") from e


def _load_json(path: str) -> dict:
    """The JSON value in a file.  ValueError covers every file that cannot
    be decoded: bad UTF-8, bad JSON, and an integer literal longer than
    sys.get_int_max_str_digits()."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read JSON from {path}: {e}") from e


def _group_dict(g: AbelianGroupPresentation) -> dict:
    return {
        "display": str(g),
        "free_rank": g.free_rank,
        "invariant_factors": list(g.invariant_factors),
    }


def _emit(args, report: dict, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_cohomology(args):
    x = _load_complex(args.complex)
    pres, basis = simplicial.cohomology(x, args.deg, args.mod)
    report = {
        "complex": args.complex,
        "degree": args.deg,
        "modulus": args.mod,
        "group": _group_dict(pres),
        "generators": [list(cls.cochain.values) for cls in basis],
    }
    _emit(args, report, [str(pres)])
    return 0


def cmd_operations(args):
    x = _load_complex(args.complex)
    lines = []
    table = []
    for q in range(0, x.dim + 1):
        pres, basis = simplicial.cohomology(x, q, 2)
        lines.append(f"H^{q}(X;Z/2) = {pres}")
        for i, cls in enumerate(basis):
            entry = {"degree": q, "index": i}
            for key, image in (
                ("sq1_nonzero", operations.sq(1, cls)),
                ("sq2_nonzero", operations.sq(2, cls)),
                ("bockstein_nonzero", operations.bockstein(cls)),
            ):
                entry[key] = any(simplicial.class_coordinates(image.cochain))
            table.append(entry)
            lines.append(
                f"  gen {q}.{i}: Sq1 {'nonzero' if entry['sq1_nonzero'] else 'zero'}, "
                f"Sq2 {'nonzero' if entry['sq2_nonzero'] else 'zero'}, "
                f"beta {'nonzero' if entry['bockstein_nonzero'] else 'zero'}"
            )
    report = {"complex": args.complex, "table": table}
    _emit(args, report, lines)
    return 0


def _load_element(x, variant, path) -> brauer.BrauerElement:
    data = _load_json(path)
    # Cochain refuses a value that is not exactly an int
    if not isinstance(data, dict) or not all(isinstance(data.get(slot), list) for slot in "abc"):
        raise ParseError("bad element JSON: need an object whose a, b and c are lists of integers")
    data.setdefault("variant", variant)
    if data["variant"] != variant:
        raise DomainError("element variant does not match --variant")
    try:
        return brauer.BrauerElement.from_json_dict(data, x)
    except ValueError as e:
        raise ParseError(f"bad element JSON: {e}") from e


def cmd_brauer(args):
    x = _load_complex(args.complex)
    op, variant = args.op, args.variant
    if op in ("group", "twist"):
        g = (brauer.abstract_group if op == "group" else brauer.twist_subgroup)(x, variant)
        _emit(args, {"op": op, "variant": variant, "group": _group_dict(g)}, [str(g)])
    elif op == "order":
        if not args.element:
            raise ParseError("--element FILE is required for order")
        el = _load_element(x, variant, args.element)
        order = brauer.element_order(el)
        _emit(args, {"op": "order", "variant": variant, "order": order}, [str(order)])
    else:
        if not (args.element and args.other):
            raise ParseError(f"--element and --other are required for {op}")
        e1 = _load_element(x, variant, args.element)
        e2 = _load_element(x, variant, args.other)
        if op == "add":
            s = brauer.add(e1, e2)
            _emit(
                args,
                {"op": "add", "variant": variant, "result": s.to_json_dict()},
                [json.dumps(s.to_json_dict(), sort_keys=True)],
            )
        else:
            eq = brauer.equals(e1, e2)
            _emit(args, {"op": "equals", "variant": variant, "equal": eq}, [str(eq).lower()])
    return 0


# the field tags DSV.to_json_dict writes: Q, or F and a prime in ASCII digits
_FP = re.compile(r"F([0-9]+)")


def _parse_field(tag) -> dsv.Field:
    """The field of a "field" tag, read as strictly as the entries: int()
    would read "F 5" and "F٥" as F5, and F0 is Q's characteristic.  A
    characteristic of more digits than dsv.JSON_MAX_CHAR is refused before
    int() reads it."""
    if tag == "Q":
        return dsv.QQ
    match = _FP.fullmatch(tag) if isinstance(tag, str) else None
    digits = match[1].lstrip("0") if match else ""
    bound = dsv.JSON_MAX_CHAR
    p = int(digits or 0) if len(digits) <= len(str(bound)) else bound
    if p >= bound:
        raise ParseError(f"a field characteristic of {len(digits)} digits is not below 2^{bound.bit_length() - 1}")
    if p < 2:
        raise ParseError(f"unknown field {tag!r} (use Q or F and a prime)")
    return dsv.Field(p)


# the forms DSV.to_json_dict writes an entry in: n over F_p, n or n/m over Q
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _entry(v, form: re.Pattern):
    """A DSV entry: a JSON int, or a string of this form.  Anything else is
    refused before it is read: Fraction("1e30000000") computes 10^30000000,
    and int() reads "1_000", " 0 " and non-ASCII digits."""
    if type(v) is not int and not (isinstance(v, str) and form.fullmatch(v)):
        raise ValueError(f"entry {v!r} is neither an integer nor a string {form.pattern}")
    return v


def _q_entry(v):
    """A Q entry of at most dsv.JSON_MAX_Q_ENTRY characters, left for
    DSV.make to read as a Fraction once every entry has passed."""
    if len(str(v)) > dsv.JSON_MAX_Q_ENTRY:
        raise ValueError(f"a Q entry of {len(str(v))} characters is longer than {dsv.JSON_MAX_Q_ENTRY}")
    return v


def _load_dsv(path: str) -> dsv.DSV:
    data = _load_json(path)
    try:
        field = _parse_field(data["field"])
        dim0, dim1 = data["dim0"], data["dim1"]
        # exactly int, as a vertex must be: int() would read 1.7 as 1 and true as 1
        if type(dim0) is not int or type(dim1) is not int:
            raise ValueError(f"dims ({dim0!r}|{dim1!r}) must be integers")
        if min(dim0, dim1) < 0 or dim0 + dim1 > dsv.JSON_MAX_DIM:
            raise ValueError(f"dims ({dim0}|{dim1}) must be >= 0 and sum to at most {dsv.JSON_MAX_DIM}")
        conv, form = (int, _INTEGER) if field.char else (_q_entry, _RATIONAL)
        d0 = [[conv(_entry(v, form)) for v in row] for row in data["d0"]]
        d1 = [[conv(_entry(v, form)) for v in row] for row in data["d1"]]
        return dsv.DSV.make(field, dim0, dim1, d0, d1)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise ParseError(f"bad DSV JSON: {e}") from e


def cmd_dsv(args):
    v = _load_dsv(args.input)
    if args.tensor:
        w = _load_dsv(args.tensor)
        size = (v.dim0 + v.dim1) * (w.dim0 + w.dim1)
        if size > dsv.JSON_MAX_DIM:
            raise ParseError(f"the tensor product has dimension {size}, above {dsv.JSON_MAX_DIM}")
        v = dsv.tensor(v, w)
    h0, h1 = dsv.homology(v)
    report = {
        "dim0": v.dim0,
        "dim1": v.dim1,
        "homology": [h0, h1],
        "euler_characteristic": dsv.euler_char(v),
        # tensor-invertible up to equivalence: total homology dimension 1
        "invertible": h0 + h1 == 1,
        "unit_virtual_dim": dsv.euler_char(v),
    }
    _emit(
        args,
        report,
        [
            f"dims ({v.dim0}|{v.dim1})  homology ({h0}|{h1})  "
            f"euler {dsv.euler_char(v)}  invertible {report['invertible']}",
        ],
    )
    return 0


def cmd_superline(args):
    x = _load_complex(args.complex)
    if args.op == "group":
        g = superline.iso_class_group(x, args.flavor)
        _emit(args, {"op": "group", "flavor": args.flavor, "group": _group_dict(g)}, [str(g)])
    else:  # classify
        data = superline.classification_data(args.flavor)
        report = data.to_json_dict()
        report["k_invariant_nontrivial"] = not stable2type.is_trivial(data)
        _emit(
            args,
            report,
            [
                f"pi0 {data.pi0}, pi1 {data.pi1}, k-invariant "
                + ("nonzero" if report["k_invariant_nontrivial"] else "zero")
            ],
        )
    return 0


def _parse_group(text: str) -> AbelianGroupPresentation:
    """Parse 'Z', 'Z/8', 'Z+Z/2', 'Z/2+Z/4' style group descriptions."""
    free = 0
    factors = []
    for part in text.replace(" ", "").split("+"):
        if part == "Z":
            free += 1
        elif part.startswith("Z/"):
            digits = part[2:]
            try:
                order = int(digits) if digits.isascii() and digits.isdigit() else 0
            except ValueError:  # more digits than int() reads
                raise ParseError(f"a cyclic order of {len(digits)} digits is too long") from None
            if order < 1:
                raise ParseError(f"cyclic order in {part!r} must be an integer >= 1")
            factors.append(order)
        elif part in ("0", "1", "triv"):
            continue
        else:
            raise ParseError(f"cannot parse group component {part!r}")
    from .exact_linalg import normalize_factors

    return AbelianGroupPresentation(free, normalize_factors(factors))


def cmd_classify(args):
    cat = stable2type.catalog()
    if args.name:
        if args.name not in cat:
            raise ParseError(f"unknown catalog entry {args.name!r}; known: {', '.join(sorted(cat))}")
        data = cat[args.name]
        report = data.to_json_dict()
        report["trivial"] = stable2type.is_trivial(data)
        _emit(
            args,
            report,
            [f"{args.name}: pi0 {data.pi0}, pi1 {data.pi1}, q {'zero' if report['trivial'] else 'nonzero'}"],
        )
        return 0
    if args.enumerate:
        try:
            pi0_text, pi1_text = args.enumerate.split(";")
        except ValueError:
            raise ParseError("--enumerate expects 'PI0;PI1', e.g. 'Z/8;Z/2'")
        pi0 = _parse_group(pi0_text)
        pi1 = _parse_group(pi1_text)
        structures = stable2type.enumerate_symmetric_structures(pi0, pi1)
        report = {
            "pi0": _group_dict(pi0),
            "pi1": _group_dict(pi1),
            "count": len(structures),
            "structures": [d.to_json_dict()["q"] for d in structures],
        }
        _emit(args, report, [f"{len(structures)} symmetric monoidal structures"])
        return 0
    raise ParseError("classify needs --name or --enumerate")


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in verify.SUITES]
    if unknown:
        raise ParseError(f"unknown suite(s): {', '.join(unknown)}")
    results = verify.run_suites(names)
    failed = 0
    lines = []
    for suite_name, check, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        suffix = f"  ({detail})" if detail else ""
        lines.append(f"{status}  {suite_name}:{check}{suffix}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    report = {
        "results": [
            {"suite": s, "check": c, "passed": ok, "detail": d}
            for s, c, ok, d in results
        ],
        "passed": failed == 0,
    }
    _emit(args, report, lines)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supercoh",
        description="Exact superline/Brauer-group computations on finite simplicial complexes",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("cohomology", help="H^q(X; Z/n) with generators")
    c.add_argument("--complex", required=True)
    c.add_argument("--deg", type=int, required=True)
    c.add_argument("--mod", type=int, default=0)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cohomology)

    o = sub.add_parser("operations", help="mod-2 generators and the action of Sq1, Sq2, beta")
    o.add_argument("--complex", required=True)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_operations)

    def add_brauer_args(sp, with_op):
        sp.add_argument("--complex", required=True)
        sp.add_argument("--variant", required=True, choices=["ku", "ko"])
        if with_op:
            sp.add_argument("--op", required=True, choices=["group", "twist", "order", "add", "equals"])
        sp.add_argument("--element")
        sp.add_argument("--other")
        sp.add_argument("--json", action="store_true")

    b = sub.add_parser("brauer", help="graded Brauer group computations")
    add_brauer_args(b, True)
    b.set_defaults(func=cmd_brauer)
    for verb in ("group", "twist", "order"):
        sp = sub.add_parser(verb, help=f"shortcut for brauer --op {verb}")
        add_brauer_args(sp, False)
        sp.set_defaults(func=cmd_brauer, op=verb)

    d = sub.add_parser("dsv", help="differential super vector space report")
    d.add_argument("--input", required=True)
    d.add_argument("--tensor")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_dsv)

    s = sub.add_parser("superline", help="superline iso-class groups and classification")
    s.add_argument("--complex", required=True)
    s.add_argument("--flavor", required=True, choices=["real", "complex"])
    s.add_argument("--op", default="group", choices=["group", "classify"])
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_superline)

    k = sub.add_parser("classify", help="stable 2-type catalog and enumeration")
    k.add_argument("--name")
    k.add_argument("--enumerate", metavar="PI0;PI1")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
