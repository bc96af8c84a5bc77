"""Command-line front end: existence checks, cover lattices, decompositions, tables.

Verdicts travel through exit codes, never prose: 0 = success / exists,
1 = proven not to exist (or unrealizable signature), 2 = search budget
exhausted, 64 = malformed input, 70 = internal defect (a cross-check
failed or the program raised unexpectedly; stderr names the group hash,
the signature and the failing check), 74 = the output could not be
written (stdout was, say, a pipe whose reader had gone).  JSON output is
byte-stable for equal inputs; every report embeds the group hash and the
signature it was computed from.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from . import covers, jacobian, monodromy
from .chartable import compute_table, schur_bound_is_verified
from .errors import (
    GroupInputError,
    InternalCheckError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from .groups import FiniteGroup, Subgroup, catalog, group_from_payload
from .signature import (
    DEFAULT_SEARCH_BUDGET,
    GeneratingVector,
    GeometricSignature,
    find_generating_vector,
    refinements,
    signature_from_payload,
    signature_genus,
)

EX_OK = 0
EX_NOT_EXISTS = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74

_CATALOG_NAMES = ("cyclic(", "dihedral(", "symmetric(", "alternating(")

WORD_GRAMMAR_HELP = (
    "Elements are written either in 1-based disjoint-cycle notation, e.g. "
    "\"(1,2,3)(4,5)\", or as words in the group's named generators with "
    "optional '*' separators and integer exponents, e.g. \"xa^2\", "
    "\"x*a^2\", \"xyab\", \"x^-1y\".  Words multiply left to right."
)


def load_group(source: str) -> FiniteGroup:
    """A catalog name, inline JSON object, or path to a group file."""
    text = source.strip()
    if text == "quaternion8" or text == "wc3" or text.startswith(_CATALOG_NAMES):
        return catalog(text)
    if text.startswith("{"):
        payload = _parse_json(text, "group")
        return group_from_payload(payload)
    path = Path(text)
    if not path.is_file():
        raise GroupInputError(
            f"group source {source!r} is neither a catalog name nor a readable file"
        )
    return group_from_payload(_parse_json(path.read_text(), f"group file {source}"))


def load_signature(G: FiniteGroup, source: str) -> GeometricSignature:
    text = source.strip()
    if text.startswith("{"):
        return signature_from_payload(G, _parse_json(text, "signature"))
    path = Path(text)
    if not path.is_file():
        raise GroupInputError(
            f"signature source {source!r} is neither inline JSON nor a readable file"
        )
    payload = _parse_json(path.read_text(), f"signature file {source}")
    return signature_from_payload(G, payload)


def _parse_json(text: str, what: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupInputError(f"bad JSON in {what}: {exc}") from None
    if not isinstance(payload, dict):
        raise GroupInputError(f"{what} must be a JSON object")
    return payload


def _parse_overrides(items: Sequence[str]) -> dict[int, int]:
    out = {}
    for item in items:
        try:
            idx, val = (int(part) for part in item.split("=", 1))
        except ValueError:
            raise GroupInputError(
                f"bad --schur-override {item!r}; expected INDEX=VALUE"
            ) from None
        if out.setdefault(idx, val) != val:
            raise GroupInputError(
                f"--schur-override gives character {idx} both {out[idx]} and {val}"
            )
    return out


def _parse_subgroups(G: FiniteGroup, items: Sequence[str]) -> list[Subgroup]:
    subs = []
    for item in items:
        # a comma inside parentheses belongs to a cycle, not the list
        words = [w.strip() for w in re.split(r",(?![^()]*\))", item) if w.strip()]
        if not words:
            raise GroupInputError(f"empty subgroup specification {item!r}")
        subs.append(G.subgroup_from_words(words, label=",".join(words)))
    return subs


def _group_header(G: FiniteGroup) -> dict:
    return {
        "name": G.name,
        "degree": G.degree,
        "order": G.order,
        "hash": G.digest,
    }


class _OutputError(Exception):
    """Writing stdout failed; carries the OSError."""


def _emit(args, payload: dict, text: str) -> None:
    try:
        print(json.dumps(payload, indent=2) if args.format == "json" else text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from None


def _resolve_geometric(G: FiniteGroup, sig: GeometricSignature,
                       budget: int) -> tuple[GeometricSignature, GeneratingVector]:
    """A realizable geometric signature and the generating vector found for it;
    a plain signature must have exactly one realizable refinement."""
    if sig.is_geometric:
        vec = find_generating_vector(G, sig, budget)
        if vec is None:
            raise InvalidSignatureError(
                "no generating vector exists for this geometric signature"
            )
        return sig, vec
    found = []
    for refined in refinements(G, sig):
        try:
            vec = find_generating_vector(G, refined, budget)
        except InvalidSignatureError:
            break  # genus arithmetic is shared by all refinements
        if vec is not None:
            found.append((refined, vec))
    if len(found) == 1:
        return found[0]
    if not found:
        raise InvalidSignatureError("no realizable refinement of the plain signature")
    listing = "; ".join(str(refined) for refined, _ in found)
    raise GroupInputError(
        f"plain signature is ambiguous; realizable refinements: {listing}. "
        "Specify class_rep entries to choose one."
    )


# -- commands -----------------------------------------------------------------


def cmd_exists(args, G: FiniteGroup) -> int:
    if args.budget <= 0:
        raise GroupInputError("--budget must be positive")
    sig = load_signature(G, args.signature)
    payload = {
        "group": _group_header(G),
        "signature": sig.to_json(),
        "verdict": None,
        "genus": None,
        "witness": None,
    }
    try:
        payload["genus"] = signature_genus(G, sig)
    except InvalidSignatureError as exc:
        payload["verdict"] = "not-exists"
        payload["failed_condition"] = f"genus arithmetic: {exc}"
        _emit(args, payload, f"not-exists ({exc})")
        return EX_NOT_EXISTS
    try:
        vec = find_generating_vector(G, sig, args.budget)
    except SearchBudgetExceeded:
        payload["verdict"] = "budget-exhausted"
        _emit(args, payload, f"budget-exhausted after {args.budget} nodes")
        return EX_BUDGET
    if vec is None:
        payload["verdict"] = "not-exists"
        payload["failed_condition"] = "no generating vector with the required classes"
        _emit(args, payload, "not-exists (exhaustive search)")
        return EX_NOT_EXISTS
    payload["verdict"] = "exists"
    payload["witness"] = vec.to_json()
    text = [f"exists; genus {payload['genus']}"]
    for tag, items in (("a", vec.a), ("b", vec.b), ("c", vec.c)):
        for i, g in enumerate(items, start=1):
            text.append(f"  {tag}{i} = {g}")
    _emit(args, payload, "\n".join(text))
    return EX_OK


def _prepare_realizable(args, G: FiniteGroup) -> tuple[GeometricSignature,
                                                       GeneratingVector]:
    """Shared lattice/decompose input handling: geometric + realizable."""
    if args.budget <= 0:
        raise GroupInputError("--budget must be positive")
    sig = load_signature(G, args.signature)
    signature_genus(G, sig)  # raises InvalidSignatureError -> exit 1
    return _resolve_geometric(G, sig, args.budget)


def cmd_lattice(args, G: FiniteGroup) -> int:
    sig, vec = _prepare_realizable(args, G)
    subgroups = _parse_subgroups(G, args.subgroups)
    reports = covers.lattice_report(G, sig, subgroups)
    if args.cross_check:
        for rep in reports:
            oracle = monodromy.oracle_summary(G, rep.subgroup, vec, sig.quotient_genus)
            want = [list(c.entries) for c in rep.cycle_structures]
            if oracle["genus"] != rep.genus or oracle["cycle_structures"] != want:
                raise InternalCheckError(
                    f"oracle disagrees with the closed form on {rep.subgroup!r}"
                )
            rep.oracle = oracle
    payload = {
        "group": _group_header(G),
        "signature": sig.to_json(),
        "genus": signature_genus(G, sig),
        "cross_checked": bool(args.cross_check),
        "reports": [rep.to_json() for rep in reports],
    }
    lines = [f"genus {payload['genus']}, signature {sig}"]
    for rep in reports:
        label = rep.subgroup.label or str(rep.subgroup.order)
        cycles = "  ".join(
            f"q{c.branch_index}:" + ",".join(map(str, c.entries))
            for c in rep.cycle_structures
        )
        suffix = " [oracle ok]" if rep.oracle is not None else ""
        lines.append(
            f"  <{label}> order {rep.subgroup.order:>3}  degree {rep.degree:>3}  "
            f"genus {rep.genus:>2}  {cycles}{suffix}"
        )
    _emit(args, payload, "\n".join(lines))
    return EX_OK


def cmd_decompose(args, G: FiniteGroup) -> int:
    sig, _ = _prepare_realizable(args, G)
    table = compute_table(G, _parse_overrides(args.schur_override))
    report = jacobian.factor_dimensions(G, table, sig)
    payload = {
        "group": _group_header(G),
        "signature": sig.to_json(),
        "schur_bound_verified_group": schur_bound_is_verified(table),
        "decomposition": report.to_json(),
    }
    text = [f"signature {sig}; total genus {report.total_genus}", report.render_text()]
    if sig.quotient_genus == 1:
        conditions = jacobian.gamma1_analysis(G, table, sig, report)
        payload["gamma1_conditions"] = [c.to_json() for c in conditions]
        vanished = [f"chi{c.galois_representative}" for c in conditions if c.all_true]
        text.append(
            "torus-quotient factors of dimension zero: " + (", ".join(vanished) or "none")
        )
    _emit(args, payload, "\n".join(text))
    return EX_OK


def cmd_chartab(args, G: FiniteGroup) -> int:
    table = compute_table(G, _parse_overrides(args.schur_override))
    payload = table.to_json()
    payload["schur_bound_verified_group"] = schur_bound_is_verified(table)
    _emit(args, payload, table.render_text())
    return EX_OK


# -- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 64, not argparse's 2,
    which here means "search budget exhausted"; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geosig",
        description=(
            "Exact computations for finite group actions on Riemann surfaces: "
            "existence of actions, intermediate quotient covers, and the "
            "decomposition of the induced Jacobian action."
        ),
        epilog=WORD_GRAMMAR_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, signature=True):
        p.add_argument("--group", required=True,
                       help="catalog name (cyclic(n), dihedral(n), symmetric(n), "
                            "alternating(n), quaternion8, wc3), inline JSON, or file")
        if signature:
            p.add_argument("--signature", required=True,
                           help="inline JSON or file: "
                                '{"genus": g, "branches": [{"order": m, "class_rep": "word"}]}')
            p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                           help="node budget for the generating-vector search")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("exists", help="decide whether an action with the signature exists")
    common(p)
    p.set_defaults(func=cmd_exists)

    p = sub.add_parser("lattice", help="geometry of all intermediate quotient covers")
    common(p)
    p.add_argument("--subgroups", nargs="*", default=(),
                   help="extra subgroups, each a comma-separated list of generators, "
                        "as words or in cycle notation, e.g. 'y,z,ab' or '(1,4),(2,5)'")
    p.add_argument("--cross-check", action="store_true",
                   help="recompute every report with the coset-action oracle")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("decompose", help="isogeny decomposition of the Jacobian action")
    common(p)
    p.add_argument("--schur-override", action="append", default=[],
                   metavar="IDX=VAL", help="override the Schur index of a character")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("chartab", help="exact character table with Galois classes")
    common(p, signature=False)
    p.add_argument("--schur-override", action="append", default=[],
                   metavar="IDX=VAL", help="override the Schur index of a character")
    p.set_defaults(func=cmd_chartab)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    G = None
    try:
        G = load_group(args.group)
        return args.func(args, G)
    except SearchBudgetExceeded as exc:
        print(f"budget-exhausted: {exc}", file=sys.stderr)
        return EX_BUDGET
    except InvalidSignatureError as exc:
        print(f"signature not realizable: {exc}", file=sys.stderr)
        return EX_NOT_EXISTS
    except GroupInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except _OutputError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EX_IOERR
    except Exception as exc:  # a defect must never read as a verdict
        traceback.print_exc()
        print(f"internal defect: {type(exc).__name__}: {exc}\n"
              f"  group hash: {G.digest if G is not None else 'not built'}\n"
              f"  signature: {getattr(args, 'signature', None)}", file=sys.stderr)
        return EX_SOFTWARE


def entry() -> None:
    code = main()
    if code == EX_IOERR:
        # stdout is gone: send what is still buffered for it to the null
        # device, so that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
