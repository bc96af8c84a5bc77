"""Command-line front end: existence checks, cover lattices, decompositions, tables.

Verdicts travel through exit codes, never prose: 0 = success / exists,
1 = proven not to exist (or unrealizable signature), 2 = search budget
exhausted, 64 = malformed input, 70 = internal defect (a cross-check
failed or the program raised unexpectedly; stderr names the group hash,
the signature and the failing check), 74 = the output could not be
written (stdout was, say, a pipe whose reader had gone).  JSON output is
byte-stable for equal inputs; every report embeds the group hash and the
signature it was computed from.

Each command imports the modules it runs when it runs, so a call loads
only what its subcommand needs: `chartab` never loads the existence
search, and a malformed group name loads the group kernel alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import (
    GroupInputError,
    InternalCheckError,
    InvalidSignatureError,
    SearchBudgetExceeded,
)
from .groups import (DEFAULT_SEARCH_BUDGET, FiniteGroup, Subgroup, catalog, group_from_payload,
                     is_catalog_name)

if TYPE_CHECKING:
    from .signature import GeneratingVector, GeometricSignature

EX_OK = 0
EX_NOT_EXISTS = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74

WORD_GRAMMAR_HELP = (
    "Elements are written either in 1-based disjoint-cycle notation, e.g. "
    "\"(1,2,3)(4,5)\", or as words in the group's named generators with "
    "optional '*' separators and integer exponents, e.g. \"xa^2\", "
    "\"x*a^2\", \"xyab\", \"x^-1y\".  Words multiply left to right."
)


def load_group(source: str) -> FiniteGroup:
    """A catalog name, inline JSON object, or path to a group file."""
    text = source.strip()
    if is_catalog_name(text):
        return catalog(text)
    return group_from_payload(_read_source(source, "group", "a catalog name"))


def load_signature(G: FiniteGroup, source: str) -> GeometricSignature:
    from .signature import signature_from_payload
    return signature_from_payload(G, _read_source(source, "signature", "inline JSON"))


def _read_source(source: str, what: str, alternative: str) -> dict:
    """The JSON object written inline in source, or in the UTF-8 file it names;
    a path that cannot be read or decoded is malformed input."""
    text = source.strip()
    if text.startswith("{"):
        return _parse_json(text, what)
    try:
        if os.path.isfile(text):
            with open(text, encoding="utf-8") as handle:
                return _parse_json(handle.read(), f"{what} file {source}")
    except UnicodeDecodeError as exc:
        raise GroupInputError(f"{what} file {source} is not UTF-8 text: {exc}") from None
    except OSError:  # unreadable, though a file
        pass
    raise GroupInputError(f"{what} source {source!r} is neither {alternative} nor a readable file")


def _parse_json(text: str, what: str) -> dict:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer too long for int(), or nesting too deep
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


def _emit(args, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the report in the format asked for, building only that one, so
    a text report reads no group hash and builds no JSON."""
    try:
        print(json.dumps(payload(), indent=2) if args.format == "json" else text())
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from None


def _resolve_geometric(args, G: FiniteGroup) -> tuple[GeometricSignature, GeneratingVector]:
    """The lattice/decompose signature, realizable and geometric, and the
    generating vector found for it; a plain signature must have exactly one
    realizable refinement."""
    from .signature import find_generating_vector, refinements, signature_genus
    sig = load_signature(G, args.signature)
    signature_genus(G, sig)  # raises InvalidSignatureError -> exit 1
    if sig.is_geometric:
        vec = find_generating_vector(G, sig, args.budget)
        if vec is None:
            raise InvalidSignatureError("no generating vector exists for this geometric signature")
        return sig, vec
    found = [(refined, vec) for refined in refinements(G, sig)
             if (vec := find_generating_vector(G, refined, args.budget)) is not None]
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
    from .signature import find_generating_vector, signature_genus
    sig = load_signature(G, args.signature)
    verdict = {"verdict": None, "genus": None, "witness": None}

    def emit(text: str, vec: Optional[GeneratingVector] = None) -> None:
        _emit(args, lambda: {"group": _group_header(G), "signature": sig.to_json(), **verdict,
                             "witness": vec.to_json() if vec else None}, lambda: text)

    try:
        verdict["genus"] = signature_genus(G, sig)
    except InvalidSignatureError as exc:
        verdict["verdict"] = "not-exists"
        verdict["failed_condition"] = f"genus arithmetic: {exc}"
        emit(f"not-exists ({exc})")
        return EX_NOT_EXISTS
    try:
        vec = find_generating_vector(G, sig, args.budget)
    except SearchBudgetExceeded:
        verdict["verdict"] = "budget-exhausted"
        emit(f"budget-exhausted after {args.budget} nodes")
        return EX_BUDGET
    if vec is None:
        verdict["verdict"] = "not-exists"
        verdict["failed_condition"] = "no generating vector with the required classes"
        emit("not-exists (exhaustive search)")
        return EX_NOT_EXISTS
    verdict["verdict"] = "exists"
    text = [f"exists; genus {verdict['genus']}"]
    for tag, items in (("a", vec.a), ("b", vec.b), ("c", vec.c)):
        for i, g in enumerate(items, start=1):
            text.append(f"  {tag}{i} = {g}")
    emit("\n".join(text), vec)
    return EX_OK


def cmd_lattice(args, G: FiniteGroup) -> int:
    from . import covers, monodromy
    from .signature import signature_genus
    sig, vec = _resolve_geometric(args, G)
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
    genus = signature_genus(G, sig)

    def text() -> str:
        lines = [f"genus {genus}, signature {sig}"]
        for rep in reports:
            label = rep.subgroup.label or str(rep.subgroup.order)
            cycles = "  ".join(f"q{c.branch_index}:" + ",".join(map(str, c.entries))
                               for c in rep.cycle_structures)
            suffix = " [oracle ok]" if rep.oracle is not None else ""
            lines.append(f"  <{label}> order {rep.subgroup.order:>3}  degree {rep.degree:>3}  "
                         f"genus {rep.genus:>2}  {cycles}{suffix}")
        return "\n".join(lines)

    _emit(args, lambda: {"group": _group_header(G), "signature": sig.to_json(), "genus": genus,
                         "cross_checked": bool(args.cross_check),
                         "reports": [rep.to_json() for rep in reports]}, text)
    return EX_OK


def cmd_decompose(args, G: FiniteGroup) -> int:
    from . import jacobian
    from .chartable import compute_table, schur_bound_is_verified
    sig, _ = _resolve_geometric(args, G)
    table = compute_table(G, _parse_overrides(args.schur_override))
    report = jacobian.factor_dimensions(G, table, sig)
    gamma1 = jacobian.gamma1_analysis(G, table, sig) if sig.quotient_genus == 1 else None

    def payload() -> dict:
        out = {"group": _group_header(G), "signature": sig.to_json(),
               "schur_bound_verified_group": schur_bound_is_verified(table),
               "decomposition": report.to_json()}
        if gamma1 is not None:
            out["gamma1_conditions"] = [c.to_json() for c in gamma1]
        return out

    def text() -> str:
        lines = [f"signature {sig}; total genus {report.total_genus}", report.render_text()]
        if gamma1 is not None:
            vanished = ", ".join(f"chi{c.galois_representative}" for c in gamma1 if c.all_true)
            lines.append(f"torus-quotient factors of dimension zero: {vanished or 'none'}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EX_OK


def cmd_chartab(args, G: FiniteGroup) -> int:
    from .chartable import compute_table, schur_bound_is_verified
    table = compute_table(G, _parse_overrides(args.schur_override))
    _emit(args, lambda: {**table.to_json(),
                         "schur_bound_verified_group": schur_bound_is_verified(table)},
          table.render_text)
    return EX_OK


# -- argument parsing -----------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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

    def common(p, signature=True, schur=False):
        p.add_argument("--group", required=True,
                       help="catalog name (cyclic(n), dihedral(n), symmetric(n), "
                            "alternating(n), quaternion8, wc3), inline JSON, or file")
        if signature:
            p.add_argument("--signature", required=True,
                           help="inline JSON or file: "
                                '{"genus": g, "branches": [{"order": m, "class_rep": "word"}]}')
            p.add_argument("--budget", type=_positive_int, default=DEFAULT_SEARCH_BUDGET,
                           help="node budget for the generating-vector search")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if schur:
            p.add_argument("--schur-override", action="append", default=[],
                           metavar="IDX=VAL", help="override the Schur index of a character")

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
    common(p, schur=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("chartab", help="exact character table with Galois classes")
    common(p, signature=False, schur=True)
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
        import traceback
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
    # the process is about to end: move every tracked object to the
    # permanent generation, so the collections that interpreter shutdown
    # runs have nothing to walk; atexit handlers and the final flush of
    # the standard streams still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
