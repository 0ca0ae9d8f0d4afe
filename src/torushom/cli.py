"""Command-line front end.

One process runs one job: parse the poset and optional characteristic map
and profile, run the selected checks, and emit one deterministic JSON or
markdown report.  Exit status 0 means every selected check passed, 1 means
some mathematical check failed, 2 means the input was unusable (an
`InputError`, raised by whichever layer found it), and 3 means an internal
failure: an invariant of the computation was violated
(`InvariantViolation`), any other exception was raised, or stdout was
closed before the report was written (`BrokenPipeError`).  `main` alone
maps the exceptions to these statuses.  Failures print one line on stderr,
`error: ...` or `internal error: ...`.

Each layer is imported where it is used, not at the top: a process
compiles every module it imports, so a command loads only what it reaches,
and a usage error compiles none.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import InputError, InvariantViolation

COMMANDS = ("validate", "vectors", "charmap", "sheaf", "verify", "specseq",
            "facering", "all")
# the checks each command can run; `all` runs every one, the rest none
COMMAND_CHECKS = {"sheaf": ("constant", "structure"),
                  "verify": ("keylemma", "duality", "les_duality"),
                  "specseq": ("theorems", "crosscheck")}
CHECKS = tuple(c for checks in COMMAND_CHECKS.values() for c in checks)


def build_parser():
    p = argparse.ArgumentParser(
        prog="torushom",
        description="Exact homology invariants of torus spaces over "
                    "Buchsbaum simplicial posets")
    p.add_argument("command", choices=COMMANDS)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--preset", help="named example poset, e.g. torus_7 or "
                                      "digon_cycle(2)")
    src.add_argument("--poset", help="cover-table file (simplicial-poset v1)")
    src.add_argument("--facets", help="facet-list file (facets v1)")
    p.add_argument("--charmap", help="characteristic map file (charmap v1)")
    p.add_argument("--profile", help="manifold profile JSON file; cone by default")
    p.add_argument("--field", default="Q", help="Q or Fp:<p> (default Q)")
    p.add_argument("--out", choices=("json", "md"), default="json")
    p.add_argument("--checks", help="comma-separated subset of checks to run: "
                                     + ", ".join(CHECKS))
    p.add_argument("--primes", default="2,3,5",
                   help="extra primes for the classification report")
    return p


def load_poset(args):
    from .formats import parse_cover_table, parse_facet_list
    from .poset import preset as poset_preset
    if args.preset:
        return poset_preset(args.preset)
    if args.poset:
        return parse_cover_table(_read(args.poset), name=Path(args.poset).stem)
    if args.facets:
        return parse_facet_list(_read(args.facets), name=Path(args.facets).stem)
    raise InputError("one of --preset, --poset, --facets is required")


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(str(e)) from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def load_profile(args):
    """The profile of the --profile file, validated where it is used; None,
    standing for the cone profile, without one."""
    if not args.profile:
        return None
    from .formats import parse_profile
    return parse_profile(_read(args.profile))


def selected_checks(args) -> set:
    """The checks that `--checks` selects, every check by default; refuses
    an unknown name, and a selection that leaves the command no check to run."""
    if not args.checks:
        return set(CHECKS)
    names = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = sorted(names - set(CHECKS))
    if unknown:
        raise InputError(f"unknown --checks {', '.join(unknown)}; "
                         f"known: {', '.join(CHECKS)}")
    own = CHECKS if args.command == "all" else COMMAND_CHECKS.get(args.command, ())
    if own and not names & set(own):
        raise InputError(f"--checks {args.checks.strip()} selects no check of "
                         f"{args.command}; its checks: {', '.join(own)}")
    return names


def _crosscheck_blocker(S, cmap, P):
    """Why the sheaf cross-check of the pages cannot run, or None."""
    if cmap is None:
        return "no --charmap given"
    if P.source != "cone":
        return f"the profile is a {P.source} profile, not the cone profile"
    if cmap.n != S.n:
        return f"torus rank {cmap.n} is not the poset rank {S.n}"
    return None


def run(args) -> tuple[dict, int]:
    from .field import field_from_name, prime_fields
    checks = selected_checks(args)
    field = field_from_name(args.field)
    # every option is parsed before any section runs, read or not
    primes = prime_fields(args.primes)
    profile = load_profile(args)
    S = load_poset(args)
    # the layers every command reads, loaded once the input is usable
    from .complexes import classify
    from .facevec import face_vectors, ft_consistency_check, dehn_sommerville_check
    from .poset import validate, face_counts
    from .specseq import bigraded_betti, theorem_checks, e2_border_sheaf_crosscheck
    job = S.job(field)     # every invariant of (S, field), computed once
    report = {"command": args.command, "poset": S.name or "(file)",
              "field": field.name, "results": {}}
    results = report["results"]
    failed = False

    def record(name, payload, ok):
        nonlocal failed
        results[name] = payload
        if ok is False:
            failed = True

    is_all = args.command == "all"
    want_validate = args.command in ("validate", "all")
    want_vectors = args.command in ("vectors", "all")
    want_charmap = args.command == "charmap" or (is_all and args.charmap)
    want_sheaf = args.command in ("sheaf", "all")
    want_verify = args.command in ("verify", "all")
    want_specseq = args.command in ("specseq", "all")
    want_facering = args.command in ("facering", "all")
    if args.command in ("charmap", "verify", "facering") and not args.charmap:
        raise InputError(f"{args.command} needs --charmap")
    if is_all and not args.charmap:
        # run whatever is possible without a characteristic map
        want_charmap = want_verify = want_facering = False
        results["skipped"] = "charmap, verify, facering (no --charmap given)"

    if want_validate:
        diag = validate(S)
        payload = {"ok": diag.ok, "pure": diag.pure, "dim": diag.dim,
                   "messages": diag.messages, "f": list(face_counts(S)) if diag.pure else []}
        if diag.ok and diag.pure:
            cls = {field.name: classify(S, field).as_dict()}
            if field.name == "Q":
                for F in primes:
                    cls[F.name] = classify(S, F).as_dict()
            payload["classification"] = cls
            if cls[field.name]["buchsbaum"]:
                cons = job.constancy
                payload["homology_manifold"] = cons.is_constant
                if not cons.is_constant:
                    payload["constancy_witness"] = cons.witness
        record("validate", payload, diag.ok)

    if want_vectors:
        fv = face_vectors(S, field)       # refuses a poset that is not pure
        ft = ft_consistency_check(S, field)
        payload = {"vectors": fv.as_dict(), "generating_identity": ft.as_dict()}
        ok = ft.passed
        if job.classify.buchsbaum:
            ds = dehn_sommerville_check(S, field)
            payload["symmetry"] = ds.as_dict()
            if ds.details.get("applicable", False):
                ok = ok and ds.passed
        record("vectors", payload, ok)

    cmap = None
    if args.charmap:
        from .formats import parse_charmap
        cmap = parse_charmap(_read(args.charmap))
    if want_charmap:
        rep = job.charmap_report(cmap)
        record("charmap", rep.as_dict(), rep.ok_field)

    if want_sheaf:
        tables = {}
        if "constant" in checks:
            # constant-sheaf cohomology: the Betti numbers of S
            tables["constant"] = {str(k): v for k, v in sorted(job.betti.items())}
        if S.is_pure() and "structure" in checks:
            st = job.structure_sheaf()
            tables["structure_stalk_dims"] = list(st.stalk_dims)
            tables["structure"] = {str(k): v
                                   for k, v in sorted(job.structure_cohomology.items())}
        record("sheaf", tables, True)

    if want_verify:
        from .torusalg import keylemma_check, duality_check, les_duality_check
        job.kit(cmap)       # rejects an invalid map before any check runs
        if "keylemma" in checks:
            rep = keylemma_check(S, cmap, field)
            record("keylemma", rep.as_dict(), rep.passed)
        if "duality" in checks:
            rep = duality_check(S, cmap, field)
            record("duality", rep.as_dict(), rep.passed)
        if "les_duality" in checks:
            rep = les_duality_check(S, cmap, field)
            record("les_duality", rep.as_dict(), rep.passed)

    if want_specseq:
        P = job.cone_profile if profile is None else profile
        blocker = _crosscheck_blocker(S, cmap, P)
        only_crosscheck = checks & set(COMMAND_CHECKS["specseq"]) == {"crosscheck"}
        if blocker and only_crosscheck and not is_all:
            raise InputError(f"--checks crosscheck cannot run: {blocker}")
        e1p, e2, einf = job.pages(P)
        table = bigraded_betti(S, P, field)
        payload = {"profile": P.as_dict(), "pages": [e1p.as_dict(), e2.as_dict(),
                                                     einf.as_dict()],
                   "bigraded": table.as_dict()}
        ok = True
        if "theorems" in checks:
            rep = theorem_checks(S, P, field)
            payload["theorems"] = rep.as_dict()
            ok = ok and rep.passed
        if "crosscheck" in checks and not blocker:
            rep = e2_border_sheaf_crosscheck(S, cmap, field)
            payload["sheaf_crosscheck"] = rep.as_dict()
            ok = ok and rep.passed
        record("specseq", payload, ok)

    if want_facering:
        from .facering import relation_system, graded_quotient_rank, kernel_generators
        R = relation_system(S, cmap, field, profile=profile)
        ranks1 = graded_quotient_rank(R, include_type2=False)
        payload = {"first_kind_quotient": {str(q): v for q, v in sorted(ranks1.items())}}
        ok = True
        if R.type2 is not None:
            ranks2 = graded_quotient_rank(R, include_type2=True)
            payload["full_quotient"] = {str(q): v for q, v in sorted(ranks2.items())}
            kg = kernel_generators(R)
            payload["kernel_generators"] = kg.as_dict()
            ok = kg.independent and kg.representative_stable
            agree = all(ranks2[q] == job.face_vectors.h_double_prime[q] for q in ranks2)
            payload["matches_corrected_vector"] = agree
            ok = ok and agree
        else:
            payload["second_kind"] = "unavailable: " + R.type2_reason
        record("facering", payload, ok)

    report["ok"] = not failed
    return report, (0 if not failed else 1)


def render_markdown(report: dict) -> str:
    lines = [f"# torushom {report['command']}",
             "",
             f"- poset: {report['poset']}",
             f"- field: {report['field']}",
             f"- ok: {report['ok']}",
             ""]
    for name, payload in report["results"].items():
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(payload, sort_keys=True, indent=2))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def _one_line(e):
    return " ".join(str(e).split())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = run(args)
    except InvariantViolation as e:
        print(f"error: invariant violated: {_one_line(e)}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {_one_line(e)}", file=sys.stderr)
        return 3
    try:
        print(json.dumps(report, sort_keys=True, indent=2) if args.out == "json"
              else render_markdown(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; what is left of the report, and the flush at
        # exit, go to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
