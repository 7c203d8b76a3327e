"""Command-line interface.

Subcommands::

    describe NAME          relation, middle basis, intersection matrix, invariants
    lemma7 NAME            locus classes, side switch, residue scan, obstruction flag
    bwb DIM BUNDLE TWIST   cohomology table of a bundle on the DIM-quadric
    bwb --case {1,2,3}     one of the scripted vanishing pipelines
    mukai NAME             isotropic pair and the Fourier-Mukai vector
    motivic [--rank R]     fibration-class identities in the Grothendieck ring
    verify-all             run every golden check; exit 0 iff all pass

``--config PATH`` loads a configuration file instead of a built-in name;
``--json`` switches to the machine-readable report (byte-stable across
runs); numbers are exact integers, rationals are rendered as "p/q".

Exit codes: 0 success, 1 verification/pipeline failure, 2 usage or
configuration error.  An exit-1 error of ``describe``, ``lemma7`` or ``mukai``
ends with its input, `` (config PATH)`` or `` (built-in NAME)``.  A reader
that closes the pipe early (``| head -1``) ends the command with exit 1 and
nothing on stderr.

Each subcommand is declared once, in ``build_parser``: its arguments, the
function that builds its report and the one that renders the report as
text.  Each command imports only the modules it runs, inside its report
builder; at import time this module loads nothing of the package but
``errors``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from operator import mul
from typing import TYPE_CHECKING, Any, Optional

from . import __version__
from .errors import BWBError, ConfigError, GradedRingError, LatticeError, RoofError, UnsupportedBundleError

if TYPE_CHECKING:
    from .roofcalc import MiddleLattice, RoofConfig, RoofQuery, RoofSide

# configs.builtin_names(), written out so that building the parser loads no configuration code
BUILTIN_NAMES = ("d4", "g2dagger")

# Caps of `bwb` DIM and |TWIST| and of `motivic --rank`; beyond them is a usage
# error.  At the caps, as fresh processes on a 2-vCPU host with Python 3.11.7
# (medians of 8 and 10 runs), `bwb 500 Splusdual 0` takes about 0.30 s and
# `motivic --rank 50000` about 0.42 s on a busy host: in process, about 0.08 s
# for the residual and 0.1 s to render it as text, once, since a closed form
# equal to it prints the same text.
MAX_QUADRIC_DIM = 500
MAX_TWIST = 10**9
MAX_MOTIVIC_RANK = 50000


def jsonable(x: Any) -> Any:
    """Exact JSON form: containers recurse, and a value not None, bool, int or str (a Fraction: 'p/q') is its str."""
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return str(x)


def _config(args: argparse.Namespace) -> RoofConfig:
    from .configs import resolve_config

    return resolve_config(args.name, args.config)


def _input(args: argparse.Namespace) -> str:
    """The input that an exit-1 error of describe, lemma7 or mukai names; nothing for the other commands."""
    if not hasattr(args, "config"):
        return ""
    return f" (built-in {args.name})" if args.config is None else f" (config {args.config})"


def _vector(lat: MiddleLattice, coords, **extra) -> dict:
    from .roofcalc import class_from_coordinates

    return {**extra, "coordinates": list(coords), "class": str(class_from_coordinates(lat, coords))}


def _side_report(q: RoofQuery, side: RoofSide) -> dict:
    from . import latticecore, roofcalc

    lat = q.lattice(side)
    gram = [list(r) for r in lat.gram]
    coords = q.locus(side)  # before the group: a config refused at the locus class pays for no Smith form
    locus, group = roofcalc.class_from_coordinates(lat, coords), q.group(side)
    h, idx = side.base.hyperplane, side.base.fano_index
    return {
        "base": side.base.name,
        "rank": side.rank,
        "relation": side.relation_string(),
        "relation_coefficients": [str(c) for c in side.groth_coeffs],
        "mukai_index_condition": bool(
            h is not None and idx is not None and side.groth_coeffs[0] == h * idx),
        "middle_basis": [roofcalc.monomial_name(side, lbl, e) or "1" for lbl, e in lat.monomials],
        "gram": gram,
        "gram_determinant": lat.determinant,
        # the Gram matrix is nonsingular: every Smith factor is 1 or a factor of the group
        "smith_factors": [1] * (len(gram) - len(group.factors)) + list(group.factors),
        "discriminant_group": str(group),
        "zero_locus_degree": roofcalc.cy_degree(side),
        "locus_class": str(locus),
        "locus_coordinates": list(coords),
        "locus_self_pairing": sum(map(mul, coords, latticecore.mat_vec(gram, coords))),
    }


def cmd_describe(cfg) -> dict:
    from . import roofcalc

    q = roofcalc.RoofQuery(cfg)
    return {
        "command": "describe",
        "name": cfg.name,
        "rank": cfg.rank,
        "base_dimension": cfg.n,
        "polarization_degree": cfg.polarization_degree,
        "sides": [_side_report(q, cfg.side), _side_report(q, cfg.tilde_side)],
    }


def cmd_lemma7(cfg) -> dict:
    from . import roofcalc

    q = roofcalc.RoofQuery(cfg)
    scan = q.residue_scan()
    lat_t = q.lattice(cfg.tilde_side)
    declared = scan.declared_witness
    return {
        "command": "lemma7",
        "name": cfg.name,
        "polarization_degree": scan.degree,
        "switched_locus": _vector(lat_t, scan.j_coords),
        "tilde_locus": _vector(lat_t, scan.jt_coords),
        "residue_set": list(scan.residue_set),
        "sign_orbit": list(scan.sign_orbit),
        "iso_obstructed": scan.iso_obstructed,
        "witnesses": [_vector(lat_t, w, k=k) for k, w in scan.witnesses],
        "declared_form": {
            "locus_signs": list(cfg.declared_locus_signs),
            "residue_set": list(scan.declared_residue_set),
            "witness": None if declared is None else _vector(lat_t, declared[1], k=declared[0]),
        },
    }


def cmd_bwb(dim: int, bundle: Optional[str], twist: int, case: Optional[int]) -> dict:
    from . import bwbcoh

    if case is not None:
        table, inputs = bwbcoh.vanishing_case(case), {"case": case}
    else:
        table = bwbcoh.named_bundle_table(dim, bundle, twist)
        inputs = {"quadric_dim": dim, "bundle": bundle, "twist": twist}
    return {
        "command": "bwb",
        **inputs,
        "table": {str(k): v for k, v in sorted(table.items())},
        "euler_characteristic": bwbcoh.euler_characteristic(table),
    }


def cmd_mukai(cfg, bound: int) -> dict:
    from . import roofcalc

    q = roofcalc.RoofQuery(cfg)
    sol, image_coords, vector = q.mukai(bound)
    return {
        "command": "mukai",
        "name": cfg.name,
        "bound": bound,
        "polarization": {"coordinates": list(q.locus(cfg.side))},
        "theta_v": _vector(q.lattice(cfg.side), sol.a),
        "theta_w": _vector(q.lattice(cfg.side), sol.b),
        "solution_orbits": len(sol.orbits),
        "switched_generator": _vector(q.lattice(cfg.tilde_side), image_coords),
        "mukai_vector": list(vector),
    }


def cmd_motivic(rank: Optional[int]) -> dict:
    from .motivicring import l_equivalence_residual, residual_closed_form

    ranks = [rank] if rank is not None else list(range(2, 13))
    rows = []
    for r in ranks:
        residual = l_equivalence_residual(r)
        expected = residual_closed_form(r)
        text, match = str(residual), residual == expected
        # equal polynomials render to the same text, so a match renders once
        rows.append({"rank": r, "residual": text, "expected": text if match else str(expected), "match": match})
    return {"command": "motivic", "identities": rows, "all_match": all(r["match"] for r in rows)}


def cmd_verify_all(corrupt: bool, bound: int) -> dict:
    from .checks import run_all

    checks = run_all(corrupt=corrupt, bound=bound)
    return {
        "command": "verify-all",
        "inputs": {"configurations": ["g2dagger", "d4"], "bound": bound, "corrupt": corrupt},
        "passed": all(c.passed for c in checks),
        "total": len(checks),
        "failures": sum(1 for c in checks if not c.passed),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "computed": jsonable(c.computed),
                "expected": jsonable(c.expected),
            }
            for c in checks
        ],
    }


# ---------------------------------------------------------------------------
# text rendering, one function per command
# ---------------------------------------------------------------------------

def _print_matrix(rows, header, out) -> None:
    cells = [[""] + header] + [[header[i]] + [str(x) for x in row] for i, row in enumerate(rows)]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    for r in cells:
        out.write("    " + "  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _describe_text(report: dict, out) -> None:
    out.write(f"configuration {report['name']}: rank {report['rank']} over Q{report['base_dimension']}, "
              f"polarization degree {report['polarization_degree']}\n")
    for tag, side in zip(("side", "tilde side"), report["sides"]):
        out.write(f"\n[{tag}] base {side['base']}\n")
        out.write(f"  relation: {side['relation']}\n")
        out.write(f"  mukai index condition: {side['mukai_index_condition']}\n")
        out.write(f"  middle basis: {', '.join(side['middle_basis'])}\n")
        out.write("  intersection matrix:\n")
        _print_matrix(side["gram"], side["middle_basis"], out)
        out.write(f"  determinant {side['gram_determinant']}, smith factors {side['smith_factors']}, "
                  f"discriminant group {side['discriminant_group']}\n")
        out.write(f"  zero-locus degree {side['zero_locus_degree']}\n")
        out.write(f"  locus class: {side['locus_class']}  (self-pairing {side['locus_self_pairing']})\n")


def _lemma7_text(report: dict, out) -> None:
    out.write(f"configuration {report['name']}: polarization degree {report['polarization_degree']}\n")
    out.write(f"  switched locus: {report['switched_locus']['class']}\n")
    out.write(f"  tilde locus:    {report['tilde_locus']['class']}\n")
    fmt = lambda ks: "{" + ", ".join(map(str, ks)) + "}"
    out.write(f"  residue set {fmt(report['residue_set'])} mod {report['polarization_degree']}, "
              f"sign orbit {fmt(report['sign_orbit'])}\n")
    for w in report["witnesses"]:
        out.write(f"  witness k={w['k']}: {w['class']}\n")
    w = report["declared_form"]["witness"]
    out.write("  declared-representative witness: none\n" if w is None else
              f"  declared-representative witness (k={w['k']}): {w['class']}\n")
    out.write(f"  isomorphism obstructed: {report['iso_obstructed']}\n")


def _bwb_text(report: dict, out) -> None:
    what = f"case {report['case']}" if "case" in report else \
        f"Q{report['quadric_dim']} {report['bundle']} twist {report['twist']}"
    body = ", ".join(f"h^{k} = {v}" for k, v in report["table"].items()) or "acyclic"
    out.write(f"{what}: {body}  (chi = {report['euler_characteristic']})\n")


def _mukai_text(report: dict, out) -> None:
    out.write(f"configuration {report['name']} (search bound {report['bound']}):\n")
    out.write(f"  theta(v) = {report['theta_v']['class']}\n")
    out.write(f"  theta(w) = {report['theta_w']['class']}\n")
    out.write(f"  solution orbits: {report['solution_orbits']}\n")
    out.write(f"  switched generator: {report['switched_generator']['class']}\n")
    out.write(f"  mukai vector: {tuple(report['mukai_vector'])}\n")


def _motivic_text(report: dict, out) -> None:
    for row in report["identities"]:
        out.write(f"rank {row['rank']:2d}: {'ok' if row['match'] else 'MISMATCH'}  residual = {row['residual']}\n")


def _verify_all_text(report: dict, out) -> None:
    for c in report["checks"]:
        out.write(f"PASS {c['name']}\n" if c["passed"] else
                  f"FAIL {c['name']}: computed {c['computed']!r}, expected {c['expected']!r}\n")
    out.write(f"{report['total'] - report['failures']}/{report['total']} checks passed\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int, what: str, cap: Optional[int] = None):
    """argparse type: an integer of at least ``low`` (``what`` when too small), at most ``cap``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value
    return parse


_bound = _int_at_least(0, "a non-negative integer")
_rank = _int_at_least(2, "an integer of at least 2", MAX_MOTIVIC_RANK)
_quadric_dim = _int_at_least(3, "an integer of at least 3", MAX_QUADRIC_DIM)
_twist = _int_at_least(-MAX_TWIST, f"an integer of at least {-MAX_TWIST}", MAX_TWIST)


def _bwb(args: argparse.Namespace) -> dict:
    if args.case is None and (args.dim is None or args.bundle is None):
        build_parser().error("bwb needs DIM BUNDLE [TWIST] or --case")
    if args.case is not None and args.dim is not None:
        build_parser().error("bwb takes DIM BUNDLE [TWIST] or --case, not both")
    return cmd_bwb(args.dim, args.bundle, args.twist, args.case)


@functools.cache  # parsing leaves no state in the parser, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every subcommand: its arguments and, through
    ``set_defaults``, ``report`` (parsed args -> report dict) and ``render``
    (report, stream -> its text form)."""
    p = argparse.ArgumentParser(
        prog="roofpairs",
        description="exact invariants of Calabi-Yau pairs from roofs of projective bundles",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    bound_help = "report the isotropic pair only if all its coordinates lie in [-BOUND, BOUND]"

    def command(name: str, help: str, report, render) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(report=report, render=render)
        return sp

    def add_config_args(sp):
        sp.add_argument("name", nargs="?", default="",
                        help=f"built-in configuration ({', '.join(BUILTIN_NAMES)})")
        sp.add_argument("--config", metavar="PATH", help="load a configuration file instead")
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    add_config_args(command("describe", "relations, tables and lattice invariants",
                            lambda a: cmd_describe(_config(a)), _describe_text))
    add_config_args(command("lemma7", "locus classes, side switch and residue scan",
                            lambda a: cmd_lemma7(_config(a)), _lemma7_text))

    sp = command("bwb", "cohomology of homogeneous bundles on quadrics", _bwb, _bwb_text)
    sp.add_argument("dim", nargs="?", type=_quadric_dim, help=f"quadric dimension (3 to {MAX_QUADRIC_DIM})")
    sp.add_argument("bundle", nargs="?", help="bundle descriptor, e.g. O, Sdual, Sym2Sdual, G, C")
    sp.add_argument("twist", nargs="?", type=_twist, default=0, help=f"twist (-{MAX_TWIST} to {MAX_TWIST})")
    sp.add_argument("--case", type=int, choices=(1, 2, 3), help="scripted vanishing pipeline")
    sp.add_argument("--json", action="store_true")

    sp = command("mukai", "isotropic pair and Fourier-Mukai vector",
                 lambda a: cmd_mukai(_config(a), a.bound), _mukai_text)
    add_config_args(sp)
    sp.add_argument("--bound", type=_bound, default=50, help=bound_help)

    sp = command("motivic", "Grothendieck-ring fibration identities",
                 lambda a: cmd_motivic(a.rank), _motivic_text)
    sp.add_argument("--rank", type=_rank, help=f"single rank (2 to {MAX_MOTIVIC_RANK}) instead of 2..12")
    sp.add_argument("--json", action="store_true")

    sp = command("verify-all", "run every golden check",
                 lambda a: cmd_verify_all(a.corrupt, a.bound), _verify_all_text)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--bound", type=_bound, default=50, help=bound_help)
    sp.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The caps bound the inputs and the run time, not the digits of the report's integers (a Gram
    # entry of tests/data/q24_at_cap.json has 2014), so the report is built and rendered without
    # CPython's int/str digit limit.  Python 3.10.0-3.10.6 have no such limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report = args.report(args)
        if args.json:
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
        else:
            args.render(report, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; as in the Python docs' note on SIGPIPE, stdout now points at devnull so that
        # the flush at interpreter exit finds no broken pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, UnsupportedBundleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RoofError, GradedRingError, LatticeError, BWBError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}{_input(args)}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    # motivic and verify-all exit 1 unless every identity or check held
    return 0 if report.get("all_match", True) and report.get("passed", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
