"""Command-line interface.

Commands operate on truss documents (JSON) and write machine-readable
JSON reports to standard output; diagrams go to files via --svg.  Every
number in a report is an exact rational string or an integer count.

Exit codes: 0 success, 1 invalid input, 2 precondition violation,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cosheaves import boundary_matrices, spline_cosheaf
from .documents import (
    LoadedTruss,
    document_to_form_diagram,
    document_to_truss,
    force_diagram_document,
    format_coord,
    parse_truss_document,
    relative_diagram_document,
)
from .duality import (
    force_diagram_from_stress,
    impossible_rotation_basis,
    position_cosheaf,
    relative_force_diagram,
    stress_from_force_diagram,
)
from .errors import InputError, InternalCheckError, PreconditionError, TrussHomError
from .homology import (
    betti_numbers,
    check_euler_identity,
    homology,
    les_dimension_check,
)
from .statics import (
    analyze,
    equilibrium_stresses,
    force_chain_complex,
    maxwell_report,
)
from .svg import render_svg

Q = Fraction


def _load_document(path: str):
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {path}")
    return parse_truss_document(p.read_text())


def _load(path: str, dim=None) -> LoadedTruss:
    return document_to_truss(_load_document(path), dim=dim)


def _maxwell_dict(mr) -> dict:
    return {
        "n": mr.n,
        "vertices": mr.nverts,
        "edges": mr.nedges,
        "rigid_dim": mr.rigid_dim,
        "self_stresses": mr.self_stresses,
        "mechanisms": mr.mechanisms,
        "residual": mr.residual,
        "degenerate_span": mr.degenerate_span,
        "identity": mr.identity_line,
    }


def _stress_dict(loaded: LoadedTruss, vec) -> dict:
    return {loaded.edge_ids[e]: format_coord(v) for e, v in enumerate(vec)}


def _dof_dict(loaded: LoadedTruss, vec) -> dict:
    n = loaded.truss.dim
    return {
        vid: [format_coord(vec[i * n + k]) for k in range(n)]
        for i, vid in enumerate(loaded.vertex_ids)
    }


def cmd_analyze(args) -> dict:
    loaded = _load(args.file, dim=args.dim)
    t = loaded.truss
    rep = analyze(t)
    mr = maxwell_report(t)
    euler = check_euler_identity(force_chain_complex(t))
    out = {
        "command": "analyze",
        "dim": t.dim,
        "counts": {"vertices": t.complex.nverts, "edges": t.complex.nedges},
        "betti": {"b0": rep.betti0, "b1": rep.betti1},
        "self_stresses": [_stress_dict(loaded, v) for v in rep.self_stress_basis],
        "degrees_of_freedom": [_dof_dict(loaded, v) for v in rep.dof_reps],
        "maxwell": _maxwell_dict(mr),
        "euler": {"chain": euler.chain_euler, "homology": euler.homology_euler, "ok": True},
    }
    if args.boundary:
        dec = loaded.boundary_decomposition()
        eq = equilibrium_stresses(dec)
        out["equilibrium"] = {
            "connectors": [loaded.edge_ids[e] for e in dec.connector_edges],
            "dimension": len(eq),
            "basis": [_stress_dict(loaded, v) for v in eq],
        }
    if args.svg:
        stress = rep.self_stress_basis[0] if rep.self_stress_basis else None
        Path(args.svg).write_text(render_svg(t, stress))
    return out


def cmd_maxwell(args) -> dict:
    loaded = _load(args.file, dim=args.dim)
    return {"command": "maxwell", **_maxwell_dict(maxwell_report(loaded.truss))}


def cmd_selfstress(args) -> dict:
    loaded = _load(args.file, dim=args.dim)
    rep = analyze(loaded.truss)
    return {
        "command": "selfstress",
        "dimension": rep.betti1,
        "basis": [_stress_dict(loaded, v) for v in rep.self_stress_basis],
    }


def cmd_dual(args) -> dict:
    fd, loaded = document_to_form_diagram(_load_document(args.file))
    rep = analyze(loaded.truss)
    if args.stress is None:
        stress = rep.self_stress_basis[0] if rep.self_stress_basis else [Q(0)] * fd.complex.nedges
    else:
        if not 0 <= args.stress < len(rep.self_stress_basis):
            raise InputError(
                f"--stress {args.stress}: structure has "
                f"{len(rep.self_stress_basis)} self-stresses"
            )
        stress = rep.self_stress_basis[args.stress]
    diag = force_diagram_from_stress(fd, stress)
    if args.svg:
        Path(args.svg).write_text(render_svg(diag, stress))
    return {"command": "dual", **force_diagram_document(diag, loaded, stress)}


def cmd_rotations(args) -> dict:
    fd, loaded = document_to_form_diagram(_load_document(args.file))
    pc = position_cosheaf(fd)
    basis = impossible_rotation_basis(pc)
    b = betti_numbers(pc.force_chain)
    return {
        "command": "rotations",
        "dimension": basis.dim,
        "degrees_of_freedom": b[0],
        "identity": f"{basis.dim} = {b[0]} - 2",
        "basis": [_stress_dict(loaded, chain) for chain in basis.chains],
    }


def cmd_relative(args) -> dict:
    fd, loaded = document_to_form_diagram(_load_document(args.file))
    dec = loaded.boundary_decomposition()
    eq = equilibrium_stresses(dec)
    stress = None
    if args.stress is not None:
        if not 0 <= args.stress < len(eq):
            raise InputError(
                f"--stress {args.stress}: decomposition has {len(eq)} equilibrium states"
            )
        stress = eq[args.stress]
    rel = relative_force_diagram(dec, stress)
    if args.svg:
        Path(args.svg).write_text(render_svg(rel))
    out = relative_diagram_document(rel, loaded)
    out["equilibrium_dimension"] = len(eq)
    return {"command": "relative", **out}


def cmd_spline(args) -> dict:
    loaded = _load(args.file)
    x = loaded.truss.complex
    if x.faces:
        raise PreconditionError("spline analysis runs on graphs, not 2-complexes")
    k = spline_cosheaf(x, args.degree, args.smoothness)
    cc = boundary_matrices(k)
    h = homology(cc)
    m = args.degree
    reps = h.degrees[1].representatives if 1 in h.degrees else []
    decoded = []
    for v in reps:
        by_edge = {}
        for e, eid in enumerate(loaded.edge_ids):
            coeffs = v[e * (m + 1):(e + 1) * (m + 1)]
            by_edge[eid] = [format_coord(c) for c in coeffs]
        decoded.append(by_edge)
    return {
        "command": "spline",
        "degree": m,
        "smoothness": args.smoothness,
        "chain_dims": {str(k2): d for k2, d in sorted(cc.dims.items())},
        "betti": {"b0": h.betti(0), "b1": h.betti(1)},
        "spline_space_dimension": h.betti(1),
        "basis_coefficients": decoded,
    }


def cmd_check(args) -> dict:
    loaded = _load(args.file)
    t = loaded.truss
    report: dict = {"command": "check", "checks": []}

    def record(name, ok, detail=""):
        report["checks"].append({"name": name, "ok": ok, "detail": detail})

    cc = force_chain_complex(t)  # raises InternalCheckError if dd != 0
    record("boundary_composition_zero", True)
    euler = check_euler_identity(cc)
    record(
        "euler_identity", True,
        f"chains {euler.chain_euler} == homology {euler.homology_euler}",
    )
    b = betti_numbers(cc)
    mr = maxwell_report(t)
    record("maxwell_identity", True, mr.identity_line)

    if t.dim == 2:
        try:
            fd, loaded2 = document_to_form_diagram(loaded.document)
            pc = position_cosheaf(fd)
            from .sparse import rank as _rank

            h2g = pc.chain.dims[2] - _rank(pc.boundary2())
            rb = impossible_rotation_basis(pc)
            fb = betti_numbers(pc.force_chain)
            record("dual_realizations_identity", h2g == fb[1] + 2, f"{h2g} == {fb[1]} + 2")
            record("impossible_rotations_identity", rb.dim == fb[0] - 2, f"{rb.dim} == {fb[0]} - 2")
            if h2g != fb[1] + 2 or rb.dim != fb[0] - 2:
                raise InternalCheckError("planar duality dimension identity failed")
            rep = analyze(fd.truss)
            for i, s in enumerate(rep.self_stress_basis):
                diag = force_diagram_from_stress(fd, s)
                if stress_from_force_diagram(fd, diag.positions) != list(s):
                    raise InternalCheckError(f"stress roundtrip failed at basis {i}")
            record("stress_diagram_roundtrip", True, f"{len(rep.self_stress_basis)} vectors")
        except PreconditionError as exc:
            record("planar_duality", True, f"skipped: {exc}")

    if loaded.document.boundary is not None:
        dec = loaded.boundary_decomposition()
        seq = les_dimension_check(dec.presentation.inclusion, dec.presentation)
        record(
            "boundary_sequence_dimensions", seq.exactness_consistent,
            f"alternating sum {seq.alternating_sum}",
        )
        record(
            "selfstress_to_equilibrium_injective", seq.h1_projection_injective,
            f"rank {seq.rank_h1_projection} of {seq.dims_total[1]}",
        )
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusshom",
        description="Homological statics of trusses over exact rational arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *, dim=False, svg=False, stress=False, boundary=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="truss document (JSON)")
        if dim:
            p.add_argument("--dim", type=int, default=None, help="ambient dimension override")
        if svg:
            p.add_argument("--svg", metavar="PATH", help="also write an SVG rendering")
        if stress:
            p.add_argument("--stress", type=int, default=None, metavar="INDEX",
                           help="basis vector index to realize")
        if boundary:
            p.add_argument("--boundary", action="store_true",
                           help="use the document's boundary section")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "Betti numbers, self-stresses, freedoms, Maxwell count",
        dim=True, svg=True, boundary=True)
    add("maxwell", cmd_maxwell, "Maxwell counting identity", dim=True)
    add("selfstress", cmd_selfstress, "self-stress basis", dim=True)
    add("dual", cmd_dual, "reciprocal force diagram from a self-stress",
        svg=True, stress=True)
    add("rotations", cmd_rotations, "impossible dual edge rotations")
    add("relative", cmd_relative, "dual-disk diagram of a boundary-loaded structure",
        svg=True, stress=True)
    p_spline = add("spline", cmd_spline, "piecewise-polynomial spline space of a graph")
    p_spline.add_argument("--degree", type=int, default=1, help="polynomial degree bound")
    p_spline.add_argument("--smoothness", type=int, default=0,
                          help="matching order at vertices")
    add("check", cmd_check, "run the internal consistency suite on a file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        report = args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": "invalid input", "detail": str(exc)}), file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(json.dumps({"error": "precondition violated", "detail": str(exc)}), file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(json.dumps({"error": "internal check failed", "detail": str(exc)}), file=sys.stderr)
        return 3
    except TrussHomError as exc:
        print(json.dumps({"error": "failed", "detail": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
