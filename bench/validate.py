"""Independent checks of trusshom's command outputs.

Everything here is exact arithmetic on ``fractions.Fraction`` over the
generator's own coordinates; nothing imports trusshom.  Integer
invariants (Betti numbers, rotation and equilibrium dimensions) are
computed here from the structure and pinned; printed bases are not
compared, because a correct engine may return a different basis.
"""

from __future__ import annotations

import json
from fractions import Fraction

from generators import Structure

Q = Fraction


def exact_rank(rows) -> int:
    """Rank of sparse rows (dicts column -> Fraction) by forward elimination.

    Pivots on the shortest remaining row, which keeps fill-in low on the
    incidence-like matrices of trusses."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        k = min(range(len(rows)), key=lambda i: len(rows[i]))
        prow = rows.pop(k)
        pj = min(prow)
        pv = prow[pj]
        nxt = []
        for r in rows:
            f = r.get(pj)
            if f:
                f /= pv
                for j, v in prow.items():
                    nv = r.get(j, 0) - f * v
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
            if r:
                nxt.append(r)
        rows = nxt
        rank += 1
    return rank


def _edge_vec(s: Structure, e: int):
    t, h = s.edges[e]
    return tuple(a - b for a, b in zip(s.points[h], s.points[t]))


def _equilibrium_rows(s: Structure, edges, joints):
    """Rows (joint, axis) of the equilibrium matrix on the given edges."""
    rows = {(v, k): {} for v in joints for k in range(s.dim)}
    for col, e in enumerate(edges):
        t, h = s.edges[e]
        vec = _edge_vec(s, e)
        for k, c in enumerate(vec):
            if c:
                if (h, k) in rows:
                    rows[(h, k)][col] = c
                if (t, k) in rows:
                    rows[(t, k)][col] = -c
    return list(rows.values())


def invariants(s: Structure) -> dict:
    """V, E, F and the integer invariants the validator pins."""
    nv, ne = len(s.points), len(s.edges)
    r = exact_rank(_equilibrium_rows(s, range(ne), range(nv)))
    out = {"V": nv, "E": ne, "b0": s.dim * nv - r, "b1": ne - r}
    if s.dim == 2:
        # the planar families are connected, so the traced sphere has
        # E - V + 2 faces, the exterior included
        out["F"] = len(s.faces) if s.faces is not None else ne - nv + 2
        out["rotation_dim"] = out["b0"] - 2
    if s.loop_vertices:
        loop_v, loop_e = set(s.loop_vertices), set(s.loop_edges)
        inner_e = [e for e in range(ne) if e not in loop_e]
        inner_v = [v for v in range(nv) if v not in loop_v]
        out["equilibrium_dim"] = len(inner_e) - exact_rank(
            _equilibrium_rows(s, inner_e, inner_v)
        )
    return out


class Invalid(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise Invalid(msg)


def _stress(s: Structure, raw: dict, edges) -> dict[int, Fraction]:
    ids = {eid: e for e, eid in enumerate(s.edge_ids)}
    _require(set(raw) == {s.edge_ids[e] for e in edges}, "stress covers the wrong edges")
    return {ids[k]: Q(v) for k, v in raw.items()}


def _check_balance(s: Structure, stress: dict[int, Fraction], joints) -> None:
    net = {v: [Q(0)] * s.dim for v in joints}
    for e, se in stress.items():
        if not se:
            continue
        t, h = s.edges[e]
        for k, c in enumerate(_edge_vec(s, e)):
            if t in net:
                net[t][k] += se * c
            if h in net:
                net[h][k] -= se * c
    bad = [s.vertex_ids[v] for v, f in net.items() if any(f)]
    _require(not bad, f"stress leaves joints unbalanced: {bad[:3]}")


def _check_dual(s: Structure, doc: dict, stress: dict[int, Fraction], nvert: int) -> None:
    """Every dual edge is parallel to its primal edge with
    q(tail) - q(head) = s_e * (p_head - p_tail)."""
    ids = {eid: e for e, eid in enumerate(s.edge_ids)}
    q = {v["id"]: tuple(Q(c) for c in v["pos"]) for v in doc["dual_vertices"]}
    _require(len(q) == nvert, f"{len(q)} dual vertices, expected {nvert}")
    _require(len(doc["dual_edges"]) == len(stress), "one dual edge per stressed edge")
    for de in doc["dual_edges"]:
        e = ids[de["of_edge"]]
        d = tuple(a - b for a, b in zip(q[de["tail"]], q[de["head"]]))
        want = tuple(stress[e] * c for c in _edge_vec(s, e))
        _require(d == want, f"dual edge of {de['of_edge']} does not close")


def _check_independent(vectors, label):
    rows = [{j: v for j, v in enumerate(vec) if v} for vec in vectors]
    _require(exact_rank(rows) == len(rows), f"{label} are linearly dependent")


def _check_maxwell(s: Structure, inv: dict, m: dict) -> None:
    n, nv, ne = s.dim, inv["V"], inv["E"]
    lhs = n * nv - ne
    _require((m["n"], m["vertices"], m["edges"]) == (n, nv, ne), "maxwell counts")
    _require(lhs == inv["b0"] - inv["b1"], "n|V| - |E| != b0 - b1")
    _require(m["self_stresses"] == inv["b1"], "maxwell self-stress count")
    _require(m["rigid_dim"] + m["mechanisms"] == inv["b0"], "maxwell freedom count")
    _require(
        m["identity"].startswith(f"{n}*{nv} - {ne} = {lhs} = "), "maxwell identity line"
    )


def _analyze(s, inv, out, _svg):
    _require(out["betti"] == {"b0": inv["b0"], "b1": inv["b1"]}, "betti numbers")
    vecs = []
    for raw in out["self_stresses"]:
        st = _stress(s, raw, range(len(s.edges)))
        _check_balance(s, st, range(len(s.points)))
        vecs.append([st[e] for e in range(len(s.edges))])
    _require(len(vecs) == inv["b1"], "self-stress count")
    _check_independent(vecs, "self-stresses")
    _require(len(out["degrees_of_freedom"]) == inv["b0"], "freedom count")
    _check_maxwell(s, inv, out["maxwell"])


def _maxwell(s, inv, out, _svg):
    _check_maxwell(s, inv, out)


def _check(s, inv, out, _svg):
    _require(out["checks"], "no checks reported")
    failed = [c["name"] for c in out["checks"] if not c["ok"]]
    _require(out["ok"] is True and not failed, f"check failed: {failed}")


def _dual(s, inv, out, svg):
    st = _stress(s, out["stress"], range(len(s.edges)))
    _require(any(st.values()), "dual of the zero stress")
    _check_balance(s, st, range(len(s.points)))
    _check_dual(s, out, st, inv["F"])
    _require(sum(v["exterior"] for v in out["dual_vertices"]) == 1, "one exterior vertex")
    text = svg.read_text() if svg is not None and svg.is_file() else ""
    _require(text.rstrip().endswith("</svg>"), "SVG missing or truncated")
    _require(text.count("<line ") == inv["E"], "SVG has one line per dual edge")


def _rotations(s, inv, out, _svg):
    _require(out["degrees_of_freedom"] == inv["b0"], "rotation freedom count")
    _require(out["dimension"] == out["degrees_of_freedom"] - 2, "rotations != dof - 2")
    _require(out["dimension"] == inv["rotation_dim"], "rotation dimension")
    _require(len(out["basis"]) == out["dimension"], "rotation basis size")


def _relative(s, inv, out, _svg):
    _require(out["equilibrium_dimension"] == inv["equilibrium_dim"], "equilibrium dimension")
    loop_v, loop_e = set(s.loop_vertices), set(s.loop_edges)
    inner_e = [e for e in range(len(s.edges)) if e not in loop_e]
    st = _stress(s, out["stress"], inner_e)
    _require(any(st.values()), "relative diagram of the zero stress")
    _check_balance(s, st, [v for v in range(len(s.points)) if v not in loop_v])
    _check_dual(s, out, st, inv["F"] - 1)


VALIDATORS = {
    "analyze": _analyze,
    "maxwell": _maxwell,
    "check": _check,
    "dual": _dual,
    "rotations": _rotations,
    "relative": _relative,
}


def invalid_reason(command: str, s: Structure, inv: dict, stdout: str, svg=None) -> str | None:
    """None when the output is correct, else the reason it is not."""
    try:
        out = json.loads(stdout)
        _require(out.get("command") == command, "wrong command in output")
        VALIDATORS[command](s, inv, out, svg)
    except Invalid as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
