"""JSON documents for trusses, diagrams and reports.

Coordinates are exchanged as strings, either exact decimals ("-0.25") or
ratios ("1/3") and no other form; both parse to the exact rational with
no binary float in between.  Plain JSON integers are accepted too.  JSON floats are
rejected: they would silently break the exactness contract.

Documents round-trip: parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complexes import Embedding, build_complex
from .duality import FormDiagram, ForceDiagram, RelativeForceDiagram, form_diagram
from .errors import InputError
from .statics import BoundaryDecomposition, Truss, decompose_boundary

Q = Fraction

SCHEMA_VERSION = 1

_COORD = re.compile(r"-?[0-9]+(\.[0-9]+)?|-?[0-9]+/[0-9]+")


def parse_coord(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError("coordinate must be a string or integer, got a boolean")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, float):
        raise InputError(
            f"coordinate {value!r} is a JSON float; write it as a string "
            "(exact decimal or num/den) to keep arithmetic exact"
        )
    if isinstance(value, str):
        # Fraction(str) would also take exponents ("1e10000000"), which it
        # expands to full integers at a cost that grows with the exponent
        if not _COORD.fullmatch(value):
            raise InputError(
                f"coordinate {value[:40]!r} is neither an exact decimal "
                "(\"-0.25\") nor a ratio (\"1/3\")"
            )
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse coordinate {value!r}: {exc}") from None
    raise InputError(f"coordinate has unsupported type {type(value).__name__}")


def format_coord(value: Fraction) -> str:
    return str(Q(value))


@dataclass(frozen=True)
class BoundarySection:
    loop_vertices: tuple[str, ...]
    loop_edges: tuple[str, ...]
    connectors: Optional[tuple[str, ...]] = None   # checked when declared


@dataclass(frozen=True)
class TrussDocument:
    dim: int
    vertices: tuple[tuple[str, tuple[Fraction, ...]], ...]   # (id, position)
    edges: tuple[tuple[str, str, str], ...]                  # (id, tail id, head id)
    faces: Optional[tuple[tuple[str, tuple[tuple[str, int], ...]], ...]] = None
    exterior: Optional[str] = None
    boundary: Optional[BoundarySection] = None

    def vertex_index(self) -> dict[str, int]:
        return {vid: i for i, (vid, _) in enumerate(self.vertices)}

    def edge_index(self) -> dict[str, int]:
        return {eid: i for i, (eid, _, _) in enumerate(self.edges)}


def _expect(obj, key, kind, where):
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    val = obj[key]
    # bool is a subclass of int, but JSON true/false is never a count
    if isinstance(val, bool) or not isinstance(val, kind):
        raise InputError(f"{where}: field {key!r} has the wrong type")
    return val


def parse_truss_document(text: str) -> TrussDocument:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("document root must be an object")
    version = raw.get("version")
    if version != SCHEMA_VERSION:
        raise InputError(f"unsupported document version {version!r}")
    dim = _expect(raw, "dim", int, "document")
    if dim < 1:
        raise InputError("dim must be >= 1")

    vertices = []
    seen_v = set()
    for k, v in enumerate(_expect(raw, "vertices", list, "document")):
        if not isinstance(v, dict):
            raise InputError(f"vertices[{k}] must be an object")
        vid = _expect(v, "id", str, f"vertices[{k}]")
        if vid in seen_v:
            raise InputError(f"duplicate vertex id {vid!r}")
        seen_v.add(vid)
        pos = _expect(v, "pos", list, f"vertex {vid!r}")
        if len(pos) != dim:
            raise InputError(f"vertex {vid!r} has {len(pos)} coordinates, dim is {dim}")
        vertices.append((vid, tuple(parse_coord(c) for c in pos)))

    edges = []
    seen_e = set()
    for k, e in enumerate(_expect(raw, "edges", list, "document")):
        if not isinstance(e, dict):
            raise InputError(f"edges[{k}] must be an object")
        eid = _expect(e, "id", str, f"edges[{k}]")
        if eid in seen_e:
            raise InputError(f"duplicate edge id {eid!r}")
        seen_e.add(eid)
        tail = _expect(e, "tail", str, f"edge {eid!r}")
        head = _expect(e, "head", str, f"edge {eid!r}")
        for vid in (tail, head):
            if vid not in seen_v:
                raise InputError(f"edge {eid!r} references missing vertex {vid!r}")
        edges.append((eid, tail, head))

    faces = None
    if "faces" in raw and raw["faces"] is not None:
        faces = []
        seen_f = set()
        for k, f in enumerate(_expect(raw, "faces", list, "document")):
            if not isinstance(f, dict):
                raise InputError(f"faces[{k}] must be an object")
            fid = _expect(f, "id", str, f"faces[{k}]")
            if fid in seen_f:
                raise InputError(f"duplicate face id {fid!r}")
            seen_f.add(fid)
            cyc = _expect(f, "cycle", list, f"face {fid!r}")
            cycle = []
            for item in cyc:
                if (
                    not isinstance(item, list)
                    or len(item) != 2
                    or not isinstance(item[0], str)
                    or not isinstance(item[1], int)
                    or isinstance(item[1], bool)
                ):
                    raise InputError(f"face {fid!r}: cycle entries are [edge id, sign]")
                if item[0] not in seen_e:
                    raise InputError(f"face {fid!r} references missing edge {item[0]!r}")
                cycle.append((item[0], item[1]))
            faces.append((fid, tuple(cycle)))
        faces = tuple(faces)

    exterior = raw.get("exterior")
    if exterior is not None:
        if not isinstance(exterior, str):
            raise InputError("exterior must be a face id string")
        if faces is None or exterior not in {fid for fid, _ in faces}:
            raise InputError(f"exterior face {exterior!r} is not among the faces")

    boundary = None
    if "boundary" in raw and raw["boundary"] is not None:
        b = raw["boundary"]
        if not isinstance(b, dict):
            raise InputError("boundary must be an object")
        lv = tuple(_expect(b, "loop_vertices", list, "boundary"))
        le = tuple(_expect(b, "loop_edges", list, "boundary"))
        conn = None
        if b.get("connectors") is not None:
            conn = tuple(_expect(b, "connectors", list, "boundary"))
        for vid in lv:
            if not isinstance(vid, str) or vid not in seen_v:
                raise InputError(f"boundary references missing vertex {vid!r}")
        for eid in le + (conn or ()):
            if not isinstance(eid, str) or eid not in seen_e:
                raise InputError(f"boundary references missing edge {eid!r}")
        boundary = BoundarySection(lv, le, conn)

    return TrussDocument(dim, tuple(vertices), tuple(edges), faces, exterior, boundary)


def serialize_truss_document(doc: TrussDocument) -> str:
    raw = {
        "version": SCHEMA_VERSION,
        "dim": doc.dim,
        "vertices": [
            {"id": vid, "pos": [format_coord(c) for c in pos]}
            for vid, pos in doc.vertices
        ],
        "edges": [
            {"id": eid, "tail": t, "head": h} for eid, t, h in doc.edges
        ],
    }
    if doc.faces is not None:
        raw["faces"] = [
            {"id": fid, "cycle": [[eid, s] for eid, s in cyc]}
            for fid, cyc in doc.faces
        ]
    if doc.exterior is not None:
        raw["exterior"] = doc.exterior
    if doc.boundary is not None:
        raw["boundary"] = {
            "loop_vertices": list(doc.boundary.loop_vertices),
            "loop_edges": list(doc.boundary.loop_edges),
        }
        if doc.boundary.connectors is not None:
            raw["boundary"]["connectors"] = list(doc.boundary.connectors)
    return json.dumps(raw, indent=2) + "\n"


@dataclass(frozen=True)
class LoadedTruss:
    """A parsed document resolved into domain objects plus id tables."""

    document: TrussDocument
    truss: Truss
    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    face_ids: Optional[tuple[str, ...]]

    def boundary_decomposition(self) -> BoundaryDecomposition:
        """Split the truss along the document's boundary loop.  A declared
        connector list must name exactly the connectors the split finds."""
        b = self.document.boundary
        if b is None:
            raise InputError("document has no boundary section")
        vmap = self.document.vertex_index()
        emap = self.document.edge_index()
        dec = decompose_boundary(
            self.truss,
            tuple(vmap[v] for v in b.loop_vertices),
            tuple(emap[e] for e in b.loop_edges),
        )
        found = [self.edge_ids[e] for e in dec.connector_edges]
        if b.connectors is not None and set(b.connectors) != set(found):
            raise InputError(
                f"boundary.connectors {sorted(set(b.connectors))} do not match "
                f"the connector edges of the loop {sorted(found)}"
            )
        return dec


def document_to_truss(doc: TrussDocument, dim: Optional[int] = None) -> LoadedTruss:
    """Resolve ids to a Truss.  ``dim`` >= document dim pads coordinates
    with zeros (analysis of a planar structure as a spatial one)."""
    n = doc.dim if dim is None else dim
    if n < doc.dim:
        raise InputError(f"cannot reduce dimension {doc.dim} to {n}")
    vmap = doc.vertex_index()
    emap = doc.edge_index()
    pts = [pos + (Q(0),) * (n - doc.dim) for _, pos in doc.vertices]
    edges = [(vmap[t], vmap[h]) for _, t, h in doc.edges]
    faces = []
    exterior_idx = None
    if doc.faces is not None:
        fmap = {fid: i for i, (fid, _) in enumerate(doc.faces)}
        for fid, cyc in doc.faces:
            faces.append([(emap[eid], s) for eid, s in cyc])
        if doc.exterior is not None:
            exterior_idx = fmap[doc.exterior]
    x = build_complex(len(pts), edges, faces, exterior_idx)
    truss = Truss(x, Embedding.from_points(pts, n))
    return LoadedTruss(
        doc,
        truss,
        tuple(vid for vid, _ in doc.vertices),
        tuple(eid for eid, _, _ in doc.edges),
        tuple(fid for fid, _ in doc.faces) if doc.faces is not None else None,
    )


def document_to_form_diagram(doc: TrussDocument) -> tuple[FormDiagram, LoadedTruss]:
    """Form diagram from a document; faces are traced from the embedding
    when the document does not carry them."""
    loaded = document_to_truss(doc)
    fd = form_diagram(loaded.truss)
    if loaded.face_ids is None:
        face_ids = tuple(f"f{i}" for i in range(fd.complex.nfaces))
        loaded = LoadedTruss(
            loaded.document, Truss(fd.complex, fd.embedding),
            loaded.vertex_ids, loaded.edge_ids, face_ids,
        )
    return fd, loaded


def force_diagram_document(
    diag: ForceDiagram, loaded: LoadedTruss, stress
) -> dict:
    """Serializable force-diagram document (exact coordinate strings)."""
    x = diag.form.complex
    face_ids = loaded.face_ids or tuple(f"f{i}" for i in range(x.nfaces))
    dual_vertices = [
        {
            "id": face_ids[i],
            "pos": [format_coord(c) for c in diag.positions[i]],
            "exterior": i == x.exterior_face,
        }
        for i in range(x.nfaces)
    ]
    dual_edges = []
    for e in range(x.nedges):
        fl, fr = x.left_right_faces(e)
        dual_edges.append(
            {
                "of_edge": loaded.edge_ids[e],
                "tail": face_ids[fl],
                "head": face_ids[fr],
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "type": "force_diagram",
        "dual_vertices": dual_vertices,
        "dual_edges": dual_edges,
        "stress": {loaded.edge_ids[e]: format_coord(stress[e]) for e in range(x.nedges)},
    }


def relative_diagram_document(rel: RelativeForceDiagram, loaded: LoadedTruss) -> dict:
    x = rel.decomposition.truss.complex
    face_ids = loaded.face_ids or tuple(f"f{i}" for i in range(x.nfaces))
    dual_vertices = [
        {"id": face_ids[f], "pos": [format_coord(c) for c in rel.positions[f]]}
        for f in rel.interior_faces
    ]
    dual_edges = []
    for e in range(x.nedges):
        if e in rel.decomposition.loop.edges:
            continue
        fl, fr = x.left_right_faces(e)
        dual_edges.append(
            {
                "of_edge": loaded.edge_ids[e],
                "tail": face_ids[fl],
                "head": face_ids[fr],
                "connector": e in rel.decomposition.connector_edges,
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "type": "relative_force_diagram",
        "dual_vertices": dual_vertices,
        "dual_edges": dual_edges,
        "stress": {
            loaded.edge_ids[e]: format_coord(rel.stress[e])
            for e in range(x.nedges)
            if e not in rel.decomposition.loop.edges
        },
    }
