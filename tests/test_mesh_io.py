import re

import numpy as np
import pytest

from helfrich import shapes
from helfrich.errors import DegenerateFace, IndexOutOfRange, MeshError
from helfrich.mesh_io import read_mesh, read_obj, read_off, write_mesh


def test_off_roundtrip_exact(tmp_path, icosphere4):
    path = tmp_path / "m.off"
    write_mesh(path, icosphere4)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, icosphere4.vertices)
    assert np.array_equal(back.faces, icosphere4.faces)


def test_obj_roundtrip_exact(tmp_path):
    mesh = shapes.torus(2.0, 1.0, 16, 8)
    path = tmp_path / "m.obj"
    write_mesh(path, mesh)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_off_comments_and_header(tmp_path):
    text = "OFF # comment\n# full comment line\n4 4 6\n"
    tet = shapes.tetrahedron()
    for v in tet.vertices:
        text += f"{v[0]} {v[1]} {v[2]}\n"
    for f in tet.faces:
        text += f"3 {f[0]} {f[1]} {f[2]} # face\n"
    path = tmp_path / "c.off"
    path.write_text(text)
    mesh = read_off(path)
    assert mesh.n_faces == 4


def test_obj_ignores_other_records(tmp_path):
    tet = shapes.tetrahedron()
    lines = ["# header", "o tetra", "mtllib none.mtl"]
    lines += [f"v {v[0]} {v[1]} {v[2]}" for v in tet.vertices]
    lines += ["vn 0 0 1", "vt 0.5 0.5", "s off"]
    lines += [f"f {a + 1}/1/1 {b + 1}/1/1 {c + 1}/1/1" for a, b, c in tet.faces]
    path = tmp_path / "r.obj"
    path.write_text("\n".join(lines) + "\n")
    mesh = read_obj(path)
    assert mesh.n_faces == 4
    assert np.array_equal(mesh.faces, tet.faces)


def test_bad_files_rejected(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("NOT_OFF\n1 2 3\n")
    with pytest.raises(MeshError):
        read_off(p)
    q = tmp_path / "quad.obj"
    q.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError):
        read_obj(q)
    with pytest.raises(MeshError):
        read_mesh(tmp_path / "mesh.stl")


def _tet_off_lines():
    tet = shapes.tetrahedron()
    return ["OFF", "4 4 6"] + [f"{x} {y} {z}" for x, y, z in tet.vertices] + [f"3 {a} {b} {c}" for a, b, c in tet.faces]


def test_off_comment_inside_a_record(tmp_path):
    lines = _tet_off_lines()
    x, y, z = lines[2].split()
    lines[2] = f"{x} {y} # z follows on the next line\n{z}"
    lines[6] = lines[6].replace("3 ", "3 # count, then the indices\n", 1)
    path = tmp_path / "mid.off"
    path.write_text("\n".join(lines) + "\n")
    mesh = read_off(path)
    tet = shapes.tetrahedron()
    assert np.array_equal(mesh.vertices, tet.vertices)
    assert np.array_equal(mesh.faces, tet.faces)


def test_off_quad_face_named(tmp_path):
    lines = _tet_off_lines()
    lines[7] = "4 0 1 2 3"  # the second face
    path = tmp_path / "quad.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match="non-triangle face with 4 vertices"):
        read_off(path)


@pytest.mark.parametrize("keep, section", [(4, "vertex"), (8, "face")])
def test_off_truncated_file_names_the_path(tmp_path, keep, section):
    path = tmp_path / "cut.off"
    path.write_text("\n".join(_tet_off_lines()[:keep]) + "\n")
    with pytest.raises(MeshError, match=rf"cut\.off: truncated {section} section"):
        read_off(path)


@pytest.mark.parametrize("record, index", [("3 0 1 4", 4), ("3 0 -1 2", -1)], ids=["past_last_vertex", "negative"])
def test_off_bad_face_index_names_the_path_and_face(tmp_path, record, index):
    lines = _tet_off_lines()
    lines[7] = record  # face 1
    path = tmp_path / "bad.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=rf"bad\.off: face 1: vertex index {index} is out of range for 4 vertices$"):
        read_off(path)


def test_off_without_faces_names_the_path(tmp_path):
    lines = _tet_off_lines()[:6]
    lines[1] = "4 0 0"
    path = tmp_path / "empty.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=r"empty\.off: no faces declared$"):
        read_off(path)


@pytest.mark.parametrize(
    "case, error, reason",
    [
        ("unreferenced_vertex", IndexOutOfRange, r"unreferenced vertices: \[4\]"),
        ("collinear_face", DegenerateFace, r"face 3 has area 0 <= 5e-12"),
    ],
    ids=["unreferenced_vertex", "collinear_face"],
)
@pytest.mark.parametrize("ext", [".off", ".obj"])
def test_mesh_build_failure_names_the_path(tmp_path, case, error, reason, ext):
    # the file parses; TriMesh then rejects the mesh, and the reader re-raises
    # the same class with the path in front of TriMesh's message
    if case == "unreferenced_vertex":
        tet = shapes.tetrahedron()
        verts, faces = [*tet.vertices, (0.0, 0.0, 0.0)], tet.faces
    else:  # vertex 1 lies between vertices 0 and 2, so face 3 is flat
        verts, faces = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)], [(0, 2, 3), (0, 3, 1), (1, 3, 2), (0, 1, 2)]
    if ext == ".off":
        lines = ["OFF", f"{len(verts)} {len(faces)} 0"] + [f"3 {a} {b} {c}" for a, b, c in faces]
        lines[2:2] = [f"{x} {y} {z}" for x, y, z in verts]
    else:
        lines = [f"v {x} {y} {z}" for x, y, z in verts] + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    path = tmp_path / f"built{ext}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=rf"^{re.escape(str(path))}: {reason}$"):
        read_mesh(path)


@pytest.mark.parametrize("header, per_vertex", [("COFF", "255 0 0 255"), ("NOFF", "0 0 1")], ids=["COFF", "NOFF"])
def test_off_variant_headers_are_rejected_by_name(tmp_path, header, per_vertex):
    # a valid COFF or NOFF tetrahedron: colour or normal values after each vertex
    lines = _tet_off_lines()
    lines[0] = header
    lines[2:6] = [f"{line} {per_vertex}" for line in lines[2:6]]
    path = tmp_path / "variant.off"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=rf"variant\.off: header '{header}' is not OFF"):
        read_off(path)


def _tet_obj_lines():
    tet = shapes.tetrahedron()
    return [f"v {x} {y} {z}" for x, y, z in tet.vertices] + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in tet.faces]


@pytest.mark.parametrize(
    "record, line, reason",
    [
        ("v 0 1 x", 5, "could not convert string to float: 'x'"),
        ("f 1 2 q", 5, "invalid literal for int"),
        ("v 0 1", 5, "vertex record with fewer than 3 coordinates"),
        ("f 1 2 0", 5, "face index 0; OBJ indices are 1-based"),
        ("f -9 1 2", 5, "face index -9 is before the first vertex"),
        # before the 4th vertex, so 0 read as len(verts) would name a vertex that exists
        ("f 1 2 0", 4, "face index 0; OBJ indices are 1-based"),
        # checked once every vertex is read, so named by the face's own line
        ("f 1 4 9", 9, "face index 9 is past the last vertex"),
    ],
    ids=["bad_float", "bad_index", "short_vertex", "zero_index", "relative_before_first", "zero_before_vertex",
         "index_past_last_vertex"],
)
def test_obj_bad_record_names_the_path_and_line(tmp_path, record, line, reason):
    lines = _tet_obj_lines()
    lines.insert(line - 1, record)
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshError, match=rf"bad\.obj: line {line}: {reason}"):
        read_obj(path)


def test_obj_face_may_name_a_later_vertex(tmp_path):
    lines = _tet_obj_lines()
    path = tmp_path / "faces_first.obj"
    path.write_text("\n".join(lines[4:] + lines[:4]) + "\n")
    mesh, tet = read_obj(path), shapes.tetrahedron()
    assert np.array_equal(mesh.vertices, tet.vertices) and np.array_equal(mesh.faces, tet.faces)
