import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helfrich import shapes
from helfrich.energy import PhaseField
from helfrich.errors import DegenerateFace, IndexOutOfRange, MeshError, PhaseCountMismatch
from helfrich.mesh_io import _read_labels, read_mesh, read_obj, read_off, write_mesh

from conftest import read_off_tokens, sample_mesh, traced_memory


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


# -- the one numeric pass: OFF records and phase labels ----------------------

_SEPARATORS = (" ", "  ", "\t", " \t")
_GARBAGE = ("x", "abc", "1.2.3", "--1", "0x1A", "1e", "+-3", "1,5", "nanx")


def _drawn_mesh(kind, seed, k):
    """A small mesh from ``sample_mesh`` or ``shapes``, scaled by 2**k."""
    if kind in ("sphere", "box"):
        mesh = sample_mesh(kind, seed)
    else:
        mesh = shapes.tetrahedron() if kind == "tetrahedron" else shapes.torus(2.0, 1.0, 8, 6)
    return mesh.with_vertices(mesh.vertices * 2.0**k)


def _off_bytes(mesh, layout, counts=(0, 0), quad=None, garbage=None, header="OFF"):
    """An OFF file of ``mesh`` in a drawn ``layout``, with at most one mutation.

    ``counts`` shifts the declared vertex and face counts, ``quad`` turns
    that face into a quad, ``garbage`` = (record, token, before) puts a
    token before the record's token ``before``.
    """
    rng = np.random.default_rng(layout["seed"])
    number = (lambda x: f"{x:.17g}") if layout["spelling"] == ".17g" else (lambda x: repr(float(x)))
    records = [[number(x) for x in v] for v in mesh.vertices]
    records += [["3", *map(str, f)] for f in mesh.faces]
    if quad is not None:
        records[mesh.n_vertices + quad] = ["4", *records[mesh.n_vertices + quad][1:], "0"]
    if garbage is not None:
        record, token, before = garbage
        records[record].insert(before % len(records[record]), token)
    if layout["trailing"]:
        records.append(["3", "0", "1", "2"])
    nv, nf = mesh.n_vertices + counts[0], mesh.n_faces + counts[1]
    declared = f"{nv} {nf} {mesh.n_edges if layout['edges'] else 0}"
    lines = [f"{header} {declared}"] if layout["counts_on_header"] else [header, declared]
    for tokens in records:
        seps = rng.choice(_SEPARATORS, len(tokens) - 1)
        line = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
        if rng.random() < layout["comments"]:
            lines.append(f"# {layout['comment']} 1 2 3")
        if rng.random() < layout["comments"]:
            line += f"  # {layout['comment']}"
        if rng.random() < layout["blank"]:
            lines.append(rng.choice(["", " ", "\t"]))
        lines.append(line)
    eol = layout["eol"]
    return (eol.join(lines) + (eol if layout["final_eol"] else "")).encode()


def _layouts(mutated):
    """Drawn layouts; a file to be mutated has no trailing record and ASCII comments."""
    return st.fixed_dictionaries({
        "seed": st.integers(0, 2**32 - 1),
        "spelling": st.sampled_from([".17g", "repr"]),
        "counts_on_header": st.booleans(),
        "edges": st.booleans(),
        "comments": st.sampled_from([0.0, 0.05, 0.5]),
        "comment": st.sampled_from(["note", "\tx=1"] + ([] if mutated else ["café #2"])),
        "blank": st.sampled_from([0.0, 0.1]),
        "eol": st.sampled_from(["\n", "\r\n", "\r"]),
        "final_eol": st.booleans(),
        "trailing": st.just(False) if mutated else st.booleans(),
    })


_MESHES = st.tuples(st.sampled_from(["sphere", "box", "tetrahedron", "torus"]), st.integers(0, 99),
                    st.integers(-30, 30))


def _outcome(reader, path):
    """The reader's vertices and faces as bytes, or the class of the MeshError it raised."""
    try:
        mesh = reader(path)
    except MeshError as err:
        return type(err)
    return mesh.vertices.tobytes(), mesh.faces.tobytes(), mesh.faces.dtype


@settings(max_examples=40, deadline=None)
@given(drawn=_MESHES, layout=_layouts(mutated=False))
def test_off_reader_equals_the_token_reader_on_drawn_files(drawn, layout):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.off")
        with open(path, "wb") as fh:
            fh.write(_off_bytes(_drawn_mesh(*drawn), layout))
        new, old = _outcome(read_off, path), _outcome(read_off_tokens, path)
    assert isinstance(new, tuple) and new == old


@settings(max_examples=80, deadline=None)
@given(drawn=_MESHES, layout=_layouts(mutated=True), data=st.data())
def test_off_reader_fails_as_the_token_reader_on_mutated_files(drawn, layout, data):
    # text after the records and bytes that are not UTF-8 are the
    # documented differences, tested apart
    mesh = _drawn_mesh(*drawn)
    mutation = data.draw(st.sampled_from(["truncate", "count", "quad", "bom", "coff", "garbage"]))
    if mutation == "count":
        raw = _off_bytes(mesh, layout, counts=data.draw(st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1)])))
    elif mutation == "quad":
        raw = _off_bytes(mesh, layout, quad=data.draw(st.integers(0, mesh.n_faces - 1)))
    elif mutation == "garbage":
        where = (data.draw(st.integers(0, mesh.n_vertices + mesh.n_faces - 1)),
                 data.draw(st.sampled_from(_GARBAGE)), data.draw(st.integers(0, 3)))
        raw = _off_bytes(mesh, layout, garbage=where)
    elif mutation == "coff":
        raw = _off_bytes(mesh, layout, header="COFF")
    else:
        raw = _off_bytes(mesh, layout)
        raw = b"\xef\xbb\xbf" + raw if mutation == "bom" else raw[: data.draw(st.integers(0, len(raw)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.off")
        with open(path, "wb") as fh:
            fh.write(raw)
        assert _outcome(read_off, path) == _outcome(read_off_tokens, path)


def _write(path, lines):
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def _tet_bytes(ext):
    return [line.encode() for line in (_tet_off_lines() if ext == ".off" else _tet_obj_lines())]


def test_off_integral_float_face_values_are_read(tmp_path):
    # the token reader raised "malformed" on a face record spelled in floats
    lines = _tet_bytes(".off")
    lines[7] = b"3.0 0.0 1e0 3"  # face 1 of the tetrahedron is 3 0 1 3
    path = _write(tmp_path / "float_faces.off", lines)
    mesh, tet = read_off(path), shapes.tetrahedron()
    assert mesh.faces.dtype == np.int64 and np.array_equal(mesh.faces, tet.faces)


def test_off_text_after_the_records_is_malformed(tmp_path):
    # the token reader ignored every token past the declared records
    path = _write(tmp_path / "tail.off", _tet_bytes(".off") + [b"end of mesh"])
    with pytest.raises(MeshError, match=r"tail\.off: malformed OFF counts or numbers$"):
        read_off(path)


@pytest.mark.parametrize("spelling", ["1_0", "١"], ids=["underscore", "arabic_indic_digit"])
def test_off_numbers_are_ascii_decimal(tmp_path, spelling):
    # Python's float() reads both; the numeric pass reads neither
    lines = _tet_bytes(".off")
    lines[2] = b"0 0 " + spelling.encode()
    path = _write(tmp_path / "digits.off", lines)
    with pytest.raises(MeshError, match=r"digits\.off: malformed OFF counts or numbers$"):
        read_off(path)


@pytest.mark.parametrize("ext, error, reason", [
    (".off", IndexOutOfRange, r"face 1: vertex index 1e\+20 is out of range for 4 vertices"),
    (".obj", MeshError, r"line 6: face index 100000000000000000000 is past the last vertex"),
], ids=["off", "obj"])
def test_face_index_past_int64_names_the_path(tmp_path, ext, error, reason):
    # the int64 cast of the face block once raised a bare OverflowError
    lines = _tet_off_lines() if ext == ".off" else _tet_obj_lines()
    if ext == ".off":
        lines[7] = "3 0 1 100000000000000000000"
    else:
        lines[5] = "f 1 2 100000000000000000000"
    path = tmp_path / f"huge{ext}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error, match=rf"^{re.escape(str(path))}: {reason}$"):
        read_mesh(path)


@pytest.mark.parametrize("ext", [".off", ".obj"])
def test_non_utf8_bytes_in_comments_and_names_are_read(tmp_path, ext):
    # a Latin-1 é once raised UnicodeDecodeError without the path
    lines = _tet_bytes(ext)
    lines = [b"# caf\xe9"] + [line + b" # \xff\xfe" for line in lines[:3]] + lines[3:]
    if ext == ".obj":
        lines.insert(1, b"o caf\xe9")
    path = _write(tmp_path / f"latin1{ext}", lines)
    mesh, tet = read_mesh(path), shapes.tetrahedron()
    assert np.array_equal(mesh.vertices, tet.vertices) and np.array_equal(mesh.faces, tet.faces)


@pytest.mark.parametrize("ext, reason", [
    (".off", r"malformed OFF counts or numbers"),
    (".obj", r"line 2: could not convert string to float"),
], ids=["off", "obj"])
def test_non_ascii_byte_inside_a_number_names_the_path(tmp_path, ext, reason):
    lines = _tet_bytes(ext)
    lines[2 if ext == ".off" else 1] += b"\xe9"
    path = _write(tmp_path / f"byte{ext}", lines)
    with pytest.raises(MeshError, match=rf"^{re.escape(str(path))}: {reason}"):
        read_mesh(path)


def test_read_off_memory_is_a_few_copies_of_the_file(tmp_path):
    # the token reader held one str per number: 11.7 MiB at this size
    path = tmp_path / "ico5.off"
    write_mesh(path, shapes.jittered(shapes.icosphere(5), 0.02, seed=3))
    mesh, _, peak = traced_memory(read_off, path)
    assert mesh.n_vertices == 10242
    assert peak <= 9 * 2**20, peak / 2**20


@pytest.mark.parametrize("layout", ["whitespace_separated", "commented", "float_spelled"])
def test_label_files_of_any_layout_give_the_same_labels(tmp_path, layout):
    labels = shapes.equator_phase_labels(shapes.octasphere(2))
    one_per_line = tmp_path / "one.txt"
    one_per_line.write_text("".join(f"{x}\n" for x in labels))
    if layout == "whitespace_separated":  # several labels on one line
        text = "\n".join("\t".join(map(str, labels[i:i + 7])) + "  " for i in range(0, len(labels), 7))
    elif layout == "commented":
        text = "# phase labels, one per face\n" + "".join(f"{x} # face {i}\n" for i, x in enumerate(labels))
    else:
        text = " ".join(f"{x}.0" for x in labels)
    path = tmp_path / f"{layout}.txt"
    path.write_text(text)
    expected = PhaseField(_read_labels(one_per_line)).labels
    assert np.array_equal(expected, labels)
    assert np.array_equal(PhaseField(_read_labels(path)).labels, expected)


def test_label_file_text_that_is_not_a_number_names_the_path(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("1 2 two\n")
    with pytest.raises(PhaseCountMismatch, match=rf"^{re.escape(str(path))}: malformed phase labels$"):
        _read_labels(path)


def test_negative_off_count_and_comment_only_obj_are_rejected(tmp_path):
    off = tmp_path / "negative.off"
    off.write_text("OFF\n-1 4 0\n")
    with pytest.raises(MeshError, match=f"^{re.escape(str(off))}: negative vertex or face count$"):
        read_off(off)
    obj = tmp_path / "comments.obj"
    obj.write_text("# a comment\n# another\n")
    with pytest.raises(MeshError, match=f"^{re.escape(str(obj))}: no geometry found$"):
        read_obj(obj)
