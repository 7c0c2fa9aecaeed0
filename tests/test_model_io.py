import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridmark.errors import (
    BadParameterError,
    DimensionError,
    MalformedFileError,
    NonFiniteValueError,
    NotSquareError,
)
from gridmark.model_io import (
    MODEL_KINDS,
    GridModel,
    WatermarkBitmap,
    export_obj,
    generate_model,
    load_model,
    load_watermark,
    save_model,
    save_watermark,
    validate_model,
)

RNG = np.random.default_rng(7)


def random_model(n, scale=1.0):
    return GridModel(*(RNG.uniform(-scale, scale, size=(n, n)) for _ in range(3)))


# The per-element GRID3 writer and parser that save_model/load_model
# replaced, kept as exact references for the bytes written and the bits read.

def reference_grid3_text(m):
    lines = [f"GRID3 {m.n}"]
    for name in ("x1", "x2", "x3"):
        lines.append(f"MATRIX {name}")
        for row in m.matrix(name):
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def reference_grid3_parse(text):
    """The three matrices of a well-formed GRID3 text, one float() per token."""
    lines = [line for line in text.splitlines() if line.strip()]
    n = int(lines[0].split()[1])
    blocks = (lines[2 + k * (n + 1):1 + (k + 1) * (n + 1)] for k in range(3))
    return [np.array([[float(t) for t in row.split()] for row in b]) for b in blocks]


def on_row(edit, row=2):
    """Mangle that applies edit to one data line of a GRID3 text."""
    def mangle(text):
        lines = text.split("\n")
        lines[row] = edit(lines[row])
        return "\n".join(lines)
    return mangle


def with_token(token, row=2):
    """Mangle that puts token in place of the first value of one data line."""
    return on_row(lambda r: " ".join([token] + r.split(" ")[1:]), row)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_grid_model_validation():
    with pytest.raises(NotSquareError):
        GridModel(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        GridModel(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))
    with pytest.raises(NonFiniteValueError):
        GridModel(np.full((2, 2), np.nan), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NonFiniteValueError):
        GridModel(np.zeros((2, 2)), np.full((2, 2), np.inf), np.zeros((2, 2)))


def test_grid_model_accessors():
    m = random_model(8)
    assert m.n == 8
    assert m.matrix("x2") is m.x2
    with pytest.raises(BadParameterError):
        m.matrix("x9")
    swapped = m.replace(x3=np.zeros((8, 8)))
    assert np.all(swapped.x3 == 0.0) and swapped.x1 is m.x1
    c = m.copy()
    assert np.array_equal(c.x1, m.x1) and c.x1 is not m.x1


def test_validate_model_side_rule():
    for n in range(1, 65):
        m = GridModel(*(np.zeros((n, n)) for _ in range(3)))
        if n % 8 == 0:
            assert validate_model(m) is m
        else:
            with pytest.raises(DimensionError):
                validate_model(m)


def test_grid3_roundtrip(tmp_path):
    m = random_model(16, scale=1e4)
    path = tmp_path / "m.grid3"
    save_model(m, path)
    back = load_model(path)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(back.matrix(name), m.matrix(name))
    # canonical writer: save(load(f)) reproduces f byte for byte
    path2 = tmp_path / "m2.grid3"
    save_model(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_grid3_header(tmp_path):
    m = random_model(8)
    path = tmp_path / "m.grid3"
    save_model(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "GRID3 8"
    assert lines[1] == "MATRIX x1"
    assert len(lines) == 1 + 3 * 9


def test_grid3_blank_lines_ok(tmp_path):
    m = random_model(8)
    path = tmp_path / "m.grid3"
    save_model(m, path)
    padded = tmp_path / "padded.grid3"
    padded.write_text("\n" + path.read_text().replace("MATRIX x2", "\nMATRIX x2\n") + "\n\n")
    back = load_model(padded)
    assert np.array_equal(back.x2, m.x2)
    # tab separators and blank lines between the rows of a matrix
    spaced = tmp_path / "spaced.grid3"
    spaced.write_text(path.read_text().replace(" ", "\t").replace("\n", "\n \t\n"))
    back = load_model(spaced)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(bits(back.matrix(name)), bits(m.matrix(name)))


EDGE_VALUES = (
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e16,
    1e-05,
    0.1,
)
GRID3_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(2**60), 2**60).map(float),
)


@pytest.fixture(scope="module")
def grid3_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grid3")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((8, 16)).flatmap(
        lambda n: arrays(np.float64, (3, n, n), elements=GRID3_VALUES, fill=st.nothing())
    )
)
def test_grid3_matches_reference_writer_and_parser(grid3_dir, mats):
    m = GridModel(*mats)
    path = grid3_dir / "m.grid3"
    save_model(m, path)
    text = reference_grid3_text(m)
    assert path.read_bytes() == text.encode("ascii")
    back = load_model(path)
    for got, want, orig in zip((back.x1, back.x2, back.x3), reference_grid3_parse(text), mats):
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(got), bits(orig))


def test_save_model_rejects_bad_side(tmp_path):
    m = GridModel(*(np.zeros((10, 10)) for _ in range(3)))
    with pytest.raises(DimensionError):
        save_model(m, tmp_path / "bad.grid3")


@pytest.mark.parametrize(
    "mangle,err",
    [
        (lambda t: "", MalformedFileError),
        (lambda t: t.replace("GRID3 8", "GRID 8"), MalformedFileError),
        (lambda t: t.replace("GRID3 8", "GRID3 eight"), MalformedFileError),
        (lambda t: t.replace("GRID3 8", "GRID3 10"), DimensionError),
        (lambda t: t.replace("MATRIX x2", "MATRIX x9"), MalformedFileError),
        (lambda t: t.replace("MATRIX x3\n", ""), MalformedFileError),
        (lambda t: t + "stray\n", MalformedFileError),
        (lambda t: t.replace("0.", "zero.", 1), MalformedFileError),
        # a '#' is a bad token: nothing after it is skipped as a comment
        pytest.param(on_row(lambda r: r + " # note"), MalformedFileError, id="hash-after-row"),
        pytest.param(on_row(lambda r: r.replace(" ", " #", 1)), MalformedFileError, id="hash-token"),
        pytest.param(on_row(lambda r: r.replace(" ", ",")), MalformedFileError, id="comma-separator"),
        # float() takes these; the GRID3 parser does not
        pytest.param(with_token("1_0"), MalformedFileError, id="underscore-digits"),
        pytest.param(with_token("\u0661\u0662"), MalformedFileError, id="arabic-indic-digits"),
        pytest.param(on_row(lambda r: r + "\n" + r, row=9), MalformedFileError, id="ninth-row"),
        pytest.param(on_row(lambda r: r + " 1.0"), MalformedFileError, id="extra-token"),
        pytest.param(on_row(lambda r: r + " 1.0", row=5), MalformedFileError, id="extra-token-mid"),
        # every row of x1 one token long: no ragged row, so only the shape check sees it
        pytest.param(lambda t: "\n".join(l + " 1.0" if 2 <= i <= 9 else l
                                         for i, l in enumerate(t.split("\n"))),
                     MalformedFileError, id="extra-column"),
    ],
)
def test_grid3_malformed(tmp_path, mangle, err):
    path = tmp_path / "m.grid3"
    save_model(random_model(8), path)
    bad = tmp_path / "bad.grid3"
    bad.write_bytes(mangle(path.read_text()).encode("utf-8"))
    with pytest.raises(err):
        load_model(bad)


def test_grid3_short_row(tmp_path):
    path = tmp_path / "m.grid3"
    save_model(random_model(8), path)
    lines = path.read_text().splitlines()
    lines[2] = " ".join(lines[2].split()[:-1])
    bad = tmp_path / "bad.grid3"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError):
        load_model(bad)


def test_grid3_rejects_written_nan(tmp_path):
    path = tmp_path / "m.grid3"
    save_model(random_model(8), path)
    text = path.read_text().splitlines()
    row = text[2].split()
    row[0] = "nan"
    text[2] = " ".join(row)
    bad = tmp_path / "bad.grid3"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(NonFiniteValueError):
        load_model(bad)


@pytest.mark.parametrize("token", ["inf", "-inf", "1e500", "-1e500"])
def test_grid3_rejects_nonfinite_tokens(tmp_path, token):
    path = tmp_path / "m.grid3"
    save_model(random_model(8), path)
    bad = tmp_path / "bad.grid3"
    bad.write_text(with_token(token, row=20)(path.read_text()))
    with pytest.raises(NonFiniteValueError):
        load_model(bad)


@pytest.mark.parametrize(
    "loader,data",
    [
        (load_model, b"GRID3 8\nMATRIX x1\n0.0\xff 1.0\n"),
        (load_watermark, b"P1\n2 2\n1 0\n0 1 \xe9\n"),
        (load_watermark, b"P1\n# caf\xc3\xa9\n2 2\n1 0\n0 1\n"),
    ],
)
def test_loaders_reject_non_ascii_bytes(tmp_path, loader, data):
    path = tmp_path / "bad.file"
    path.write_bytes(data)
    with pytest.raises(MalformedFileError):
        loader(path)


def test_watermark_bitmap_validation():
    with pytest.raises(NotSquareError):
        WatermarkBitmap(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(DimensionError):
        WatermarkBitmap(np.zeros((0, 0), dtype=np.uint8))
    with pytest.raises(MalformedFileError):
        WatermarkBitmap(np.array([[0, 2], [1, 0]]))
    wm = WatermarkBitmap(np.array([[1, 0], [0, 1]]))
    assert wm.w == 2 and wm.bits.dtype == np.uint8


def test_watermark_pbm_roundtrip(tmp_path):
    wm = WatermarkBitmap(np.array([[1, 0], [0, 1]]))
    path = tmp_path / "wm.pbm"
    save_watermark(wm, path)
    assert path.read_text() == "P1\n2 2\n1 0\n0 1\n"
    assert np.array_equal(load_watermark(path).bits, wm.bits)


def test_watermark_p1_variants(tmp_path):
    packed = tmp_path / "packed.pbm"
    packed.write_text("P1\n# comment\n2 2\n1001\n")
    assert np.array_equal(load_watermark(packed).bits, [[1, 0], [0, 1]])
    spread = tmp_path / "spread.pbm"
    spread.write_text("P1 2 2 1 0 0 1\n")
    assert np.array_equal(load_watermark(spread).bits, [[1, 0], [0, 1]])


def test_watermark_p2_threshold(tmp_path):
    path = tmp_path / "wm.pgm"
    path.write_text("P2\n2 2\n255\n0 127\n128 255\n")
    assert np.array_equal(load_watermark(path).bits, [[0, 0], [1, 1]])


@pytest.mark.parametrize(
    "text,err",
    [
        ("", MalformedFileError),
        ("P5\n2 2\n1 0 0 1\n", MalformedFileError),
        ("P1\n2 3\n1 0 0 1 0 0\n", NotSquareError),
        ("P1\n2 2\n1 0 0\n", MalformedFileError),
        ("P1\n2 2\n1 0 0 2\n", MalformedFileError),
        ("P1\n2 2\n1 0 0 x\n", MalformedFileError),
        ("P2\n2 2\n0\n0 0 0 0\n", MalformedFileError),
        ("P2\n2 2\n100\n0 0 0 101\n", MalformedFileError),
        ("P2\n2 2\n255\n0 0 0\n", MalformedFileError),
    ],
)
def test_watermark_malformed(tmp_path, text, err):
    path = tmp_path / "bad.pnm"
    path.write_text(text)
    with pytest.raises(err):
        load_watermark(path)


def test_export_obj_counts(tmp_path):
    m = generate_model("plane", 8)
    path = tmp_path / "m.obj"
    export_obj(m, path)
    lines = path.read_text().splitlines()
    v = [l for l in lines if l.startswith("v ")]
    f = [l for l in lines if l.startswith("f ")]
    assert len(v) == 64 and len(f) == 2 * 49
    idx = np.array([[int(t) for t in l.split()[1:]] for l in f])
    assert idx.min() == 1 and idx.max() == 64


def reference_obj_text(m):
    """The per-element OBJ writer that export_obj replaced."""
    n = m.n
    lines = []
    for i in range(n):
        for j in range(n):
            vals = (repr(float(m.x1[i, j])), repr(float(m.x2[i, j])), repr(float(m.x3[i, j])))
            lines.append("v " + " ".join(vals))
    for i in range(n - 1):
        for j in range(n - 1):
            p00 = i * n + j + 1
            lines.append(f"f {p00} {p00 + n} {p00 + n + 1}")
            lines.append(f"f {p00} {p00 + n + 1} {p00 + 1}")
    return "\n".join(lines) + "\n"


def test_export_obj_matches_reference_writer(tmp_path):
    m = generate_model("bumps", 16, seed=4)
    path = tmp_path / "m.obj"
    export_obj(m, path)
    assert path.read_bytes() == reference_obj_text(m).encode("ascii")


def test_export_obj_plane_normals(tmp_path):
    m = generate_model("plane", 8)
    path = tmp_path / "m.obj"
    export_obj(m, path)
    lines = path.read_text().splitlines()
    verts = np.array(
        [[float(t) for t in l.split()[1:]] for l in lines if l.startswith("v ")]
    )
    faces = [[int(t) - 1 for t in l.split()[1:]] for l in lines if l.startswith("f ")]
    for a, b, c in faces:
        normal = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        normal = normal / np.linalg.norm(normal)
        assert abs(abs(normal[2]) - 1.0) <= 1e-12


def test_generate_plane_is_exact_grid():
    m = generate_model("plane", 16, seed=3)
    i, j = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
    assert np.array_equal(m.x1, i)
    assert np.array_equal(m.x2, j)
    assert np.all(m.x3 == 0.0)


def test_generate_model_deterministic():
    a = generate_model("harmonic", 256, 7)
    b = generate_model("harmonic", 256, 7)
    for name in ("x1", "x2", "x3"):
        assert np.array_equal(a.matrix(name), b.matrix(name))


def test_generate_model_seed_and_kind_sensitivity():
    a = generate_model("bumps", 64, 1)
    b = generate_model("bumps", 64, 2)
    c = generate_model("meshgrid", 64, 1)
    assert not np.array_equal(a.x3, b.x3)
    assert not np.array_equal(a.x3, c.x3)


def test_generate_model_validation():
    with pytest.raises(BadParameterError):
        generate_model("torus", 64)
    with pytest.raises(DimensionError):
        generate_model("bumps", 100)
    with pytest.raises(DimensionError):
        generate_model("bumps", 0)
    for seed in (-1, 2.5, "3"):
        with pytest.raises(BadParameterError):
            generate_model("bumps", 16, seed)
    assert MODEL_KINDS == ("plane", "harmonic", "meshgrid", "bumps")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_generated_models_loadable(tmp_path, kind):
    m = generate_model(kind, 32, seed=5)
    assert m.n == 32
    path = tmp_path / f"{kind}.grid3"
    save_model(m, path)
    back = load_model(path)
    assert np.array_equal(back.x3, m.x3)
