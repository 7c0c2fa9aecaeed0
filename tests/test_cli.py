import numpy as np
import pytest

from gridmark.attacks import load_registration, scale
from gridmark.cli import BENCH_BATTERY, CSV_COLUMNS, main, read_report_csv
from gridmark.codec import EmbedConfig, save_config
from gridmark.errors import GridmarkError, MalformedFileError
from gridmark.model_io import (
    WatermarkBitmap,
    generate_model,
    load_model,
    load_watermark,
    save_model,
    save_watermark,
)


def random_watermark(w, seed=11):
    bits = np.random.default_rng(seed).integers(0, 2, size=(w, w), dtype=np.uint8)
    return WatermarkBitmap(bits)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    save_model(generate_model("bumps", 128, seed=1), d / "model.grid3")
    save_watermark(random_watermark(16), d / "wm.pbm")
    code = main(
        [
            "embed",
            "--model", str(d / "model.grid3"),
            "--watermark", str(d / "wm.pbm"),
            "--out", str(d / "marked.grid3"),
        ]
    )
    assert code == 0
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_model(tmp_path, capsys):
    out = tmp_path / "m.grid3"
    obj = tmp_path / "m.obj"
    code, _, _ = run(
        capsys, "gen", "--kind", "harmonic", "--n", "64", "--seed", "7",
        "--out", str(out), "--obj", str(obj),
    )
    assert code == 0
    m = load_model(out)
    want = generate_model("harmonic", 64, 7)
    assert np.array_equal(m.x3, want.x3)
    assert obj.read_text().startswith("v ")


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.grid3", tmp_path / "b.grid3"
    for out in (a, b):
        code, _, _ = run(
            capsys, "gen", "--kind", "meshgrid", "--n", "64", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "torus", "--n", "64", "--out", "x")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "gen", "--kind", "bumps", "--n", "64")
    assert code == 1
    code, _, err = run(
        capsys, "gen", "--kind", "bumps", "--n", "100", "--out", str(tmp_path / "m")
    )
    assert code == 2
    assert "DimensionError" in err
    # numpy's SeedSequence refuses a negative seed with a ValueError
    code, _, err = run(
        capsys, "gen", "--kind", "bumps", "--n", "16", "--seed", "-1",
        "--out", str(tmp_path / "m"),
    )
    assert code == 2
    assert "BadParameterError" in err
    assert not (tmp_path / "m").exists()


def test_no_command_is_usage_error(capsys):
    assert run(capsys)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


# ---------------------------------------------------------------------------
# embed / extract

def test_embed_prints_psnr(workdir, capsys):
    code, out, _ = run(
        capsys, "embed",
        "--model", str(workdir / "model.grid3"),
        "--watermark", str(workdir / "wm.pbm"),
        "--out", str(workdir / "marked2.grid3"),
    )
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("psnr_db=")][0]
    assert float(line.partition("=")[2]) > 40.0
    a = load_model(workdir / "marked.grid3")
    b = load_model(workdir / "marked2.grid3")
    assert np.array_equal(a.x1, b.x1)


def test_extract_roundtrip(workdir, tmp_path, capsys):
    out = tmp_path / "got.pbm"
    code, text, _ = run(
        capsys, "extract",
        "--model", str(workdir / "marked.grid3"),
        "--w", "16",
        "--out", str(out),
        "--reference", str(workdir / "wm.pbm"),
    )
    assert code == 0
    assert "correlation=1.000000" in text
    assert "ber=0.000000" in text
    got = load_watermark(out)
    want = load_watermark(workdir / "wm.pbm")
    assert np.array_equal(got.bits, want.bits)


def test_embed_capacity_error_exit_code(tmp_path, capsys):
    # n=64 with two directions has 2 * 8 * 8**2 = 1024 slots; 33**2 = 1089
    save_model(generate_model("bumps", 64), tmp_path / "small.grid3")
    save_watermark(random_watermark(33), tmp_path / "wm.pbm")
    code, _, err = run(
        capsys, "embed",
        "--model", str(tmp_path / "small.grid3"),
        "--watermark", str(tmp_path / "wm.pbm"),
        "--out", str(tmp_path / "marked.grid3"),
    )
    assert code == 2
    assert "InsufficientCapacityError" in err


def test_embed_far_outlier_exit_code(workdir, tmp_path, capsys):
    # one coordinate far past the model's robust extent: the scale is
    # ordinary, but the block features square it past the float range
    m = generate_model("bumps", 128, seed=1)
    x3 = m.x3.copy()
    x3[0, 0] = 1e200
    save_model(m.replace(x3=x3), tmp_path / "far.grid3")
    code, _, err = run(
        capsys, "embed",
        "--model", str(tmp_path / "far.grid3"),
        "--watermark", str(workdir / "wm.pbm"),
        "--out", str(tmp_path / "marked.grid3"),
    )
    assert code == 2
    assert err.startswith("DegenerateModelError") and len(err.splitlines()) == 1
    assert not (tmp_path / "marked.grid3").exists()


def test_embed_negative_watermark_size_exit_code(workdir, tmp_path, capsys):
    (tmp_path / "wm.pbm").write_text("P1\n-2 -2\n1 0 1 0\n")
    code, _, err = run(
        capsys, "embed",
        "--model", str(workdir / "model.grid3"),
        "--watermark", str(tmp_path / "wm.pbm"),
        "--out", str(tmp_path / "marked.grid3"),
    )
    assert code == 2
    assert err.startswith("MalformedFileError") and len(err.splitlines()) == 1
    assert not (tmp_path / "marked.grid3").exists()


@pytest.mark.parametrize("q", ["inf", "nan"])
def test_extract_non_finite_q_exit_code(workdir, tmp_path, capsys, q):
    (tmp_path / "inf.cfg").write_text(f"q={q}\n")
    code, _, err = run(
        capsys, "extract",
        "--model", str(workdir / "marked.grid3"),
        "--w", "16",
        "--config", str(tmp_path / "inf.cfg"),
        "--out", str(tmp_path / "got.pbm"),
    )
    assert code == 2
    assert err.startswith("BadParameterError") and len(err.splitlines()) == 1
    assert not (tmp_path / "got.pbm").exists()


def test_embed_with_an_overflowing_step_reports_minus_inf_psnr(workdir, tmp_path, capsys):
    # the marked model is finite, but its squared error against the
    # original overflows: PSNR is -inf, not a math domain error
    (tmp_path / "big.cfg").write_text("q=1e300\n")
    code, text, err = run(
        capsys, "embed",
        "--model", str(workdir / "model.grid3"),
        "--watermark", str(workdir / "wm.pbm"),
        "--config", str(tmp_path / "big.cfg"),
        "--out", str(tmp_path / "marked.grid3"),
    )
    assert code == 0, err
    assert "psnr_db=-inf" in text.splitlines()
    assert (tmp_path / "marked.grid3").exists()


def test_embed_refuses_an_overflowing_reference(tmp_path, capsys):
    # an 8x8 x1 block with finite coefficients whose reference passes the
    # float range at one point; the refusal is one line, with no warning
    # before it (the suite turns a RuntimeWarning into an error)
    from gridmark.codec import EMBED_ATOMS
    from gridmark.model_io import GridModel

    weight = EMBED_ATOMS.T @ EMBED_ATOMS[:, 0]
    x1 = -1.6e308 * np.sign(weight)
    x1[0] = 1.6e308
    save_model(GridModel(x1.reshape(8, 8), np.zeros((8, 8)), np.zeros((8, 8))), tmp_path / "m.grid3")
    save_watermark(WatermarkBitmap(np.ones((1, 1), dtype=np.uint8)), tmp_path / "wm.pbm")
    code, _, err = run(
        capsys, "embed",
        "--model", str(tmp_path / "m.grid3"),
        "--watermark", str(tmp_path / "wm.pbm"),
        "--out", str(tmp_path / "marked.grid3"),
    )
    assert code == 2
    assert err.startswith("NonFiniteValueError") and len(err.splitlines()) == 1
    assert not (tmp_path / "marked.grid3").exists()


def test_extract_with_wrong_key_config(workdir, tmp_path, capsys):
    cfg_path = tmp_path / "wrong.cfg"
    save_config(EmbedConfig(key=6), cfg_path)
    code, text, _ = run(
        capsys, "extract",
        "--model", str(workdir / "marked.grid3"),
        "--w", "16",
        "--config", str(cfg_path),
        "--out", str(tmp_path / "got.pbm"),
        "--reference", str(workdir / "wm.pbm"),
    )
    assert code == 0
    corr_line = [l for l in text.splitlines() if l.startswith("correlation=")][0]
    assert float(corr_line.partition("=")[2]) < 0.5


def test_missing_model_file_is_domain_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "extract",
        "--model", str(tmp_path / "absent.grid3"),
        "--w", "16",
        "--out", str(tmp_path / "got.pbm"),
    )
    assert code == 2
    assert "Error" in err


def test_extract_overflowing_scale_exit_code(tmp_path, capsys):
    # finite coordinates, but a normalization scale that overflows to inf
    save_model(scale(generate_model("bumps", 64), 1e160), tmp_path / "huge.grid3")
    code, text, err = run(
        capsys, "extract",
        "--model", str(tmp_path / "huge.grid3"),
        "--w", "8",
        "--out", str(tmp_path / "got.pbm"),
    )
    assert code == 2
    assert "DegenerateModelError" in err
    assert not (tmp_path / "got.pbm").exists()


# ---------------------------------------------------------------------------
# attack

def test_attack_crop_no_sidecar(workdir, tmp_path, capsys):
    out = tmp_path / "cropped.grid3"
    code, _, _ = run(
        capsys, "attack",
        "--model", str(workdir / "marked.grid3"),
        "--spec", "crop:p=0.09",
        "--out", str(out),
    )
    assert code == 0
    attacked = load_model(out)
    marked = load_model(workdir / "marked.grid3")
    side = round(0.3 * 128)
    assert np.array_equal(attacked.x1[side:, :], marked.x1[side:, :])
    assert not (tmp_path / "cropped.grid3.reg").exists()


def test_attack_rotate_writes_sidecar(workdir, tmp_path, capsys):
    out = tmp_path / "rot.grid3"
    code, _, _ = run(
        capsys, "attack",
        "--model", str(workdir / "marked.grid3"),
        "--spec", "rotate:axis=z,angle=0.5",
        "--out", str(out),
    )
    assert code == 0
    reg = load_registration(str(out) + ".reg")
    assert reg.rotation.shape == (3, 3)
    code, text, _ = run(
        capsys, "extract",
        "--model", str(out),
        "--w", "16",
        "--registration", str(out) + ".reg",
        "--out", str(tmp_path / "got.pbm"),
        "--reference", str(workdir / "wm.pbm"),
    )
    assert code == 0
    assert "correlation=1.000000" in text


def test_attack_translate_sidecar_content(workdir, tmp_path, capsys):
    out = tmp_path / "moved.grid3"
    reg_path = tmp_path / "custom.reg"
    code, _, _ = run(
        capsys, "attack",
        "--model", str(workdir / "marked.grid3"),
        "--spec", "translate:dx=12.5,dy=-7.25,dz=40",
        "--out", str(out),
        "--registration-out", str(reg_path),
    )
    assert code == 0
    reg = load_registration(reg_path)
    assert np.array_equal(reg.rotation, np.eye(3))
    assert np.array_equal(reg.translation, [-12.5, 7.25, -40.0])


def test_attack_non_ascii_model_exit_code(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.grid3"
    bad.write_bytes((workdir / "marked.grid3").read_bytes().replace(b"MATRIX x2", b"MATRIX x\xb2"))
    code, _, err = run(
        capsys, "attack",
        "--model", str(bad),
        "--spec", "scale:k=2",
        "--out", str(tmp_path / "x.grid3"),
    )
    assert code == 2
    assert "MalformedFileError" in err
    assert not (tmp_path / "x.grid3").exists()


def test_attack_bad_parameters_exit_code(workdir, tmp_path, capsys):
    code, _, err = run(
        capsys, "attack",
        "--model", str(workdir / "marked.grid3"),
        "--spec", "gaussian:hsize=4,sigma=10",
        "--out", str(tmp_path / "x.grid3"),
    )
    assert code == 2
    assert "BadParameterError" in err
    code, _, err = run(
        capsys, "attack",
        "--model", str(workdir / "marked.grid3"),
        "--spec", "vaporize:x=1",
        "--out", str(tmp_path / "x.grid3"),
    )
    assert code == 2
    # numpy refuses a negative seed and math.cos an infinite angle with a
    # ValueError; the spec must stop both first.  A sigma whose square
    # underflows made an all-NaN kernel that left the model unchanged, and a
    # kernel wider than the model ran out of memory.
    for spec in (
        "randomnoise:a=0.1,seed=-1",
        "rotate:axis=z,angle=inf",
        "log:hsize=3,sigma=1e-300",
        "gaussian:hsize=3,sigma=1e-300",
        "gaussian:hsize=100001,sigma=1",
        "log:hsize=129,sigma=1",
        "randomnoise:a=1e308",
    ):
        code, _, err = run(
            capsys, "attack",
            "--model", str(workdir / "marked.grid3"),
            "--spec", spec,
            "--out", str(tmp_path / "x.grid3"),
        )
        assert code == 2
        assert "BadParameterError" in err


@pytest.fixture(scope="module")
def near_float_limit(tmp_path_factory):
    """bumps-64 scaled to |x| <= 1e307, saved: finite, but x3's sum passes the float range."""
    m = generate_model("bumps", 64, seed=0)
    path = tmp_path_factory.mktemp("limit") / "big.grid3"
    save_model(scale(m, 1e307 / max(np.abs(m.matrix(name)).max() for name in ("x1", "x2", "x3"))), path)
    return path


def test_attack_scale_past_the_float_range_exit_code(near_float_limit, tmp_path, capsys):
    code, _, err = run(
        capsys, "attack", "--model", str(near_float_limit), "--spec", "scale:k=100", "--out", str(tmp_path / "x.grid3")
    )
    assert code == 2
    assert err.startswith("NonFiniteValueError") and len(err.splitlines()) == 1
    assert not (tmp_path / "x.grid3").exists()


def test_attack_crop_near_the_float_range(near_float_limit, tmp_path, capsys):
    code, _, err = run(
        capsys, "attack", "--model", str(near_float_limit), "--spec", "crop:p=0.5", "--out", str(tmp_path / "x.grid3")
    )
    assert code == 0, err
    out = load_model(tmp_path / "x.grid3")
    assert all(np.isfinite(out.matrix(name)).all() for name in ("x1", "x2", "x3"))


# ---------------------------------------------------------------------------
# bench / report

@pytest.fixture(scope="module")
def bench_dir(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    code = main(
        [
            "bench",
            "--model", str(workdir / "model.grid3"),
            "--watermark", str(workdir / "wm.pbm"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    return out


def test_bench_outputs(bench_dir):
    assert (bench_dir / "report.csv").exists()
    assert (bench_dir / "report.md").exists()
    pbms = sorted(p.name for p in bench_dir.glob("*.pbm"))
    assert len(pbms) == 1 + len(BENCH_BATTERY)
    assert pbms[0] == "00_none.pbm"
    assert pbms[1] == "01_gaussian.pbm"


def test_bench_csv_contents(bench_dir):
    meta, rows = read_report_csv(bench_dir / "report.csv")
    keys = dict(meta)
    assert keys["model"] == "model.grid3"
    assert keys["n"] == "128" and keys["w"] == "16"
    assert len(keys["config"]) == 64
    assert len(rows) == 1 + len(BENCH_BATTERY)
    assert rows[0]["attack"] == "none" and rows[0]["params"] == ""
    assert float(rows[0]["correlation"]) == 1.0
    assert float(rows[0]["ber"]) == 0.0
    psnrs = {row["psnr_db"] for row in rows}
    assert len(psnrs) == 1
    for i, row in enumerate(rows):
        assert row["watermark_path"] == f"{i:02d}_{row['attack']}.pbm"
        assert (bench_dir / row["watermark_path"]).exists()
        float(row["correlation"]), float(row["ber"])  # re-parseable


def test_bench_markdown_formatting(bench_dir):
    text = (bench_dir / "report.md").read_text()
    assert "**model**: model.grid3" in text
    assert "| attack | params | correlation | ber | psnr_db | watermark |" in text
    assert "| none |  | 1.000000 | 0.000000 |" in text
    assert "[00_none.pbm](00_none.pbm)" in text


def test_bench_deterministic(workdir, bench_dir, tmp_path, capsys):
    code, _, _ = run(
        capsys, "bench",
        "--model", str(workdir / "model.grid3"),
        "--watermark", str(workdir / "wm.pbm"),
        "--out-dir", str(tmp_path / "again"),
    )
    assert code == 0
    assert (tmp_path / "again" / "report.csv").read_bytes() == (
        bench_dir / "report.csv"
    ).read_bytes()


def test_bench_extra_spec(workdir, tmp_path, capsys):
    code, _, _ = run(
        capsys, "bench",
        "--model", str(workdir / "model.grid3"),
        "--watermark", str(workdir / "wm.pbm"),
        "--out-dir", str(tmp_path / "extra"),
        "--extra-spec", "laplacian:alpha=0.5",
    )
    assert code == 0
    _, rows = read_report_csv(tmp_path / "extra" / "report.csv")
    assert len(rows) == 2 + len(BENCH_BATTERY)
    assert rows[-1]["attack"] == "laplacian" and rows[-1]["params"] == "alpha=0.5"


def test_report_rerenders_identically(bench_dir, tmp_path, capsys):
    out = tmp_path / "again.md"
    code, _, _ = run(capsys, "report", "--csv", str(bench_dir / "report.csv"), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (bench_dir / "report.md").read_bytes()


def test_report_missing_csv(tmp_path, capsys):
    code, _, err = run(
        capsys, "report", "--csv", str(tmp_path / "none.csv"), "--out", str(tmp_path / "x.md")
    )
    assert code == 2


def test_read_report_csv_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(GridmarkError):
        read_report_csv(bad)
    assert CSV_COLUMNS[0] == "attack"


HEADER = ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "no header"),
        ("# model: model.grid3\n# n: 128\n", "no header"),
        (HEADER + "none,,1.0,0.0\n", "expected 6 fields, got 4"),
        (HEADER + "none,,1.0,0.0,70.0,00_none.pbm\n\n", "row 2: expected 6 fields, got 0"),
        (HEADER + "none,,one,0.0,70.0,00_none.pbm\n", "correlation is not a number"),
        (HEADER + "none,,1.0,,70.0,00_none.pbm\n", "ber is not a number"),
        (HEADER + "none,,1.0,0.0,70 dB,00_none.pbm\n", "psnr_db is not a number"),
        (HEADER + "none,," + "9" * 200_000 + ",0.0,70.0,00_none.pbm\n", "field limit"),
    ],
    ids=["empty", "comments-only", "short-row", "blank-row", "correlation", "ber", "psnr", "huge-field"],
)
def test_report_rejects_malformed_csv(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedFileError, match=message):
        read_report_csv(bad)
    code, _, err = run(capsys, "report", "--csv", str(bad), "--out", str(tmp_path / "bad.md"))
    assert code == 2
    assert err.startswith("MalformedFileError")
    assert not (tmp_path / "bad.md").exists()


def test_report_keeps_nan_correlation(bench_dir, tmp_path, capsys):
    text = (bench_dir / "report.csv").read_text(encoding="utf-8")
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text(text.replace("none,,1.0,", "none,,nan,", 1), encoding="utf-8")
    code, _, _ = run(capsys, "report", "--csv", str(nan_row), "--out", str(tmp_path / "nan.md"))
    assert code == 0
    assert "| none |  | nan | 0.000000 |" in (tmp_path / "nan.md").read_text(encoding="utf-8")


def test_report_reads_and_writes_utf8(bench_dir, tmp_path, capsys):
    csv_bytes = (bench_dir / "report.csv").read_bytes()
    good = tmp_path / "utf8.csv"
    good.write_bytes(csv_bytes.replace(b"00_none.pbm", "café.pbm".encode()))
    code, _, _ = run(capsys, "report", "--csv", str(good), "--out", str(tmp_path / "good.md"))
    assert code == 0
    assert "[café.pbm](café.pbm)".encode() in (tmp_path / "good.md").read_bytes()

    bad = tmp_path / "latin1.csv"
    bad.write_bytes(csv_bytes.replace(b"00_none.pbm", b"caf\xe9.pbm"))
    code, _, err = run(capsys, "report", "--csv", str(bad), "--out", str(tmp_path / "bad.md"))
    assert code == 2
    assert "MalformedFileError" in err
    assert not (tmp_path / "bad.md").exists()
