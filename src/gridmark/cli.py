"""Command-line interface.

Subcommands: gen, embed, extract, attack, bench, report.  Exit codes:
0 success, 1 usage error, 2 domain error (the error class name goes to
stderr).  All embed parameters come from the key=value config file; the
flags only name files.
"""

import argparse
import csv
import io
import math
import sys
from pathlib import Path

from .attacks import (
    apply,
    apply_registration,
    format_attack,
    load_registration,
    parse_attack,
    save_registration,
)
from .codec import EmbedConfig, config_hash, embed, extract, load_config
from .errors import DegenerateInputError, GridmarkError, MalformedFileError
from .metrics import ber, corr2, psnr
from .model_io import (
    MODEL_KINDS,
    export_obj,
    generate_model,
    load_model,
    load_watermark,
    read_text,
    save_model,
    save_watermark,
)

# Fixed benchmark battery: the smoothing/noise/cropping suite plus the
# three similarity transforms.  Noise rows carry pinned seeds so two
# bench runs are byte-identical.
BENCH_BATTERY = (
    "gaussian:hsize=3,sigma=10",
    "gaussian:hsize=7,sigma=10",
    "laplacian:alpha=1",
    "log:hsize=5,sigma=0.5",
    "saltpepper:d=0.05,seed=101",
    "saltpepper:d=0.1,seed=102",
    "randomnoise:a=0.1,seed=103",
    "crop:p=0.09",
    "crop:p=0.16",
    "translate:dx=12.5,dy=-7.25,dz=40",
    "scale:k=2",
    f"rotate:axis=z,angle={math.pi / 6}",
)

CSV_COLUMNS = ("attack", "params", "correlation", "ber", "psnr_db", "watermark_path")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gridmark", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic model")
    g.add_argument("--kind", required=True, choices=MODEL_KINDS)
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--obj", help="also export a Wavefront OBJ here")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("embed", help="embed a watermark into a model")
    e.add_argument("--model", required=True)
    e.add_argument("--watermark", required=True)
    e.add_argument("--config")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_embed)

    x = sub.add_parser("extract", help="blindly extract a watermark")
    x.add_argument("--model", required=True)
    x.add_argument("--config")
    x.add_argument("--w", required=True, type=int, help="watermark side length")
    x.add_argument("--out", required=True)
    x.add_argument("--reference", help="compare against this watermark")
    x.add_argument("--registration", help="apply this rigid-transform sidecar first")
    x.set_defaults(func=cmd_extract)

    a = sub.add_parser("attack", help="apply one attack to a model")
    a.add_argument("--model", required=True)
    a.add_argument("--spec", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--registration-out", help="sidecar path (default: <out>.reg)")
    a.set_defaults(func=cmd_attack)

    b = sub.add_parser("bench", help="embed, attack, extract, and report")
    b.add_argument("--model", required=True)
    b.add_argument("--watermark", required=True)
    b.add_argument("--config")
    b.add_argument("--out-dir", required=True)
    b.add_argument("--extra-spec", action="append", default=[])
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("report", help="re-render a bench CSV as markdown")
    r.add_argument("--csv", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)

    return p


def _config(args) -> EmbedConfig:
    return load_config(args.config) if args.config else EmbedConfig()


def cmd_gen(args) -> int:
    m = generate_model(args.kind, args.n, args.seed)
    save_model(m, args.out)
    if args.obj:
        export_obj(m, args.obj)
    return 0


def cmd_embed(args) -> int:
    m = load_model(args.model)
    wm = load_watermark(args.watermark)
    cfg = _config(args)
    marked = embed(m, wm, cfg)
    save_model(marked, args.out)
    print(f"psnr_db={psnr(m, marked):.6f}")
    return 0


def cmd_extract(args) -> int:
    m = load_model(args.model)
    if args.registration:
        m = apply_registration(m, load_registration(args.registration))
    cfg = _config(args)
    wm = extract(m, args.w, cfg)
    save_watermark(wm, args.out)
    if args.reference:
        ref = load_watermark(args.reference)
        try:
            print(f"correlation={corr2(ref.bits, wm.bits):.6f}")
        except DegenerateInputError:
            print("correlation=nan")
        print(f"ber={ber(ref, wm):.6f}")
    return 0


def cmd_attack(args) -> int:
    m = load_model(args.model)
    spec = parse_attack(args.spec)
    attacked, reg = apply(m, spec)
    save_model(attacked, args.out)
    if reg is not None:
        save_registration(reg, args.registration_out or args.out + ".reg")
    return 0


def _row_label(index: int, spec) -> str:
    return f"{index:02d}_{'none' if spec is None else spec.name}"


def _bench_rows(m, wm, cfg, extra_specs):
    marked = embed(m, wm, cfg)
    embed_psnr = psnr(m, marked)
    specs = [None]
    specs += [parse_attack(s) for s in BENCH_BATTERY]
    specs += [parse_attack(s) for s in extra_specs]
    rows = []
    for i, spec in enumerate(specs):
        if spec is None:
            attacked, reg, params = marked, None, ""
        else:
            attacked, reg = apply(marked, spec)
            params = format_attack(spec).partition(":")[2]
        if reg is not None:
            attacked = apply_registration(attacked, reg)
        got = extract(attacked, wm.w, cfg)
        try:
            c = corr2(wm.bits, got.bits)
        except DegenerateInputError:
            c = math.nan
        name = "none" if spec is None else spec.name
        rows.append(
            {
                "attack": name,
                "params": params,
                "correlation": c,
                "ber": ber(wm, got),
                "psnr_db": embed_psnr,
                "watermark_path": _row_label(i, spec) + ".pbm",
                "bitmap": got,
            }
        )
    return rows


def _write_csv(rows, meta, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for k, v in meta:
            fh.write(f"# {k}: {v}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow(
                [
                    r["attack"],
                    r["params"],
                    repr(float(r["correlation"])),
                    repr(float(r["ber"])),
                    repr(float(r["psnr_db"])),
                    r["watermark_path"],
                ]
            )


def _fmt6(text: str) -> str:
    v = float(text)
    return "nan" if math.isnan(v) else f"{v:.6f}"


def _markdown_from_rows(rows, meta) -> str:
    lines = []
    for k, v in meta:
        lines.append(f"**{k}**: {v}  ")
    if meta:
        lines.append("")
    lines.append("| attack | params | correlation | ber | psnr_db | watermark |")
    lines.append("| --- | --- | --- | --- | --- | --- |")
    for r in rows:
        wm = r["watermark_path"]
        lines.append(
            f"| {r['attack']} | {r['params']} | {_fmt6(r['correlation'])} "
            f"| {_fmt6(r['ber'])} | {_fmt6(r['psnr_db'])} | [{wm}]({wm}) |"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    m = load_model(args.model)
    wm = load_watermark(args.watermark)
    cfg = _config(args)
    rows = _bench_rows(m, wm, cfg, args.extra_spec)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = [
        ("model", Path(args.model).name),
        ("n", m.n),
        ("w", wm.w),
        ("config", config_hash(cfg)),
    ]
    for r in rows:
        save_watermark(r["bitmap"], out / r["watermark_path"])
    _write_csv(rows, meta, out / "report.csv")
    _write_markdown(out / "report.csv", out / "report.md")
    print(f"wrote {out / 'report.csv'}")
    return 0


def read_report_csv(path):
    """(meta, rows) of a bench report.csv.  A file that is not CSV or has no
    header, a row without one field per column, or a correlation, ber or
    psnr_db that is not a number raises MalformedFileError."""
    meta, rows, data_lines = [], [], []
    for line in io.StringIO(read_text(path, "utf-8"), newline=""):
        if line.startswith("#"):
            k, _, v = line[1:].strip().partition(":")
            meta.append((k.strip(), v.strip()))
        else:
            data_lines.append(line)
    try:
        records = list(csv.reader(data_lines))
    except csv.Error as e:  # e.g. a field over the csv module's size limit
        raise MalformedFileError(f"report CSV: {e}") from None
    if not records:
        raise MalformedFileError("report CSV has no header row")
    header, *body = records
    if tuple(header) != CSV_COLUMNS:
        raise MalformedFileError(f"unexpected CSV columns: {header}")
    for i, rec in enumerate(body, start=1):
        if len(rec) != len(CSV_COLUMNS):
            raise MalformedFileError(f"CSV row {i}: expected {len(CSV_COLUMNS)} fields, got {len(rec)}")
        row = dict(zip(CSV_COLUMNS, rec))
        for column in ("correlation", "ber", "psnr_db"):
            try:
                float(row[column])
            except ValueError:
                raise MalformedFileError(f"CSV row {i}: {column} is not a number: {row[column]!r}") from None
        rows.append(row)
    return meta, rows


def _write_markdown(csv_path, md_path):
    meta, rows = read_report_csv(csv_path)
    Path(md_path).write_text(_markdown_from_rows(rows, meta), encoding="utf-8")


def cmd_report(args) -> int:
    _write_markdown(args.csv, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (GridmarkError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
