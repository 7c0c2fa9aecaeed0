"""The benchmark's workloads and its fixed quality list.

Every workload runs closed-loop in one process with one caller.  A cycle
draws fresh inputs from (workload seed, workload index, cycle), so no input
repeats within a run; generating a model is never timed.  `Recorder.wall`
accumulates only the timed region, which is every op plus, on battery-256,
the per-cycle embed.  Output checks and the GRID3 side trips run outside it.

The workloads call gridmark through module attributes (``codec.embed``,
``cli.main``) so that the tracer's wrappers see every call.
"""

import hashlib
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from gridmark import attacks, cli, codec, metrics, model_io
from gridmark.errors import DegenerateInputError

KINDS = ("bumps", "harmonic", "meshgrid")
PSNR_FLOOR_DB = 60.0
BATTERY = cli.BENCH_BATTERY


class CheckFailed(Exception):
    pass


def digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_model(m, n):
    for name in ("x1", "x2", "x3"):
        mat = m.matrix(name)
        if mat.shape != (n, n):
            raise CheckFailed(f"{name} has shape {mat.shape}, expected {(n, n)}")
        if not np.isfinite(mat).all():
            raise CheckFailed(f"{name} has non-finite values")


def check_marked(original, marked):
    check_model(marked, original.n)
    p = metrics.psnr(original, marked)
    if not p >= PSNR_FLOOR_DB:
        raise CheckFailed(f"marked model at {p:.2f} dB, under the {PSNR_FLOOR_DB} dB floor")
    return p


def check_bitmap(bm, w):
    if bm.bits.shape != (w, w) or not np.isin(bm.bits, (0, 1)).all():
        raise CheckFailed(f"extracted bitmap has shape {bm.bits.shape} or non-binary values")


def check_same(a, b, what):
    if not all(np.array_equal(a.matrix(k), b.matrix(k)) for k in ("x1", "x2", "x3")):
        raise CheckFailed(f"{what}: models differ")


def correlation(wm, got):
    try:
        return metrics.corr2(wm.bits, got.bits)
    except DegenerateInputError:
        return float("nan")


class Recorder:
    """What one pass over the cycles measured."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.samples = {"op_ms": [], "embed_ms": [], "extract_ms": []}
        self.marks = []  # timed wall after each attempted op
        self.outputs = []  # one digest per checked op, in order
        self.errors = []

    def add(self, key, seconds):
        self.samples[key].append(seconds * 1000.0)

    def fail(self):
        self.failed += 1
        self.errors.append(traceback.format_exc())


class Workload:
    """A cycle draws one fresh model per kind, then runs its ops over the
    three interleaved, so every prefix of a run is balanced across kinds."""

    name = n = w = index = None
    clock = None  # a calibrate.HostClock, timed between ops when set

    def __init__(self, seed, cfg, tracer, workdir):
        self.seed = seed
        self.cfg = cfg
        self.tracer = tracer
        self.workdir = Path(workdir)

    def draw(self, cycle, k):
        """Model of kind k and its watermark; cycle -1 is the warm-up."""
        rng = np.random.default_rng([self.seed, self.index, cycle + 1, k])
        model = model_io.generate_model(KINDS[k], self.n, int(rng.integers(2**31)))
        wm = model_io.WatermarkBitmap(rng.integers(0, 2, (self.w, self.w), dtype=np.uint8))
        return model, wm

    def timed(self, rec, root, key, fn, *args):
        """Run fn in a root span; its time counts toward the timed wall.
        Returns (result, seconds); result is None if fn raised."""
        t0 = perf_counter()
        try:
            with self.tracer.root(root, key):
                result = fn(*args)
        except Exception:
            rec.fail()
            result = None
        seconds = perf_counter() - t0
        rec.wall += seconds
        return result, seconds

    def op(self, rec, key, fn, *args):
        rec.attempted += 1
        result, seconds = self.timed(rec, "op", key, fn, *args)
        rec.marks.append(rec.wall)
        if result is not None:
            rec.add("op_ms", seconds)
        if self.clock is not None:
            self.clock.keep_up(rec.wall)
        return result

    def checked(self, rec, check, *args):
        """Run an output check outside the timed region; a failure counts
        against the op just run."""
        try:
            check(*args)
        except Exception:
            rec.fail()

    def grid3_round_trip(self, cycle, marked):
        """Save and reload a marked model, outside the timed region; the
        load/save samples come from the model_io spans.  Only the first
        cycle does it, so every run has one sample per kind."""
        if cycle == 0:
            path = self.workdir / "marked.grid3"
            model_io.save_model(marked, path)
            check_same(model_io.load_model(path), marked, "GRID3 round trip")


class Roundtrip(Workload):
    """Op: codec.embed then codec.extract of the just-marked model, in memory."""

    name, n, w, index = "roundtrip-512", 512, 64, 0

    def _op(self, rec, m, wm):
        t0 = perf_counter()
        marked = codec.embed(m, wm, self.cfg)
        t1 = perf_counter()
        got = codec.extract(marked, self.w, self.cfg)
        rec.add("embed_ms", t1 - t0)
        rec.add("extract_ms", perf_counter() - t1)
        return marked, got

    def warm_up(self):
        self._op(Recorder(), *self.draw(-1, 0))

    def cycle(self, cycle, rec, stop):
        for k in range(len(KINDS)):
            if stop(rec):
                return
            m, wm = self.draw(cycle, k)
            out = self.op(rec, (cycle, k), self._op, rec, m, wm)
            if out is not None:
                self.checked(rec, self._check, cycle, m, out, rec)

    def _check(self, cycle, m, out, rec):
        marked, got = out
        check_marked(m, marked)
        check_bitmap(got, self.w)
        rec.outputs.append(digest(got.bits, marked.x1, marked.x2))
        self.grid3_round_trip(cycle, marked)


class Battery(Workload):
    """The `gridmark bench` loop.  Per cycle one embed per kind (timed, not
    an op), then one op per (battery row, kind): attacks.apply,
    apply_registration, codec.extract, corr2 and ber."""

    name, n, w, index = "battery-256", 256, 32, 1

    def __init__(self, *a):
        super().__init__(*a)
        self.specs = [None] + [attacks.parse_attack(s) for s in BATTERY]

    def _row(self, rec, marked, wm, spec):
        attacked, reg = (marked, None) if spec is None else attacks.apply(marked, spec)
        if reg is not None:
            attacked = attacks.apply_registration(attacked, reg)
        t0 = perf_counter()
        got = codec.extract(attacked, self.w, self.cfg)
        rec.add("extract_ms", perf_counter() - t0)
        return attacked, got, (correlation(wm, got), metrics.ber(wm, got))

    def warm_up(self):
        m, wm = self.draw(-1, 0)
        self._row(Recorder(), codec.embed(m, wm, self.cfg), wm, self.specs[1])

    def cycle(self, cycle, rec, stop):
        marked = {}
        for k in range(len(KINDS)):
            m, wm = self.draw(cycle, k)
            out, seconds = self.timed(rec, "cycle", (cycle, k), codec.embed, m, wm, self.cfg)
            if out is None:
                rec.attempted += 1
                continue
            rec.add("embed_ms", seconds)
            try:
                check_marked(m, out)
                self.grid3_round_trip(cycle, out)
            except Exception:
                rec.attempted += 1
                rec.fail()
                continue
            marked[k] = (out, wm)
        for spec in self.specs:
            for k, (mk, wm) in marked.items():
                if stop(rec):
                    return
                out = self.op(rec, (cycle, k), self._row, rec, mk, wm, spec)
                if out is not None:
                    self.checked(rec, self._check, spec, out, rec)

    def _check(self, spec, out, rec):
        attacked, got, quality = out
        check_model(attacked, self.n)
        check_bitmap(got, self.w)
        if not np.isfinite(quality).all():
            raise CheckFailed(f"row {spec}: correlation/BER {quality} not finite")
        rec.outputs.append(digest(got.bits))


class Files(Workload):
    """Op: ``cli.main(["attack", ...])``, GRID3 file to GRID3 file plus the
    .reg sidecar.  Each cycle first marks one fresh model per kind and
    writes it (not timed), then runs every battery spec on every kind."""

    name, n, w, index = "files-256", 256, 32, 2

    def __init__(self, *a):
        super().__init__(*a)
        self.specs = [(s, attacks.parse_attack(s)) for s in BATTERY]

    def _prepare(self, cycle, k, rec):
        """Mark a model and write it; gives the embed/extract samples."""
        m, wm = self.draw(cycle, k)
        t0 = perf_counter()
        marked = codec.embed(m, wm, self.cfg)
        t1 = perf_counter()
        got = codec.extract(marked, self.w, self.cfg)
        rec.add("extract_ms", perf_counter() - t1)
        rec.add("embed_ms", t1 - t0)
        check_marked(m, marked)
        check_bitmap(got, self.w)
        path = self.workdir / f"marked-{KINDS[k]}.grid3"
        model_io.save_model(marked, path)
        return marked, path

    def _command(self, source, text, out):
        return cli.main(["attack", "--model", str(source), "--spec", text, "--out", str(out)])

    def warm_up(self):
        _, path = self._prepare(-1, 0, Recorder())
        self._command(path, self.specs[0][0], self.workdir / "warm-up.grid3")

    def cycle(self, cycle, rec, stop):
        prepared = {}
        for k in range(len(KINDS)):
            try:
                prepared[k] = self._prepare(cycle, k, rec)
            except Exception:
                rec.attempted += 1
                rec.fail()
        for text, spec in self.specs:
            for k, (marked, source) in prepared.items():
                if stop(rec):
                    return
                out = self.workdir / f"attacked-{KINDS[k]}.grid3"
                reg = Path(str(out) + ".reg")
                for p in (out, reg):
                    p.unlink(missing_ok=True)
                code = self.op(rec, (cycle, k), self._command, source, text, out)
                if code is not None:
                    self.checked(rec, self._check, code, text, spec, marked, out, reg, rec)

    def _check(self, code, text, spec, marked, out, reg_path, rec):
        if code != 0:
            raise CheckFailed(f"gridmark attack --spec {text} exited {code}")
        got = model_io.load_model(out)
        expected, reg = attacks.apply(marked, spec)
        check_same(got, expected, f"{text}: saved vs in-memory attack")
        if reg_path.exists() != (reg is not None):
            raise CheckFailed(f"{text}: registration sidecar presence is wrong")
        if reg is not None:
            saved = attacks.load_registration(reg_path)
            if not (np.array_equal(saved.rotation, reg.rotation) and np.array_equal(saved.translation, reg.translation)):
                raise CheckFailed(f"{text}: registration sidecar differs")
        rec.outputs.append(digest(got.x1, got.x2, got.x3))


WORKLOADS = {w.name: w for w in (Roundtrip, Battery, Files)}


# ---------------------------------------------------------------------------
# Quality list

QUALITY_MARK_SEED = 11


def quality_pass(cfg):
    """Quality metrics over a fixed list that is the same for every seed.

    Clean BER at n=512, W=64 swings from 0.07% to 2.8% between models
    (18 models measured), so a seed-drawn list small enough to run every
    time would hide a code change under model-to-model variance.  A fixed
    list makes every quality change show exactly.
    """
    wrong = total = 0
    psnrs, outs = [], []
    wm = model_io.WatermarkBitmap(np.random.default_rng(QUALITY_MARK_SEED).integers(0, 2, (64, 64), dtype=np.uint8))
    for kind in KINDS:
        m = model_io.generate_model(kind, 512, 0)
        marked = codec.embed(m, wm, cfg)
        got = codec.extract(marked, wm.w, cfg)
        psnrs.append(check_marked(m, marked))
        check_bitmap(got, wm.w)
        wrong += int((got.bits != wm.bits).sum())
        total += got.bits.size
        outs.append(got.bits)

    wm = model_io.WatermarkBitmap(np.random.default_rng(QUALITY_MARK_SEED).integers(0, 2, (32, 32), dtype=np.uint8))
    m = model_io.generate_model("bumps", 256, 0)
    marked = codec.embed(m, wm, cfg)
    psnrs.append(check_marked(m, marked))
    corrs = []
    for text in BATTERY:
        attacked, reg = attacks.apply(marked, attacks.parse_attack(text))
        if reg is not None:
            attacked = attacks.apply_registration(attacked, reg)
        got = codec.extract(attacked, wm.w, cfg)
        check_bitmap(got, wm.w)
        corrs.append(correlation(wm, got))
        outs.append(got.bits)
    if not np.isfinite(corrs).all():
        raise CheckFailed(f"battery correlations not finite: {corrs}")
    return {
        "clean_ber": wrong / total,
        "psnr_db_min": min(psnrs),
        "battery_corr_mean": float(np.mean(corrs)),
        "bits_digest": digest(*outs),
    }
