#!/usr/bin/env python3
"""gridmark benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload roundtrip-512 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gridmark is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with every layer function wrapped.  Human-readable lines
come first; the last line of standard output is the JSON result.  See
perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
REPLAY_OPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)

# name -> (unit, better).  The JSON of an untraced run carries these; they
# are the metrics that stay steady from run to run on a shared 2-core host.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "clean_ber": ("ratio", "lower"),
    "psnr_db_min": ("dB", "higher"),
    "battery_corr_mean": ("ratio", "higher"),
}
# Every time above and below is scaled to the reference host by the host
# clock (calibrate.py); the *_raw lines give the unscaled gated times.
# Printed beside them but kept out of the JSON.  The step timings rest on
# 3-6 samples wherever the step is not the op itself, and spread 20-40%
# between runs; the op timings above contain each step where it matters.
# fail_ratio is 0 on a healthy run, and attempted/failed carry it.
PRINTED_ONLY = {
    "setup_s_raw": "s",
    "op_ms_p50_raw": "ms",
    "ops_per_s_raw": "1/s",
    "embed_ms_p50": "ms",
    "extract_ms_p50": "ms",
    "load_ms_p50": "ms",
    "save_ms_p50": "ms",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(samples)
    for p in TAIL_PERCENTILES:
        if k * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(k - 1, int(p / 100.0 * k))]
    return None


def source_stamp():
    """git commit when run in a git checkout, plus a hash of src/gridmark."""
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((SRC / "gridmark").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return commit, h.hexdigest()


def environment(args, wl, rec, cycles, setups):
    import numpy
    import scipy

    commit, src_hash = source_stamp()
    return {
        "git_commit": commit,
        "source_sha256": src_hash,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": wl.name,
        "seed": args.seed,
        "n": wl.n,
        "w": wl.w,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "ops": rec.attempted,
        "samples": {k: len(v) for k, v in rec.samples.items()},
        "setup_s_each": setups,
    }


def setup_probes(args, own_setup):
    """(set-up seconds, kernel ms right after) of this process and of
    fresh processes doing the same set-up."""
    setups = [own_setup]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe exited {done.returncode}: {done.stderr[-2000:]}")
        probe = json.loads(done.stdout.splitlines()[-1])
        setups.append((probe["setup_s"], probe["kernel_ms"]))
    return setups


def print_table(rows):
    """rows: (name, value, unit, tail text)"""
    for name, value, unit, extra in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<9} {extra}")


def run(args):
    if not (SRC / "gridmark" / "__init__.py").is_file():
        print(f"error: no gridmark sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gridmark import codec

    import layers  # noqa: F401  (part of set-up: imports every wrapped module)
    from calibrate import kernel_ms
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: imports (above), rule parse/validate, first inputs, warm-up op
        cfg = codec.EmbedConfig()
        cfg.system()
        tracer = Tracer()
        wl = WORKLOADS[args.workload](args.seed, cfg, tracer, workdir)
        wl.warm_up()
        own_setup = (time.perf_counter() - T_START, kernel_ms())
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup[0], "kernel_ms": own_setup[1]}))
            return 0
        return measure(args, wl, tracer, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, wl, tracer, own_setup):
    import layers
    from calibrate import EXPONENT, REFERENCE_MS, HostClock, factor
    from workloads import Recorder, quality_pass

    tracer.install(layers.full_targets() if args.trace else layers.io_targets())
    if not args.trace:
        wl.clock = HostClock()
    rec = Recorder()

    def stop(r):
        return r.wall >= args.seconds

    # the wall-clock cap only matters when cycles keep failing before
    # their timed region, so that the run still ends
    cap = time.perf_counter() + 3 * args.seconds + 30
    tracer.active = True
    cycle = 0
    while not stop(rec) and time.perf_counter() < cap:
        wl.cycle(cycle, rec, stop)
        cycle += 1
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = rec.failed == 0
    problems = [e.strip().splitlines()[-1] for e in rec.errors[:5]]

    if args.trace:
        # replay the first ops with the wrappers idle: the outputs must match
        k = min(REPLAY_OPS, rec.attempted)
        replay = Recorder()
        wl.cycle(0, replay, lambda r: r.attempted >= k)
        if replay.failed or replay.outputs != rec.outputs[: len(replay.outputs)]:
            correct = False
            problems.append("traced and untraced outputs of the first ops differ")
        if k and replay.wall:
            problems.append(f"(info) replay of the first {k} ops: traced/untraced wall "
                            f"{rec.marks[k - 1] / replay.wall:.4f}, too noisy to be the overhead metric")
        values = layers.per_layer(tracer, tracer.span_cost())
        units = layers.metric_units()
        tracer.spans.clear()
        tracer.active = True
    else:
        setups = setup_probes(args, own_setup)
        io = {name: [s.duration * 1000.0 for s in tracer.spans if s.name == name]
              for name in ("model_io.load_model", "model_io.save_model")}

    try:
        quality = quality_pass(wl.cfg)
    except Exception as e:  # reported, and the run marked incorrect
        quality = {"clean_ber": float("nan"), "psnr_db_min": float("nan"), "battery_corr_mean": float("nan"),
                   "bits_digest": None}
        correct = False
        problems.append(f"quality pass: {type(e).__name__}: {e}")
    tracer.active = False
    leftovers = tracer.uninstall()
    if leftovers:
        correct = False
        problems.append(f"wrappers left installed: {leftovers}")

    env = environment(args, wl, rec, cycle, None if args.trace else setups)
    if wl.clock is not None:
        env["host_kernel"] = {"median_ms": wl.clock.kernel_ms, "samples": len(wl.clock.samples),
                              "reference_ms": REFERENCE_MS, "exponent": EXPONENT,
                              "factor": wl.clock.factor}
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} ops={rec.attempted} failed={rec.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    print("quality " + json.dumps(quality, sort_keys=True))
    print("outputs " + json.dumps(rec.outputs[:REPLAY_OPS]))
    for p in problems:
        print(p if p.startswith("(info)") else f"problem: {p}")

    if args.trace:
        rows = [(name, values[name], units[name][0], "") for name in units]
        metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    else:
        s = rec.samples
        timings = {
            "op_ms_p50": s["op_ms"],
            "embed_ms_p50": s["embed_ms"],
            "extract_ms_p50": s["extract_ms"],
            "load_ms_p50": io["model_io.load_model"],
            "save_ms_p50": io["model_io.save_model"],
        }
        # every time is scaled to the reference host (see calibrate.py);
        # the unscaled gated times are printed as *_raw
        f = wl.clock.factor
        raw = {name: (median(v) if v else float("nan")) for name, v in timings.items()}
        raw.update(setup_s=median(s for s, _ in setups), ops_per_s=rec.attempted / rec.wall if rec.wall else float("nan"))
        values = {name: v * f for name, v in raw.items()}
        values.update(
            setup_s=median(s * factor(k) for s, k in setups),
            ops_per_s=raw["ops_per_s"] / f,
            peak_rss_mb=peak_rss_mb,
            clean_ber=quality["clean_ber"],
            psnr_db_min=quality["psnr_db_min"],
            battery_corr_mean=quality["battery_corr_mean"],
            fail_ratio=rec.failed / max(rec.attempted, 1),
        )
        for name in ("setup_s", "op_ms_p50", "ops_per_s"):
            values[name + "_raw"] = raw[name]
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        units.update(PRINTED_ONLY)
        rows = []
        for name, unit in units.items():
            extra = "" if name in END_TO_END else "(printed only)  "
            if name in timings:
                t = tail(timings[name])
                extra += f"n={len(timings[name])}  " + (f"tail p{t[0]:g}={t[1] * f:.6g} {unit}" if t else "tail n/a (no percentile >= p75 has 10 samples beyond it)")
            if name == "fail_ratio":
                extra += f"{rec.failed}/{rec.attempted}"
            rows.append((name, values[name], unit, extra))
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    print_table(rows)
    for v in metrics.values():
        if v["value"] != v["value"]:  # NaN: not measured
            v["value"] = None
            correct = False
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
