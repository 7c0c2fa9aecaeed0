#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and host clock.

    python3 perfbench/selftest.py

1. Spans nest, self time excludes children and probes, and uninstalling
   puts every original back (on a throwaway module).
2. On gridmark itself: every module attribute is the original object after
   the tracer is removed, and a traced embed/extract gives the same bits
   and the same marked model as an untraced one.
3. BENCHMARK.json names the metrics, units and directions that run.py and
   layers.py report.
4. The host clock's kernel median is the same, within 15%, between
   ops of one n=256 extract and ops of eight, so the scaling factor does
   not move when a change makes the ops shorter or longer.
5. A ``--trace 0`` and a ``--trace 1`` run of battery-256 with seed 0
   print the same quality metrics, quality-list bits and first-op outputs.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path
from statistics import median

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as run.py does, before numpy loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import PROBE, Tracer  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def synthetic():
    mod = types.ModuleType("fake_pkg")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n    return 1\n"
        "def outer():\n    time.sleep(0.01)\n    return inner() + 1\n",
        mod.__dict__,
    )
    sys.modules["fake_pkg"] = mod
    originals = dict(vars(mod))
    t = Tracer()
    t.install([("fake.outer", mod.outer, lambda a, k, r: time.sleep(0.01) or r),
               ("fake.inner", mod.inner, None)], package="fake_pkg")
    check(mod.outer is not originals["outer"] and len(t.patched) == 2, "install wraps both functions")
    t.active = True
    with t.root("op", key="k"):
        mod.outer()
    t.active = False
    names = [s.name for s in t.spans]
    check(names == ["op", "fake.outer", "fake.inner", PROBE], f"span order {names}")
    op, outer, inner, probe = t.spans
    check(outer.parent == 0 and inner.parent == 1 and probe.parent == 0, "parents: inner under outer, probe under op")
    check(outer.data == 2 and op.data == "k", "probe data and root key kept")
    _, self_time = t.tree()
    check(abs(self_time[1] - (outer.duration - inner.duration)) < 1e-9, "self time is duration minus children")
    check(0.008 < self_time[1] < 0.018, f"outer self time {self_time[1]:.4f}s excludes inner (20 ms) and its probe (10 ms)")
    check(op.duration >= outer.duration + probe.duration, "root covers the probe")
    leftovers = t.uninstall()
    check(not leftovers and all(vars(mod)[k] is v for k, v in originals.items()), "uninstall restores the originals")
    del sys.modules["fake_pkg"]


def on_gridmark():
    import numpy as np

    import layers
    from gridmark import codec, model_io

    modules = [m for k, m in sys.modules.items() if k == "gridmark" or k.startswith("gridmark.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    cfg = codec.EmbedConfig()
    model = model_io.generate_model("bumps", 128, 3)
    wm = model_io.WatermarkBitmap(np.random.default_rng(5).integers(0, 2, (16, 16), dtype=np.uint8))

    def roundtrip():
        marked = codec.embed(model, wm, cfg)
        return marked, codec.extract(marked, wm.w, cfg)

    plain_marked, plain_bits = roundtrip()
    t = Tracer()
    t.install(layers.full_targets())
    check(len(t.patched) >= len(layers.FUNCTIONS), f"{len(t.patched)} binding sites wrapped")
    t.active = True
    with t.root("op", key=0):
        marked, bits = roundtrip()
    t.active = False
    check(np.array_equal(bits.bits, plain_bits.bits), "traced extract gives the untraced bits")
    check(all(np.array_equal(marked.matrix(k), plain_marked.matrix(k)) for k in ("x1", "x2", "x3")),
          "traced embed gives the untraced marked model")
    values = layers.per_layer(t, t.span_cost())
    check(values["codec.embed.calls_per_op"] == 1 and values["features.compute_weights.calls_per_op"] == 2,
          "calls per op counted through every binding site")
    check(values["features.repeat_surface_ratio"] == 0.5 and values["features.mask_flip_ratio"] == 0.0,
          "extract sees the embed-time surface and mask")
    leftovers = t.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    check(not leftovers and before.keys() == after.keys() and all(after[k] is v for k, v in before.items()),
          "every gridmark attribute is the original after uninstall")


def host_clock():
    import numpy as np

    from calibrate import HostClock
    from gridmark import codec, model_io

    cfg = codec.EmbedConfig()
    wm = model_io.WatermarkBitmap(np.random.default_rng(5).integers(0, 2, (32, 32), dtype=np.uint8))
    marked = codec.embed(model_io.generate_model("bumps", 256, 3), wm, cfg)
    samples = {1: [], 8: []}
    for _ in range(6):  # short and long segments alternate, so host drift hits both
        for extracts in samples:
            clock, wall = HostClock(), 0.0
            while wall < 2.0:
                t0 = time.perf_counter()
                for _ in range(extracts):
                    codec.extract(marked, wm.w, cfg)
                wall += time.perf_counter() - t0
                clock.keep_up(wall)
            samples[extracts] += clock.samples
    ratio = median(samples[1]) / median(samples[8])
    check(abs(ratio - 1.0) <= 0.15, f"kernel median between 1-extract ops / between 8-extract ops = {ratio:.3f}")


def benchmark_json():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(per_layer == layers.metric_units(), "BENCHMARK.json per_layer matches layers.metric_units()")
    check(max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s", "setup_s has the largest bound")


def info_lines(stdout):
    return {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in stdout.splitlines()
            if line.startswith(("quality ", "outputs "))}


def cross_run(workload, seed):
    outs = {}
    for trace in (0, 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "3", "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
        check(result.get("correct") is True, f"{workload} --trace {trace} runs correctly")
        outs[trace] = info_lines(done.stdout)
    check(outs[0].get("quality") is not None and outs[0] == outs[1],
          "traced and untraced runs print the same quality metrics, bits and first-op outputs")


def main():
    synthetic()
    on_gridmark()
    host_clock()
    benchmark_json()
    cross_run("battery-256", 0)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
