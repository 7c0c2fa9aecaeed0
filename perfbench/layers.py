"""Which gridmark functions the traced run wraps, and the per-layer
metrics derived from their spans.

Per-op figures come from the spans under each ``op`` root.  Ratios over
the weight field (eligibility, mask flips, repeated surfaces, votes) also
count battery-256's per-cycle embed (its ``cycle`` root), because the
battery's extract masks are compared against that embed's mask.
"""

import inspect
import os
from collections import defaultdict
from statistics import median

import numpy as np

from gridmark import arnold, attacks, cli, codec, features, fuzzy, model_io, wavelet
from gridmark.fuzzy import CENTROID_POINTS
from tracer import PROBE

MODULES = {
    "features": features,
    "fuzzy": fuzzy,
    "wavelet": wavelet,
    "codec": codec,
    "arnold": arnold,
    "attacks": attacks,
    "model_io": model_io,
}

# (module, function): each gets <module>.<fn>.self_ms and .calls_per_op
FUNCTIONS = (
    ("features", "raw_features"),
    ("features", "reference_surface"),
    ("features", "compute_weights"),
    ("fuzzy", "evaluate_many"),
    ("fuzzy", "weight_class_many"),
    ("wavelet", "decompose3"),
    ("wavelet", "reconstruct3"),
    ("codec", "embed"),
    ("codec", "extract"),
    ("codec", "quantize_embed_bit"),
    ("codec", "read_bit"),
    ("codec", "SlotMap"),
    ("arnold", "scramble"),
    ("arnold", "unscramble"),
    ("attacks", "apply"),
    ("attacks", "apply_registration"),
    ("attacks", "save_registration"),
    ("model_io", "load_model"),
    ("model_io", "save_model"),
)

# name -> (unit, better)
EXTRA = {
    "features.raw_features.us_per_block": ("us/block", "lower"),
    "features.eligible_ratio": ("ratio", "higher"),
    "features.mask_flip_ratio": ("ratio", "lower"),
    "features.repeat_surface_ratio": ("ratio", "higher"),
    "features.repeat_surface_exact_ratio": ("ratio", "higher"),
    "fuzzy.evaluate_many.us_per_input": ("us/input", "lower"),
    "fuzzy.aggregate_mb": ("MB", "lower"),
    "codec.min_votes_per_bit": ("count", "higher"),
    "codec.bits_without_vote": ("count", "lower"),
    "codec.eligible_slot_ratio": ("ratio", "higher"),
    "model_io.load_model.mb_per_s": ("MB/s", "higher"),
    "model_io.save_model.mb_per_s": ("MB/s", "higher"),
    "model_io.grid3_bytes": ("B", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_ratio": ("ratio", "lower"),
}


def metric_units():
    """Every per-layer metric in print order: name -> (unit, better)."""
    out = {}
    for mod, fn in FUNCTIONS:
        out[f"{mod}.{fn}.self_ms"] = ("ms", "lower")
        out[f"{mod}.{fn}.calls_per_op"] = ("1/op", "lower")
    out.update(EXTRA)
    return out


# ---------------------------------------------------------------------------
# Probes: run after a span closes, keep what the metrics need

def _probes():
    def bound(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments

    weights_args, embed_args, extract_args = bound(features.compute_weights), bound(codec.embed), bound(codec.extract)
    load_args, save_args = bound(model_io.load_model), bound(model_io.save_model)

    def weights(a, k, wf):
        # keeps the surface itself: it is never mutated, and embedding moves
        # it by ulps only, so repeats are found by comparing within a tolerance
        return wf.eligible.copy(), weights_args(a, k)["ref"]

    def embed(a, k, _):
        b = embed_args(a, k)
        return b["m"].n, b["wm"].w, b["cfg"].directions

    def extract(a, k, _):
        b = extract_args(a, k)
        return b["m"].n, b["w"], b["cfg"].directions

    return {
        "features.compute_weights": weights,
        "features.raw_features": lambda a, k, ff: ff.curvature.size,
        "fuzzy.evaluate_many": lambda a, k, w: w.size,
        "codec.embed": embed,
        "codec.extract": extract,
        "model_io.load_model": lambda a, k, _: os.path.getsize(load_args(a, k)["path"]),
        "model_io.save_model": lambda a, k, _: os.path.getsize(save_args(a, k)["path"]),
    }


def full_targets():
    probes = _probes()
    out = []
    for mod, fn in FUNCTIONS:
        name = f"{mod}.{fn}"
        out.append((name, getattr(MODULES[mod], fn), probes.get(name)))
    out.append(("cli.main", cli.main, None))
    return out


def io_targets():
    """The untraced run times only GRID3 load/save, for load_ms/save_ms."""
    return [(f"model_io.{fn}", getattr(model_io, fn), None) for fn in ("load_model", "save_model")]


# ---------------------------------------------------------------------------
# Metrics

def _p50(values):
    return median(values) if values else 0.0


def _votes(mask, n, w, directions):
    """Eligible slots per payload bit under the fixed slot schedule."""
    bit = codec.SlotMap(n, w, directions).bit
    per_bit = np.bincount(bit[:, :, mask].ravel(), minlength=w * w)
    return int(per_bit.min()), int((per_bit == 0).sum()), mask.sum() * bit.shape[0] * bit.shape[1] / bit.size


def _same_surface(a, b, rtol=1e-9):
    """None if the surfaces differ, else whether they are bit-identical."""
    pairs = [(a.matrix(k), b.matrix(k)) for k in ("x1", "x2", "x3")]
    if any(x.shape != y.shape for x, y in pairs):
        return None
    if all(np.array_equal(x, y) for x, y in pairs):
        return True
    scale = max(float(np.abs(x).max()) for x, _ in pairs) or 1.0
    return False if all(np.abs(x - y).max() <= rtol * scale for x, y in pairs) else None


def per_layer(tracer, span_cost):
    """span_cost: seconds of bookkeeping per span (Tracer.span_cost)."""
    spans = tracer.spans
    roots, self_time = tracer.tree()
    ops = [i for i, s in enumerate(spans) if s.parent is None and s.name == "op"]
    slot = {op: k for k, op in enumerate(ops)}
    in_region = [spans[r].parent is None and spans[r].name in ("op", "cycle") for r in roots]

    self_ms = defaultdict(lambda: [0.0] * len(ops))
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        k = slot.get(roots[i])
        if k is None or i == roots[i]:
            continue
        self_ms[s.name][k] += self_time[i] * 1000.0
        calls[s.name] += 1

    out = {}
    nops = max(len(ops), 1)
    for mod, fn in FUNCTIONS:
        name = f"{mod}.{fn}"
        out[f"{name}.self_ms"] = _p50(self_ms[name]) if ops else 0.0
        out[f"{name}.calls_per_op"] = calls[name] / nops
    out["cli.self_ms"] = _p50(self_ms["cli.main"]) if ops else 0.0

    def region(name):
        return [(i, spans[i]) for i in range(len(spans)) if in_region[i] and spans[i].name == name]

    raw = region("features.raw_features")
    blocks = sum(s.data for _, s in raw)
    out["features.raw_features.us_per_block"] = sum(s.duration for _, s in raw) * 1e6 / blocks if blocks else 0.0
    fz = region("fuzzy.evaluate_many")
    inputs = sum(s.data for _, s in fz)
    out["fuzzy.evaluate_many.us_per_input"] = sum(s.duration for _, s in fz) * 1e6 / inputs if inputs else 0.0
    out["fuzzy.aggregate_mb"] = _p50([s.data * CENTROID_POINTS * 8 / 1e6 for _, s in fz])

    # weight fields: eligibility, surfaces seen before, flips against the
    # embed-time mask, votes per bit under each codec call
    def codec_ancestor(i):
        p = spans[i].parent
        while p is not None and not spans[p].name.startswith("codec."):
            p = spans[p].parent
        return p

    # roots carry the key of the model they work on, which pairs each
    # extract with the embed of the same model
    surfaces = defaultdict(list)  # root key -> surfaces seen
    repeats = exact = eligible = blocks = 0
    flips = compared = 0
    embed_masks = {}
    votes = []
    weights = region("features.compute_weights")
    for i, s in weights:
        mask, surface = s.data
        key = spans[roots[i]].data
        # fresh inputs never repeat across keys, so only same-key surfaces can
        matches = [_same_surface(surface, seen) for seen in surfaces[key]]
        repeats += any(m is not None for m in matches)
        exact += any(matches)
        surfaces[key].append(surface)
        eligible += int(mask.sum())
        blocks += mask.size
        c = codec_ancestor(i)
        if c is None:
            continue
        if spans[c].name == "codec.embed":
            embed_masks[key] = mask
        elif key in embed_masks and embed_masks[key].shape == mask.shape:
            flips += int((mask != embed_masks[key]).sum())
            compared += mask.size
        votes.append(_votes(mask, *spans[c].data))
    out["features.eligible_ratio"] = eligible / blocks if blocks else 0.0
    out["features.mask_flip_ratio"] = flips / compared if compared else 0.0
    out["features.repeat_surface_ratio"] = repeats / len(weights) if weights else 0.0
    out["features.repeat_surface_exact_ratio"] = exact / len(weights) if weights else 0.0
    out["codec.min_votes_per_bit"] = _p50([v[0] for v in votes])
    out["codec.bits_without_vote"] = _p50([v[1] for v in votes])
    out["codec.eligible_slot_ratio"] = _p50([v[2] for v in votes])

    sizes = []
    for fn in ("load_model", "save_model"):
        io = region(f"model_io.{fn}")
        nbytes = sum(s.data for _, s in io)
        seconds = sum(s.duration for _, s in io)
        out[f"model_io.{fn}.mb_per_s"] = nbytes / 1e6 / seconds if seconds else 0.0
        sizes += [s.data for _, s in io]
    out["model_io.grid3_bytes"] = _p50(sizes)

    # tracing cost inside ops: the probes, timed as spans of their own, plus
    # the calibrated bookkeeping of every span
    in_ops = [i for i in range(len(spans)) if roots[i] in slot]
    probes = sum(spans[i].duration for i in in_ops if spans[i].name == PROBE)
    cost = probes + len(in_ops) * span_cost
    op_time = sum(spans[op].duration for op in ops)
    out["trace.overhead_ratio"] = cost / (op_time - cost) if op_time > cost else 0.0
    out["trace.uncovered_ratio"] = _p50([self_time[op] / spans[op].duration for op in ops])
    return {name: float(out[name]) for name in metric_units()}
