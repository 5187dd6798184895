"""Which rdiv calls a traced run wraps, and the per-layer figures made from them.

Every figure is per traced pass. A function's figures are `.ms` (total),
`.self_ms` and `.calls`, plus the counts listed for it. Four counts measure
work that could be skipped and repeat exactly between passes:
`attacks.cw.forward_per_iter`, `serialize.read_system.discarded_inits`,
`system.train.distinct_share` and `dataio.load_idx.calls`.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import Span, has_ancestor, per_pass_totals


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _idx_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "images_path"))
            + os.path.getsize(_arg(args, kwargs, 1, "labels_path"))}


def _preprocess_span(args, kwargs) -> str:
    kind = _arg(args, kwargs, 0, "p").kind
    group = ("perm" if kind == "direct-permutation"
             else "dct" if kind.startswith("dct") else kind)
    return f"transforms.preprocess_batch.{group}"


def _lineages(args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    return {"lineages": [(system.mode, system.master.value, c.j, c.i)
                         for c in system.channels]}


# (module, function, span name or namer, counter). Functions reached only
# through another module's binding are replaced there by the tracer too.
TRACED = (
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_surrogate", "cli.surrogate", None),
    ("cli", "cmd_attack", "cli.attack", None),
    ("cli", "cmd_report", "cli.report", None),
    ("dataio", "load_idx", "dataio.load_idx", _idx_bytes),
    ("rng", "keyed_permutation", "rng.keyed_permutation", None),
    ("rng", "uniform_floats", "rng.uniform_floats",
     lambda args, kwargs, result: {"draws": len(result)}),
    ("nn", "_keyed_order", "nn._keyed_order", None),
    ("transforms", "preprocess_batch", _preprocess_span,
     lambda args, kwargs, result: {"images": len(result)}),
    ("nn", "init_params", "nn.init_params", None),
    ("nn", "train", "nn.train", None),
    ("nn", "_apply_update", "nn._apply_update", None),
    ("nn", "batch_loss_and_grads", "nn.batch_loss_and_grads", None),
    ("nn", "backward_from_logits", "nn.backward_from_logits", None),
    ("nn", "forward", "nn.forward", None),
    ("nn", "logits_and_cache", "nn.logits_and_cache", None),
    ("system", "build_system", "system.build_system", None),
    ("system", "train_system", "system.train_system", _lineages),
    ("system", "classify_batch", "system.classify_batch", None),
    ("system", "predict_batch", "system.predict_batch", None),
    ("attacks", "train_surrogate", "attacks.train_surrogate", None),
    ("attacks", "fgsm_batch", "attacks.fgsm_batch", None),
    ("attacks", "pgd_linf_batch", "attacks.pgd_linf_batch", None),
    ("attacks", "cw_l2_batch", "attacks.cw_l2_batch",
     lambda args, kwargs, result: {"iterations": _arg(args, kwargs, 3, "config").iterations}),
    ("attacks", "craft_adv_set", "attacks.craft_adv_set", None),
    ("attacks", "transfer_eval", "attacks.transfer_eval", None),
    ("serialize", "save_system", "serialize.save_system", _file_bytes),
    ("serialize", "read_system", "serialize.read_system", _file_bytes),
    ("serialize", "save_adv_set", "serialize.save_adv_set", _file_bytes),
    ("serialize", "read_adv_set", "serialize.read_adv_set", _file_bytes),
    ("serialize", "save_params", "serialize.save_params", _file_bytes),
    ("serialize", "read_params", "serialize.read_params", _file_bytes),
)

MODULES = ("attacks", "cli", "dataio", "nn", "rng", "serialize", "system", "transforms")

# Span name -> extra per-pass figures beyond ms, self_ms and calls.
REPORTED = {
    "cli.train": (), "cli.surrogate": (), "cli.attack": (), "cli.report": (),
    "dataio.load_idx": ("bytes",),
    "rng.keyed_permutation": (), "rng.uniform_floats": ("draws",),
    "nn._keyed_order": (),
    "transforms.preprocess_batch.perm": ("images",),
    "transforms.preprocess_batch.dct": ("images",),
    "nn.train": ("steps",), "nn._apply_update": (),
    "nn.batch_loss_and_grads": (), "nn.backward_from_logits": (),
    "nn.forward": (), "nn.logits_and_cache": (),
    "system.build_system": (), "system.train_system": (),
    "system.classify_batch": (), "system.predict_batch": (),
    "attacks.train_surrogate": (), "attacks.fgsm_batch": (),
    "attacks.pgd_linf_batch": (), "attacks.cw_l2_batch": (),
    "attacks.craft_adv_set": (), "attacks.transfer_eval": (),
    "serialize.save_system": ("bytes",), "serialize.read_system": ("bytes",),
    "serialize.save_adv_set": ("bytes",), "serialize.read_adv_set": ("bytes",),
    "serialize.save_params": ("bytes",), "serialize.read_params": ("bytes",),
}

_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "bytes": "bytes",
          "draws": "count", "images": "count", "steps": "count"}

DERIVED = {
    "transforms.dct_flops_per_image": "flop_computed",
    "system.train.distinct_share": "ratio",
    "attacks.cw.forward_per_iter": "ratio",
    "serialize.read_system.discarded_inits": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, extra in REPORTED.items():
        for what in ("ms", "self_ms", "calls") + extra:
            units[f"{span}.{what}"] = _UNITS[what]
    units.update(DERIVED)
    return units


def rdiv_modules(rdiv) -> list:
    return [rdiv] + [getattr(rdiv, name) for name in MODULES]


def install(tracer, rdiv) -> None:
    for module, function, name, count in TRACED:
        tracer.wrap(getattr(rdiv, module), function, name, count)


def figures(spans: list[Span], passes: int, image_size: int, colors: int) -> dict:
    """Per-layer figures, per pass, from the spans of `passes` traced passes."""
    totals = per_pass_totals(spans, passes)
    out = {}
    for span, extra in REPORTED.items():
        row = totals.get(span, {})
        for what in ("ms", "self_ms", "calls") + extra:
            out[f"{span}.{what}"] = row.get(what, 0.0)

    def count_under(name: str, ancestor: str) -> int:
        return sum(1 for index, s in enumerate(spans)
                   if s.name == name and has_ancestor(spans, index, ancestor))

    out["nn.train.steps"] = count_under("nn._apply_update", "nn.train") / passes
    out["serialize.read_system.discarded_inits"] = (
        count_under("nn.init_params", "serialize.read_system") / passes)
    iterations = sum(s.counts["iterations"] for s in spans
                     if s.name == "attacks.cw_l2_batch")
    out["attacks.cw.forward_per_iter"] = (
        count_under("nn.logits_and_cache", "attacks.cw_l2_batch") / iterations
        if iterations else 0.0)

    lineages = defaultdict(list)
    for s in spans:
        if s.name == "system.train_system":
            lineages[s.pass_id].extend(s.counts["lineages"])
    shares = [len(set(trained)) / len(trained) for trained in lineages.values()]
    out["system.train.distinct_share"] = sum(shares) / len(shares) if shares else 0.0

    # Two N x N matrix products each way, 2 N^3 flops apiece, per color.
    dct_used = out["transforms.preprocess_batch.dct.calls"] > 0
    out["transforms.dct_flops_per_image"] = (
        4 * 2 * image_size ** 3 * colors if dct_used else 0)
    return out
