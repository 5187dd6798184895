"""Run one workload of the rdiv benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload pipeline|defend|attack --seed N \\
        --seconds S --trace 0|1

Run it from a full checkout: it imports rdiv from `src/` and the synthetic
digit generator from `tests/_synth.py`, and exits non-zero without a result
when either is missing. Scratch files go to `.perfbench/` and are removed,
except one record per run with the environment, the metrics and, for a
traced run, every span.

--trace 0 prints the end-to-end metrics. Every end-to-end metric is
printed on every workload, so the run interleaves passes of all three
workloads until the passes add up to --seconds. The named workload gets
NATIVE_SHARE of that time, and each workload at least MIN_PASSES; each
metric is the median over its workload's passes. Set-up runs once before
the loop and twice more inside it, and `setup_s` is the median of the three.
Interleaving spreads every metric over the whole run, which keeps a slow
minute of a shared machine from landing on one metric. `peak_rss_mb` is
read after set-up and the first pass, which is always the named workload.

--trace 1 sets up once, makes one warm-up pass, then alternates untraced
and traced passes of the named workload only. It prints the per-layer
figures of the traced passes, plus the tracing overhead: the median over
pairs of a traced pass minus the untraced pass before it.

BLAS threads keep the machine's defaults; the record names them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads as wl
from spans import Tracer, median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("pipeline", "defend", "attack")
SETUP_REPEATS = 3
MIN_PASSES = {"pipeline": 3, "defend": 6, "attack": 3}
NATIVE_SHARE = 0.5
MIN_TRACED_PASSES = 2
HOLDOUT_SEED = 1009     # kept back for checking claims made on other seeds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_program():
    """Import rdiv and the digit generator from this checkout, nowhere else."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "rdiv" / "__init__.py").is_file() or not (tests / "_synth.py").is_file():
        raise SystemExit(f"perfbench: no src/rdiv or tests/_synth.py under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import _synth
    import rdiv
    import rdiv.cli
    if Path(rdiv.__file__).resolve().parent != (src / "rdiv").resolve():
        raise SystemExit(f"perfbench: imported rdiv from {rdiv.__file__}, not {src}")
    return rdiv, _synth


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


class Runner:
    """Runs passes of any workload over one set of inputs."""

    def __init__(self, rdiv, inputs, ledger, work: Path):
        self.rdiv = rdiv
        self.inputs = inputs
        self.ledger = ledger
        self.work = work
        self.count = 0

    def run(self, workload: str, scope=None) -> dict | None:
        """One pass; None if it raised, which counts as a failed operation."""
        self.count += 1
        out = self.work / f"{workload}-{self.count}"
        kwargs = {} if scope is None else {"scope": scope}
        try:
            return wl.PASSES[workload](self.rdiv, self.inputs, self.ledger, out, **kwargs)
        except Exception:
            traceback.print_exc()
            self.ledger.op(False, f"{workload}: pass {self.count} raised")
            return None


def end_to_end(samples: dict, setup_times: list, rss_mb: float, ledger) -> dict:
    def med(workload, fn):
        return median(fn(t) for t in samples[workload])

    channels = sum(wl.BRANCH_GRID)      # J = 1 for direct-permutation
    train_samples = channels * wl.TRAIN_IMAGES * wl.EPOCHS
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_ops_pct": (100.0 * (ledger.attempted - ledger.failed) / ledger.attempted, "%"),
    }
    if samples["pipeline"]:
        metrics["pipeline_s"] = (med("pipeline", lambda t: t["pass"]), "s")
        metrics["train_samples_per_s"] = (
            med("pipeline", lambda t: train_samples / t["train"]), "1/s")
    if samples["defend"]:
        metrics["eval_s"] = (med("defend", lambda t: t["pass"]), "s")
        metrics["classify_perm_images_per_s"] = (
            med("defend", lambda t: 2 * wl.LIMIT / t["perm"]), "1/s")
        metrics["classify_dct_images_per_s"] = (
            med("defend", lambda t: 2 * wl.LIMIT / t["dct"]), "1/s")
    if samples["attack"]:
        metrics["attack_s"] = (med("attack", lambda t: t["pass"]), "s")
        metrics["pgd_images_per_s"] = (
            med("attack", lambda t: wl.LIMIT / t["pgd-linf"]), "1/s")
        metrics["cw_images_per_s"] = (
            med("attack", lambda t: wl.LIMIT / t["cw-l2"]), "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def timed_run(rdiv, synth, args, work: Path, ledger) -> tuple[dict, dict]:
    setup_times = []

    def set_up():
        start = time.perf_counter()
        inputs = wl.setup(rdiv, synth, args.seed, work / f"setup-{len(setup_times)}")
        setup_times.append(time.perf_counter() - start)
        return inputs

    inputs = set_up()
    wl.record_references(rdiv, inputs, ledger)

    runner = Runner(rdiv, inputs, ledger, work)
    samples = {name: [] for name in WORKLOADS}
    share = {name: NATIVE_SHARE if name == args.workload
             else (1.0 - NATIVE_SHARE) / (len(WORKLOADS) - 1) for name in WORKLOADS}
    spent = dict.fromkeys(WORKLOADS, 0.0)
    rss_mb = None
    workload = args.workload
    while (times := runner.run(workload)) is not None:
        samples[workload].append(times)
        spent[workload] += times["pass"]
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = sum(spent.values())
        # The repeat set-ups fall inside the loop, so they lengthen the
        # stretch of time every metric is sampled over instead of preceding it.
        if len(setup_times) < SETUP_REPEATS and \
                measured >= args.seconds * len(setup_times) / SETUP_REPEATS:
            repeat = set_up()
            ledger.op(repeat.digests() == inputs.reference["digests"],
                      "set-up: artifacts differ between repeats")
            shutil.rmtree(repeat.directory)
            del repeat
        over = measured >= args.seconds and len(setup_times) == SETUP_REPEATS
        behind = [name for name in WORKLOADS if len(samples[name]) < MIN_PASSES[name]]
        if over and not behind:
            break
        workload = min(behind if over else WORKLOADS,
                       key=lambda name: spent[name] / share[name])
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(samples, setup_times, rss_mb, ledger)
    return metrics, {"setup_s": setup_times, "passes": samples}


def traced_run(rdiv, synth, args, work: Path, ledger) -> tuple[dict, dict]:
    inputs = wl.setup(rdiv, synth, args.seed, work / "setup")
    wl.record_references(rdiv, inputs, ledger)
    runner = Runner(rdiv, inputs, ledger, work)
    tracer = Tracer(layers.rdiv_modules(rdiv))
    plain, traced = [], []
    runner.run(args.workload)   # warm-up, so neither side pays first-call costs
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(traced) < MIN_TRACED_PASSES):
        if len(traced) < len(plain):
            layers.install(tracer, rdiv)
            try:
                times = runner.run(args.workload,
                                   scope=lambda: tracer.recording(len(traced)))
            finally:
                tracer.uninstall()
            record = traced
        else:
            times = runner.run(args.workload)
            record = plain
        if times is None:
            break
        record.append(times["pass"])

    units = layers.metric_units()
    values = dict.fromkeys(units, 0.0)
    if traced:
        values.update(layers.figures(tracer.spans, len(traced), inputs.trainset.size,
                                     inputs.trainset.colors))
        # Each traced pass minus the untraced pass just before it, so drift
        # in the machine's speed cancels within a pair.
        overhead = median(t - p for t, p in zip(traced, plain))
        values["trace.overhead_ms"] = overhead * 1e3
        values["trace.overhead_pct"] = 100.0 * overhead / median(plain)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    spans = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
              "pass": s.pass_id, "counts": s.counts} for s in tracer.spans]
    return metrics, {"untraced_pass_s": plain, "traced_pass_s": traced, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    rdiv, synth = load_program()
    env = environment(args.seed)
    work = OUT / f"work-{os.getpid()}"
    ledger = wl.Ledger()
    try:
        metrics, detail = (traced_run if args.trace else timed_run)(
            rdiv, synth, args, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "workload": args.workload,
                                  "seconds": args.seconds, "result": result,
                                  "detail": detail}))
    print("perfbench env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
