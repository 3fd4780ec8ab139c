"""Run one benchmark workload once, in this fresh process, and print one JSON line.

    python3 perfbench/child.py --workload head-wide --seed 0 [--trace] [--spans FILE]

run.py starts one child per measured run, so every run pays the cold start
that a user of the CLI pays.  Only the standard library is loaded before the
set-up clock starts; ``import dpfedsim`` (which loads numpy), ``resolve_raw``
and ``load_dataset`` are what ``setup_s`` times.

Untraced, the only thing added to the run is a shim on ``run_local`` that
notes who trained on how many examples in which round; the outputs are
checked from those notes after the clock stops.  Traced (``--trace``), the
functions in TRACED are wrapped in spans as well, the shim keeps every
update, and each is sent through the wire codec once the run is over.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import HOOK_SPAN, Tracer, rebind
from workloads import WORKLOADS, seeded

ROOT = Path(__file__).resolve().parent.parent

# Layer boundaries: the public functions of each dpfedsim module on the run
# path, in ``module.function`` form.
TRACED = [
    "config.resolve_raw",
    "config.load_dataset",
    "federation.run_experiment",
    "federation.partition_data",
    "federation.initial_params",
    "federation.run_local",
    "federation.evaluate",
    "models.per_sample_gradients",
    "models.mean_gradient",
    "models.forward",
    "dpsgd.epoch_batches",
    "dpsgd.clip_per_sample",
    "dpsgd.noisy_mean",
    "dpsgd.dp_step",
    "rng.derive_seed",
    "rng.generator",
    "rng.standard_normal",
    "masking.extract_masked_update",
    "masking.serialize_update",
    "masking.deserialize_update",
    "aggregation.aggregate",
    "accountant.compose_rounds",
]


class RunLocalLog:
    """What the checks need from the ``run_local`` calls of one run.

    Per call it keeps (client_id, n_k, round_index); from the first call, the
    broadcast parameters and the mask indices.  Updates themselves are kept
    only with ``keep_updates`` (for the wire probe of a traced run): held to
    the end of the run, they would add to the peak RSS being measured.
    """

    def __init__(self, keep_updates: bool) -> None:
        self.calls: list[tuple[int, int, int]] = []
        self.start = None
        self.indices = None
        self.updates: list | None = [] if keep_updates else None

    def shim(self, fn):
        signature = inspect.signature(fn)

        def logged(*args, **kwargs):
            update = fn(*args, **kwargs)
            if self.start is None:
                self.start = signature.bind(*args, **kwargs).arguments["w_t"]
                self.indices = update.indices
            self.calls.append((update.client_id, update.n_k, update.round_index))
            if self.updates is not None:
                self.updates.append(update)
            return update

        return logged


class GradientCounters:
    """Counts taken at the gradient and clipping boundaries of a traced run."""

    def __init__(self) -> None:
        self.cols_computed = 0
        self.cols_kept = 0
        self.rows = 0
        self.rows_clipped = 0

    def after_gradients(self, args, kwargs, grads) -> None:
        self.cols_computed += grads.shape[1]

    def after_clip(self, args, kwargs, clipped) -> None:
        import numpy as np

        grads = args[0] if args else kwargs["grads"]
        self.cols_kept += grads.shape[1]
        self.rows += grads.shape[0]
        self.rows_clipped += int(np.count_nonzero(np.any(clipped != grads, axis=1)))


def digest(dpfedsim, result) -> str:
    """sha256 of the rendered round table followed by the final parameter bytes."""
    h = hashlib.sha256(dpfedsim.comm.render_rounds_table(result.records).encode())
    h.update(result.final_params.values.astype("<f8").tobytes())
    return h.hexdigest()


def check_outputs(dpfedsim, cfg, result, log: RunLocalLog) -> list[str]:
    """Invariants that hold for every seed; returns the ones that fail."""
    import numpy as np

    problems = []
    if result.error is not None:
        problems.append(f"run reported an error: {result.error}")
    if len(result.records) != cfg.rounds:
        problems.append(f"{len(result.records)} round records, expected {cfg.rounds}")
    if not all(math.isfinite(r.global_loss) for r in result.records):
        problems.append("non-finite global loss")
    if not log.calls:
        return problems + ["run_local was never called"]

    # Privacy: the reported epsilon after round t is the largest per-client
    # cost, each client charged for the rounds it took part in so far.
    n_k = {k: n for k, n, _ in log.calls}
    per_round = {}
    for k, n in n_k.items():
        q = min(cfg.batch_size, n) / n
        per_round[k] = dpfedsim.PrivacyParams(
            q, cfg.dp.noise_multiplier, cfg.local_epochs, cfg.delta
        )
    taken = {k: 0 for k in n_k}
    for record in result.records:
        for k, _, round_index in log.calls:
            if round_index == record.round_index:
                taken[k] += 1
        expected = max(
            dpfedsim.compose_rounds(per_round[k], r).epsilon for k, r in taken.items() if r
        )
        if record.epsilon_to_date != expected:
            problems.append(
                f"round {record.round_index}: epsilon {record.epsilon_to_date!r}, "
                f"accountant gives {expected!r}"
            )
            break

    # Coordinates outside the mask never move from the round-0 broadcast.
    frozen = np.ones(log.start.dim, dtype=bool)
    frozen[log.indices] = False
    if log.start.values[frozen].tobytes() != result.final_params.values[frozen].tobytes():
        problems.append("frozen coordinates differ from the round-0 parameters")
    return problems


def wire_probe(dpfedsim, cfg, updates) -> tuple[float, float]:
    """Round-trip every update through the dense-f32 codec.

    Returns (mean serialized bytes per update, that ÷ comm.traffic_per_round).
    """
    import numpy as np

    mask = dpfedsim.make_mask(dpfedsim.layer_layout(cfg.model), cfg.resolved_mask_layers())
    modeled = dpfedsim.comm.traffic_per_round(mask, cfg.comm, "dense-f32")
    sizes = []
    for update in updates:
        blob = dpfedsim.masking.serialize_update(update, mask.total_count, "dense-f32")
        back = dpfedsim.masking.deserialize_update(blob, mask)
        if not np.array_equal(back.indices, update.indices):
            raise AssertionError("wire round trip lost the update indices")
        if not np.array_equal(back.deltas, update.deltas.astype(np.float32).astype(np.float64)):
            raise AssertionError("wire round trip deltas are not the float32 rounding")
        sizes.append(len(blob))
    mean_bytes = sum(sizes) / len(sizes)
    return mean_bytes, mean_bytes / modeled


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def traced_layers(tracer: Tracer, run_s: float, counters: GradientCounters, wire) -> dict:
    """Per-layer metrics of one traced run, after checking the span tree.

    A layer that was wrapped but never called reads 0 calls and 0 s; counters
    that saw nothing raise instead of reading 0.
    """
    tracer.check_nesting()
    inside = tracer.subtree(tracer.names.index("federation.run_experiment"))
    in_run = tracer.summary(inside)
    accounted = sum(entry["self_s"] for entry in in_run.values())
    # Self times of the wrapped spans plus run_experiment's own remainder
    # must add up to the traced run time measured around the call.
    if abs(accounted - run_s) > max(2e-3, 2e-3 * run_s):
        raise AssertionError(f"span self times add to {accounted:.6f} s, run took {run_s:.6f} s")
    if not counters.cols_computed or not counters.rows:
        raise AssertionError("no per-sample gradient was computed or clipped")
    layers = {}
    summary = tracer.summary()
    for name in [*TRACED, HOOK_SPAN]:
        entry = summary.get(name, {"self_s": 0.0, "calls": 0})
        layers[f"{name}.self_s"] = entry["self_s"]
        layers[f"{name}.calls"] = entry["calls"]
    layers["models.grad_cols_used_ratio"] = counters.cols_kept / counters.cols_computed
    layers["dpsgd.clipped_rows_frac"] = counters.rows_clipped / counters.rows
    layers["masking.wire_bytes_per_update"], layers["masking.wire_to_model_ratio"] = wire
    layers["trace.run_s"] = run_s
    layers["trace.spans"] = len(tracer.names)
    return {
        "layers": layers,
        "run_shares": {name: entry["self_s"] / run_s for name, entry in in_run.items()},
    }


def run_once(args) -> dict:
    out: dict = {"workload": args.workload, "seed": args.seed}
    raw = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import dpfedsim

    log = RunLocalLog(keep_updates=args.trace)
    tracer = counters = None
    missing = []
    if args.trace:
        tracer, counters = Tracer(), GradientCounters()
        missing = tracer.install(
            TRACED,
            {
                "models.per_sample_gradients": counters.after_gradients,
                "dpsgd.clip_per_sample": counters.after_clip,
            },
        )
    resolved = dpfedsim.resolve_raw(seeded(raw, args.seed))
    train, test = dpfedsim.load_dataset(resolved)
    out["setup_s"] = time.perf_counter() - t0

    cfg = resolved.experiment
    run_local = dpfedsim.federation.run_local
    rebind(run_local, log.shim(run_local))
    start = time.perf_counter()
    result = dpfedsim.run_experiment(cfg, train, test)
    out["run_s"] = time.perf_counter() - start

    if tracer is not None:
        wire = wire_probe(dpfedsim, cfg, log.updates)
        tracer.uninstall()
        out.update(traced_layers(tracer, out["run_s"], counters, wire))
        if args.spans:
            tracer.write(args.spans)
    # The shuffle sampler trains on every example of a shard once per epoch.
    out["examples"] = sum(n for _, n, _ in log.calls) * cfg.local_epochs
    out["digest"] = digest(dpfedsim, result)
    out["problems"] = [f"layer {name} is not in dpfedsim" for name in missing]
    out["problems"] += check_outputs(dpfedsim, cfg, result, log)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = blas_threads()
    out["numpy"] = sys.modules["numpy"].__version__
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="gzipped JSON file for the spans")
    args = parser.parse_args(argv)
    try:
        out = run_once(args)
    except Exception:  # reported to the parent, which counts the run as failed
        out = {"workload": args.workload, "seed": args.seed, "problems": [traceback.format_exc()]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
