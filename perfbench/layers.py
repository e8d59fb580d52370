"""The public callables the traced run wraps, per layer (package module).

Each group names the end-to-end metric it should move and on which
workload, written down before any optimisation so a later change can be
checked against it. `theory` is a claim oracle outside the user pipeline
and is not traced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    module: str          # module of scale_fu the original is read from
    attr: str            # function name, or Class.method
    hook: object = None  # hook(tracer, args, kwargs, result) adding counts

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_sparsify(tr, args, kwargs, out) -> None:
    # a call that zeroed nothing is a wasted environment step
    model, idx = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "idx")
    layer, groups = _arg(args, kwargs, 2, "layer"), _arg(args, kwargs, 3, "groups")
    before, after = model.params[layer], out.params[layer]
    changed = any(np.any(before[sl] != after[sl])
                  for sl in (idx.slice_of(layer, j) for j in groups))
    tr.count("rl.sparsify.noop", float(not changed))


def _count_train_unlearner(tr, args, kwargs, out) -> None:
    cfg = _arg(args, kwargs, 3, "cfg")
    tr.count("rl.train_unlearner.episodes", len(out.episodes))
    tr.count("rl.train_unlearner.env_steps", sum(e.steps for e in out.episodes))
    # an episode shorter than t_collect was ended by sparsity_cap
    tr.count("rl.train_unlearner.early_ends",
             sum(e.steps < cfg.t_collect for e in out.episodes))


def _count_samples(tr, args, kwargs, out) -> None:
    tr.count("nn.loss_and_grads.samples", len(_arg(args, kwargs, 1, "batch")))


def _count_rounds(tr, args, kwargs, out) -> None:
    tr.count("federation.run_rounds.rounds", len(out[2]))


def _count_history_bytes(tr, args, kwargs, out) -> None:
    hist = _arg(args, kwargs, 0, "rd").history_dir
    tr.count("cli.save_history.bytes", sum(p.stat().st_size for p in hist.iterdir()))


def _count_saved_bytes(tr, args, kwargs, out) -> None:
    tr.count("nn.save_model.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_loaded_bytes(tr, args, kwargs, out) -> None:
    tr.count("nn.load_model.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (what it should move, targets). Shares are from one cProfile run each.
LAYER_MAP: list[tuple[str, list[Target]]] = [
    (
        "PPO update: unlearn_scale_s and pipeline_s; most on ref-mlp (~46% of "
        "unlearn_scale_s), less on fine-groups (~28%), ~nothing on cnn-fed",
        [
            Target("rl", "ppo_update"),
            Target("rl", "batch_log_probs"),
            Target("rl", "PolicyNet.backward"),
            Target("rl", "ValueNet.backward"),
            Target("rl", "ValueNet.values"),
            Target("rl", "clip_grad_norm"),
            Target("rl", "Adam.step"),
        ],
    ),
    (
        "PPO collect, AoI state and sparsifier: unlearn_scale_s; most on "
        "fine-groups (state_vector ~41%), about a fifth of it on ref-mlp, little "
        "on cnn-fed",
        [
            Target("aoi", "state_vector"),
            Target("aoi", "AoiLedger.ages"),
            Target("aoi", "aoi_summary"),
            Target("aoi", "partition_groups"),
            Target("rl", "UnlearnEnv.step"),
            Target("rl", "reward"),
            Target("rl", "sparsify", _count_sparsify),
            Target("rl", "min_group_sparsity"),
        ],
    ),
    (
        "Policy heads, rollout and deploy: unlearn_scale_s on both MLP workloads",
        [
            Target("rl", "policy_sample"),
            Target("rl", "ValueNet.value"),
            Target("rl", "policy_mode"),
            Target("rl", "deploy"),
            Target("rl", "train_unlearner", _count_train_unlearner),
        ],
    ),
    (
        "NN and FedAvg: train_s, unlearn_retrain_s and pipeline_s; dominant on "
        "cnn-fed, ~12% of pipeline_s on ref-mlp",
        [
            Target("nn", "loss_and_grads", _count_samples),
            Target("nn", "sgd_step"),
            Target("nn", "forward"),
            Target("federation", "run_rounds", _count_rounds),
            Target("federation", "local_update"),
            Target("federation", "aggregate"),
            Target("federation", "evaluate"),
        ],
    ),
    (
        "Sensitivity and artifact I/O: unlearn_scale_s, train_s and pipeline_s; "
        "small everywhere, largest on cnn-fed",
        [
            Target("sensitivity", "analyze"),
            Target("cli", "load_history"),
            Target("cli", "save_history", _count_history_bytes),
            Target("nn", "save_model", _count_saved_bytes),
            Target("nn", "load_model", _count_loaded_bytes),
            Target("cli", "write_csv"),
        ],
    ),
    (
        "Data and partition: setup_s, and pipeline_s on every workload (each of "
        "the 6 commands rebuilds them)",
        [
            Target("data", "gen_synthetic"),
            Target("data", "dirichlet_partition"),
            Target("data", "build_split"),
        ],
    ),
    (
        "Baselines and metrics: each under 1% of pipeline_s on the MLP "
        "workloads; the prediction is no visible change",
        [
            Target("baselines", "baseline_uniform"),
            Target("baselines", "baseline_grad_ascent"),
            Target("metrics", "accuracy"),
            Target("metrics", "forgetting_rate"),
            Target("metrics", "comm_overhead"),
        ],
    ),
    (
        "Stage spans: trace.coverage is their sum over the pipeline wall time",
        [
            Target("cli", "cmd_train"),
            Target("cli", "cmd_unlearn"),
            Target("cli", "cmd_eval"),
        ],
    ),
]

TARGETS: list[Target] = [t for _, group in LAYER_MAP for t in group]
STAGE_SPANS = ("cli.cmd_train", "cli.cmd_unlearn", "cli.cmd_eval")

# derived per-layer metrics besides <target>.calls and <target>.self_s
DERIVED_UNITS = {
    "rl.ppo_update.minibatches": "count",
    "rl.sparsify.noop_share": "ratio",
    "rl.train_unlearner.episodes": "count",
    "rl.train_unlearner.env_steps": "count",
    "rl.train_unlearner.early_end_share": "ratio",
    "nn.loss_and_grads.samples": "count",
    "federation.run_rounds.rounds": "count",
    "cli.save_history.bytes": "bytes",
    "nn.save_model.bytes": "bytes",
    "nn.load_model.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for t in TARGETS:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(tracer, trace_id: int) -> dict[str, float]:
    """Per-layer values of one traced pipeline (coverage and overhead excluded)."""
    summary = tracer.summary(trace_id)
    out: dict[str, float] = {}
    for t in TARGETS:
        row = summary.get(t.name, {"calls": 0, "self_s": 0.0})
        out[f"{t.name}.calls"] = float(row["calls"])
        out[f"{t.name}.self_s"] = row["self_s"]

    def count(name):
        return tracer.counts.get((trace_id, name), 0.0)

    def share(num, den):
        return num / den if den else 0.0

    out["rl.ppo_update.minibatches"] = float(
        tracer.child_calls(trace_id, "rl.ppo_update", "rl.batch_log_probs"))
    out["rl.sparsify.noop_share"] = share(count("rl.sparsify.noop"),
                                          out["rl.sparsify.calls"])
    episodes = count("rl.train_unlearner.episodes")
    out["rl.train_unlearner.episodes"] = episodes
    out["rl.train_unlearner.env_steps"] = count("rl.train_unlearner.env_steps")
    out["rl.train_unlearner.early_end_share"] = share(
        count("rl.train_unlearner.early_ends"), episodes)
    for name in ("nn.loss_and_grads.samples", "federation.run_rounds.rounds",
                 "cli.save_history.bytes", "nn.save_model.bytes", "nn.load_model.bytes"):
        out[name] = count(name)
    return out
