"""The pipeline's stages, as functions of the config and in-memory inputs.

`train` fits the federated model; `unlearn_scale`, `unlearn_retrain`,
`unlearn_uniform` and `unlearn_grad_ascent` each compute one method's
unlearned model; `evaluate` scores the methods against the retrain gold
standard. No stage reads or writes a file: `cli` reads a run directory,
checks what it read, calls a stage and writes what the stage returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import aoi, baselines, data, federation, metrics, nn, rl, sensitivity
from .config import (TAG_DATA, TAG_INIT, TAG_PARTITION, TAG_PPO, component_seed, fed_config,
                     ppo_config)


def build_dataset(cfg: dict) -> data.Dataset:
    blk = cfg["dataset"]
    if blk["source"] == "synthetic":
        seed = component_seed(cfg["seeds"]["master"], TAG_DATA)
        return data.gen_synthetic(
            blk["classes"], blk["dim"], blk["per_class"], blk["spread"], seed
        )
    return data.load_idx(blk["images_path"], blk["labels_path"])


def build_partition(cfg: dict, ds: data.Dataset) -> data.ClientPartition:
    seed = component_seed(cfg["seeds"]["master"], TAG_PARTITION)
    return data.dirichlet_partition(
        ds, cfg["federation"]["n_clients"], cfg["federation"]["dirichlet_alpha"], seed
    )


def build_model0(cfg: dict, ds: data.Dataset) -> nn.Model:
    seed = component_seed(cfg["seeds"]["master"], TAG_INIT)
    return nn.make_model(
        cfg["model"]["arch"],
        int(ds.inputs.shape[1]),
        ds.num_classes,
        seed,
        hidden=tuple(cfg["model"]["hidden"]),
    )


def rebuild_split(
    cfg: dict, req: data.UnlearnRequest
) -> tuple[data.Dataset, data.ClientPartition, data.ForgetSplit]:
    """The dataset, client partition and forget split of `req` under `cfg`,
    rebuilt from their seeds."""
    ds = build_dataset(cfg)
    part = build_partition(cfg, ds)
    return ds, part, data.build_split(ds, part, req)


def scale_groups(cfg: dict, model: nn.Model, layers) -> aoi.GroupIndex:
    """The parameter groups that SCALE acts on in `layers` of `model`."""
    return aoi.partition_groups(model, layers, cfg["scale"]["groups_per_layer"])


def train(cfg: dict) -> tuple[data.ClientPartition, nn.Model, federation.FederationHistory,
                              list[federation.RoundLog]]:
    """FedAvg from the seeded initial model: the partition, the global model,
    each client's last upload and one log per round."""
    ds = build_dataset(cfg)
    part = build_partition(cfg, ds)
    model, history, rounds = federation.run_rounds(fed_config(cfg), part, ds,
                                                   build_model0(cfg, ds))
    return part, model, history, rounds


@dataclass
class ScaleResult:
    """The scale stage's layer scores, its trained agent, the deployment and
    the (step, sum, mean, max) AoI rows replayed from its action log."""

    report: sensitivity.SensitivityReport
    trained: rl.TrainResult
    deployed: rl.DeployResult
    aoi_rows: list[tuple[int, float, float, float]]


def unlearn_scale(cfg: dict, model: nn.Model, history: federation.FederationHistory,
                  req: data.UnlearnRequest, seed: int) -> ScaleResult:
    """Layer sensitivity of `req`'s client, then a PPO sparsifier trained
    under `seed` on the selected layers and its greedy deployment."""
    sc = cfg["scale"]
    report = sensitivity.analyze(
        history,
        model.params,
        req.clients[0],
        lam=sc["lam"],
        m_sel=sc["m_sel"],
        scheme=sc["dist_scheme"],
    )
    idx = scale_groups(cfg, model, report.selected)
    cfg_ppo = ppo_config(cfg)
    trained = rl.train_unlearner(model, report, idx, cfg_ppo, component_seed(seed, TAG_PPO))
    deployed = rl.deploy(trained.policy, model, report, idx, cfg_ppo, sc["deploy_steps"])
    return ScaleResult(report, trained, deployed, metrics.replay_aoi(deployed.action_rows, idx))


def unlearn_retrain(cfg: dict, ds: data.Dataset, part: data.ClientPartition,
                    split: data.ForgetSplit) -> tuple[nn.Model, list[federation.RoundLog]]:
    """The gold standard: FedAvg from the initial model on the remain set."""
    return federation.retrain_baseline(fed_config(cfg), part, ds, split, build_model0(cfg, ds))


def unlearn_uniform(cfg: dict, model: nn.Model, scale_model: nn.Model) -> tuple[nn.Model, int]:
    """`model` pruned over all its groups by the budget of coordinates that
    the scale run zeroed, and that budget."""
    budget = baselines.newly_zeroed(model, scale_model)
    return baselines.baseline_uniform(model, budget, cfg["scale"]["groups_per_layer"]), budget


def unlearn_grad_ascent(cfg: dict, model: nn.Model, ds: data.Dataset,
                        split: data.ForgetSplit) -> baselines.AscentResult:
    """Projected gradient ascent on the forget set."""
    X_u, y_u = data.client_view(ds, split.forget)
    bl = cfg["baselines"]
    return baselines.baseline_grad_ascent(model, X_u, y_u, bl["grad_steps"], bl["grad_eta"])


def _touch_all(idx: aoi.GroupIndex, steps: int) -> list[dict]:
    """Action rows that send every group of `idx` at each of `steps` steps."""
    return [{"step": t, "layer": int(layer), "groups": list(range(len(ranges))), "s": 1.0}
            for t in range(1, steps + 1) for layer, ranges in zip(idx.layers, idx.ranges)]


def _accounting(cfg: dict, method: str, steps: int, original: nn.Model, scale_actions):
    """(action rows, group index, horizon) driving AoI and C_t replay."""
    if method == "scale":
        rows, idx = scale_actions
        return rows, idx, max(steps, 1)
    idx = scale_groups(cfg, original, range(original.num_layers))
    if method == "uniform":
        # one burst at step 1, then the model sits untouched for the horizon
        return _touch_all(idx, 1), idx, max(cfg["scale"]["deploy_steps"], 1)
    # retrain and grad_ascent refresh every parameter each step
    return _touch_all(idx, steps), idx, max(steps, 1)


def evaluate(cfg: dict, req: data.UnlearnRequest, ds: data.Dataset, split: data.ForgetSplit,
             original: nn.Model, runs: dict, scale_actions=None) -> list[metrics.EvalReport]:
    """One report per method of `runs`, in its order. `runs` maps a method
    to (unlearned model, steps, seed) of its unlearn; `scale_actions` holds
    scale's deployed action rows and the parameter groups they name."""
    X_r, y_r = data.client_view(ds, split.remain)
    X_f, y_f = data.client_view(ds, split.forget)
    secs_per_step = cfg["metrics"]["secs_per_step"]
    reports = []
    for method, (model, steps, seed) in runs.items():
        rows, idx, horizon = _accounting(cfg, method, steps, original, scale_actions)
        comm = metrics.comm_overhead(rows, idx, secs_per_step, horizon=horizon)
        reports.append(metrics.EvalReport(
            method=method,
            scenario=req.describe(),
            ra=metrics.accuracy(model, X_r, y_r),
            fa=metrics.accuracy(model, X_f, y_f),
            fr=metrics.forgetting_rate(original, model, X_f, y_f),
            comm_ct=comm["comm_ct"],
            mean_aoi_steps=comm["mean_aoi_steps"],
            mean_aoi_secs=comm["mean_aoi_secs"],
            wall_secs=steps * secs_per_step,
            seed=seed,
        ))
    return reports
