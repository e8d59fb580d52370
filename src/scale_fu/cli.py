"""`scale` command line front end.

Four subcommands cover the pipeline: `train` fits a federated model and
persists the run directory, `unlearn` produces an unlearned model per
method, `eval` scores every method against the retrained gold standard,
and `theory` runs the claim oracles. Artifacts are stamped with the
config hash so cross-run comparisons fail loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, data, federation, metrics, nn, rl, sensitivity, theory
from .aoi import partition_groups
from .config import (
    ConfigError,
    RunDir,
    TAG_DATA,
    TAG_FEDERATION,
    TAG_INIT,
    TAG_PARTITION,
    TAG_PPO,
    TAG_REQUEST,
    build_request,
    component_seed,
    config_hash,
    load_config,
    ppo_config,
    validate_config,
    write_csv,
)
from .data import UnlearnRequest

METHODS = ("scale", "retrain", "uniform", "grad_ascent")

COMPARISON_COLUMNS = ["method", "ra", "d_ra", "fa", "d_fa", "fr", "mean_aoi", "comm_ct"]


class CliError(ValueError):
    pass


# --- deterministic pipeline pieces, shared across subcommands


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


def build_fed_config(cfg: dict) -> federation.FedConfig:
    fed = cfg["federation"]
    return federation.FedConfig(
        n_clients=fed["n_clients"],
        rounds=fed["rounds"],
        local_epochs=fed["local_epochs"],
        eta=fed["eta"],
        clients_per_round=fed["clients_per_round"],
        batch_size=fed["batch_size"],
        seed=component_seed(cfg["seeds"]["master"], TAG_FEDERATION),
    )


def parse_request_string(text: str, cfg: dict, seed: int) -> tuple[dict, UnlearnRequest]:
    """`client:<n>`, `class:<n>:<c1,c2>` or `sample:<n>:<frac>` into a
    request block and the matching UnlearnRequest."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "client" and len(parts) == 2:
            block = {"granularity": "client", "clients": [int(parts[1])],
                     "class_set": [], "sample_fraction": 0.3}
        elif kind == "class" and len(parts) == 3:
            classes = [int(c) for c in parts[2].split(",") if c]
            block = {"granularity": "class", "clients": [int(parts[1])],
                     "class_set": classes, "sample_fraction": 0.3}
        elif kind == "sample" and len(parts) == 3:
            block = {"granularity": "sample", "clients": [int(parts[1])],
                     "class_set": [], "sample_fraction": float(parts[2])}
        else:
            raise CliError(
                f"bad request {text!r}; expected client:<n>, "
                "class:<n>:<c1,c2> or sample:<n>:<frac>"
            )
    except ValueError as err:
        raise CliError(f"bad request {text!r}: {err}") from err
    probe = dict(cfg)
    probe["request"] = block
    validate_config(probe)
    req = UnlearnRequest(
        granularity=block["granularity"],
        clients=tuple(block["clients"]),
        class_set=tuple(block["class_set"]),
        sample_fraction=block["sample_fraction"],
        seed=component_seed(seed, TAG_REQUEST),
    )
    return block, req


def request_string(block: dict) -> str:
    n = block["clients"][0]
    if block["granularity"] == "client":
        return f"client:{n}"
    if block["granularity"] == "class":
        return f"class:{n}:{','.join(str(c) for c in block['class_set'])}"
    return f"sample:{n}:{block['sample_fraction']}"


# --- history persistence (latest upload per client, flat layer blobs)


def save_history(rd: RunDir, history: federation.FederationHistory, h: str) -> None:
    rd.history_dir.mkdir(parents=True, exist_ok=True)
    for c in history.clients():
        blob = b"".join(p.astype("<f8").tobytes() for p in history.models[c])
        rd.history_model_path(c).write_bytes(blob)
    meta = {
        "clients": history.clients(),
        "sizes": {str(c): history.sizes[c] for c in history.clients()},
        "last_round": {str(c): history.last_round[c] for c in history.clients()},
        "config_hash": h,
    }
    rd.history_meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_history(rd: RunDir, model: nn.Model) -> federation.FederationHistory:
    if not rd.history_meta_path.exists():
        raise CliError(
            f"no training history under {rd.history_dir}; run `scale train` first"
        )
    meta = json.loads(rd.history_meta_path.read_text())
    history = federation.FederationHistory()
    dims = model.layer_dims()
    for c in meta["clients"]:
        raw = np.frombuffer(rd.history_model_path(c).read_bytes(), dtype="<f8")
        if raw.size != sum(dims):
            raise CliError(f"history blob for client {c} does not match the model")
        params, off = [], 0
        for d in dims:
            params.append(raw[off : off + d].astype(np.float64))
            off += d
        history.record(c, params, meta["sizes"][str(c)], meta["last_round"][str(c)])
    return history


def _load_global(rd: RunDir) -> tuple[nn.Model, dict]:
    if not rd.global_model_path.exists():
        raise CliError(f"no global.model under {rd.root}; run `scale train` first")
    manifest = nn.load_manifest(rd.manifest_path)
    return nn.load_model(rd.global_model_path, manifest), manifest


# --- train


def cmd_train(config_path: str, out_dir: str) -> RunDir:
    cfg = load_config(config_path)
    rd = RunDir(out_dir).ensure()
    h = rd.write_config(cfg)

    ds = build_dataset(cfg)
    part = build_partition(cfg, ds)
    model0 = build_model0(cfg, ds)
    fed_cfg = build_fed_config(cfg)
    model, history, rounds = federation.run_rounds(fed_cfg, part, ds, model0)

    nn.save_model(model, rd.global_model_path)
    manifest = nn.model_manifest(
        model, seed=component_seed(cfg["seeds"]["master"], TAG_INIT), config_hash=h
    )
    nn.save_manifest(manifest, rd.manifest_path)
    save_history(rd, history, h)
    write_csv(
        rd.rounds_path,
        ["round", "participants", "loss", "acc"],
        [
            [r.round, " ".join(str(p) for p in r.participants), repr(r.loss), repr(r.accuracy)]
            for r in rounds
        ],
        h,
    )
    rd.partition_path.write_text(
        json.dumps(
            {
                "indices": [idx.tolist() for idx in part.indices],
                "config_hash": h,
            },
            sort_keys=True,
        )
        + "\n"
    )
    return rd


# --- unlearn


def _write_meta(rd: RunDir, method: str, h: str, **fields) -> None:
    payload = {"method": method, "config_hash": h, **fields}
    path = rd.method_dir(method) / "unlearn_meta.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_meta(rd: RunDir, method: str) -> dict:
    path = rd.method_dir(method) / "unlearn_meta.json"
    if not path.exists():
        raise CliError(f"no unlearn artifacts for {method!r}; run `scale unlearn` first")
    return json.loads(path.read_text())


def _persist_request(rd: RunDir, block: dict, seed: int, h: str) -> None:
    payload = {
        "request": block,
        "string": request_string(block),
        "seed": seed,
        "config_hash": h,
    }
    if rd.request_path.exists():
        prior = json.loads(rd.request_path.read_text())
        if prior != payload:
            raise CliError(
                "request.json already pins a different request for this run; "
                "methods under one run directory must share the request"
            )
        return
    rd.request_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _unlearn_scale(rd, cfg, h, model, split, seed: int) -> None:
    history = load_history(rd, model)
    sc = cfg["scale"]
    target = cfg["request"]["clients"][0]
    report = sensitivity.analyze(
        history,
        model.params,
        target,
        lam=sc["lam"],
        m_sel=sc["m_sel"],
        scheme=sc["dist_scheme"],
    )
    idx = partition_groups(model, report.selected, sc["groups_per_layer"])
    cfg_ppo = ppo_config(cfg)
    result = rl.train_unlearner(model, report, idx, cfg_ppo, component_seed(seed, TAG_PPO))
    deployed = rl.deploy(result.policy, model, report, idx, cfg_ppo, sc["deploy_steps"])

    mdir = rd.method_dir("scale")
    mdir.mkdir(parents=True, exist_ok=True)
    sensitivity.write_sensitivity_csv(report, mdir / "sensitivity.csv", config_hash=h)
    write_csv(
        mdir / "ppo_rewards.csv",
        ["episode", "total_reward", "r_f_sum", "r_c_sum"],
        [[e.episode, repr(e.total_reward), repr(e.r_f_sum), repr(e.r_c_sum)]
         for e in result.episodes],
        h,
    )
    write_csv(
        mdir / "aoi_timeseries.csv",
        ["step", "sum_aoi", "mean_aoi", "max_aoi"],
        [[step, repr(s), repr(m), repr(x)] for step, s, m, x in deployed.aoi_rows],
        h,
    )
    with open(mdir / "actions.jsonl", "w") as fh:
        fh.write(json.dumps({"config_hash": h}, sort_keys=True) + "\n")
        for row in deployed.action_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    nn.save_model(deployed.model, rd.unlearned_model_path("scale"))
    _write_meta(
        rd, "scale", h,
        seed=seed,
        steps=deployed.steps,
        selected_layers=[int(l) for l in report.selected],
    )


def _unlearn_retrain(rd, cfg, h, ds, part, split, seed: int) -> None:
    model0 = build_model0(cfg, ds)
    fed_cfg = build_fed_config(cfg)
    model, rounds = federation.retrain_baseline(fed_cfg, part, ds, split, model0)
    mdir = rd.method_dir("retrain")
    mdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        mdir / "rounds.csv",
        ["round", "participants", "loss", "acc"],
        [
            [r.round, " ".join(str(p) for p in r.participants), repr(r.loss), repr(r.accuracy)]
            for r in rounds
        ],
        h,
    )
    nn.save_model(model, rd.unlearned_model_path("retrain"))
    _write_meta(rd, "retrain", h, seed=seed, steps=fed_cfg.rounds)


def _unlearn_uniform(rd, cfg, h, model, seed: int) -> None:
    scale_path = rd.unlearned_model_path("scale")
    if not scale_path.exists():
        raise CliError(
            "uniform matches the zeroed-parameter budget of the scale run; "
            "run `scale unlearn --method scale` first"
        )
    manifest = nn.load_manifest(rd.manifest_path)
    scale_model = nn.load_model(scale_path, manifest)
    budget = baselines.newly_zeroed(model, scale_model)
    out = baselines.baseline_uniform(model, budget, cfg["scale"]["groups_per_layer"])
    rd.method_dir("uniform").mkdir(parents=True, exist_ok=True)
    nn.save_model(out, rd.unlearned_model_path("uniform"))
    _write_meta(rd, "uniform", h, seed=seed, steps=1, budget=budget)


def _unlearn_grad_ascent(rd, cfg, h, model, ds, split, seed: int) -> None:
    X_u, y_u = data.client_view(ds, split.forget)
    bl = cfg["baselines"]
    result = baselines.baseline_grad_ascent(model, X_u, y_u, bl["grad_steps"], bl["grad_eta"])
    mdir = rd.method_dir("grad_ascent")
    mdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        mdir / "ascent_log.csv",
        ["step", "loss", "norm", "projected"],
        [[s.step, repr(s.loss), repr(s.norm), int(s.projected)] for s in result.steps],
        h,
    )
    nn.save_model(result.model, rd.unlearned_model_path("grad_ascent"))
    _write_meta(
        rd, "grad_ascent", h,
        seed=seed,
        steps=len(result.steps),
        halted=result.halted,
        halt_reason=result.halt_reason,
    )
    if result.halted:
        print(f"grad_ascent halted early: {result.halt_reason}", file=sys.stderr)


def cmd_unlearn(run_dir: str, method: str, request: str, seed: int | None = None) -> None:
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    rd = RunDir(run_dir)
    cfg, h = rd.read_config()
    if seed is None:
        seed = cfg["seeds"]["master"]
    block, req = parse_request_string(request, cfg, seed)
    cfg = dict(cfg)
    cfg["request"] = block

    ds = build_dataset(cfg)
    part = build_partition(cfg, ds)
    split = data.build_split(ds, part, req)
    model, _ = _load_global(rd)
    _persist_request(rd, block, seed, h)

    if method == "scale":
        _unlearn_scale(rd, cfg, h, model, split, seed)
    elif method == "retrain":
        _unlearn_retrain(rd, cfg, h, ds, part, split, seed)
    elif method == "uniform":
        _unlearn_uniform(rd, cfg, h, model, seed)
    else:
        _unlearn_grad_ascent(rd, cfg, h, model, ds, split, seed)


# --- eval


def _read_actions(path: Path, h: str, force: bool) -> list[dict]:
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "config_hash" not in lines[0]:
        raise CliError(f"{path}: missing config hash header")
    if lines[0]["config_hash"] != h and not force:
        raise CliError(f"{path}: config hash mismatch (use --force to override)")
    return lines[1:]


def _touch_all_rows(idx, steps: int) -> list[dict]:
    rows = []
    for t in range(1, steps + 1):
        for layer, ranges in zip(idx.layers, idx.ranges):
            rows.append({"step": t, "layer": int(layer),
                         "groups": list(range(len(ranges))), "s": 1.0})
    return rows


def _method_accounting(rd: RunDir, cfg: dict, h: str, method: str, meta: dict,
                       model: nn.Model, force: bool) -> tuple[list[dict], object, int]:
    """(action rows, group index, horizon) driving AoI and C_t replay."""
    G = cfg["scale"]["groups_per_layer"]
    steps = int(meta["steps"])
    if method == "scale":
        idx = partition_groups(model, [int(l) for l in meta["selected_layers"]], G)
        rows = _read_actions(rd.method_dir("scale") / "actions.jsonl", h, force)
        return rows, idx, max(steps, 1)
    idx = baselines.full_group_index(model, G)
    if method == "uniform":
        # one burst at step 1, then the model sits untouched for the horizon
        return _touch_all_rows(idx, 1), idx, max(cfg["scale"]["deploy_steps"], 1)
    # retrain and grad_ascent refresh every parameter each step
    return _touch_all_rows(idx, steps), idx, max(steps, 1)


def cmd_eval(run_dir: str, methods: list[str], force: bool = False) -> list[metrics.EvalReport]:
    for m in methods:
        if m not in METHODS:
            raise CliError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if "retrain" not in methods:
        raise CliError("eval needs the retrain gold standard for delta columns")
    rd = RunDir(run_dir)
    cfg, h = rd.read_config()
    if not rd.request_path.exists():
        raise CliError("no request.json; run `scale unlearn` first")
    req_payload = json.loads(rd.request_path.read_text())
    if req_payload["config_hash"] != h and not force:
        raise CliError("request.json config hash mismatch (use --force to override)")
    cfg = dict(cfg)
    cfg["request"] = req_payload["request"]
    scenario = req_payload["string"]
    unlearn_seed = int(req_payload["seed"])

    ds = build_dataset(cfg)
    part = build_partition(cfg, ds)
    req = UnlearnRequest(
        granularity=cfg["request"]["granularity"],
        clients=tuple(cfg["request"]["clients"]),
        class_set=tuple(cfg["request"]["class_set"]),
        sample_fraction=cfg["request"]["sample_fraction"],
        seed=component_seed(unlearn_seed, TAG_REQUEST),
    )
    split = data.build_split(ds, part, req)
    original, manifest = _load_global(rd)
    X_r, y_r = data.client_view(ds, split.remain)
    X_f, y_f = data.client_view(ds, split.forget)
    met = cfg["metrics"]

    reports = []
    for method in methods:
        meta = read_meta(rd, method)
        if meta["config_hash"] != h and not force:
            raise CliError(
                f"{method}: unlearn artifacts carry a different config hash "
                "(use --force to override)"
            )
        model = nn.load_model(rd.unlearned_model_path(method), manifest)
        rows, idx, horizon = _method_accounting(rd, cfg, h, method, meta, original, force)
        comm = metrics.comm_overhead(
            rows, idx, met["alpha_w"], met["beta_w"], met["secs_per_step"],
            horizon=horizon,
        )
        report = metrics.EvalReport(
            method=method,
            scenario=scenario,
            ra=metrics.remaining_accuracy(model, X_r, y_r),
            fa=metrics.forgetting_accuracy(model, X_f, y_f),
            fr=metrics.forgetting_rate(original, model, X_f, y_f),
            comm_ct=comm["comm_ct"],
            mean_aoi_steps=comm["mean_aoi_steps"],
            mean_aoi_secs=comm["mean_aoi_secs"],
            wall_secs=int(meta["steps"]) * met["secs_per_step"],
            seed=int(meta["seed"]),
            aoi_sum_series=comm["aoi_series"],
            comm_cost=comm["cost"],
        )
        metrics.write_metrics_json(report, rd.metrics_path(method), h)
        reports.append(report)

    gold = next(r for r in reports if r.method == "retrain")
    rows_out = [
        [
            r.method,
            repr(r.ra), repr(r.ra - gold.ra),
            repr(r.fa), repr(r.fa - gold.fa),
            repr(r.fr),
            repr(r.mean_aoi_steps),
            repr(r.comm_ct),
        ]
        for r in reports
    ]
    write_csv(rd.comparison_path, COMPARISON_COLUMNS, rows_out, h)
    return reports


# --- theory


def cmd_theory(samples: int = 100_000, aoi_paper_literal: bool = False,
               out_path: str = "theory_report.json") -> int:
    form = theory.FORM_ASSUMPTION if aoi_paper_literal else theory.FORM_PROOF
    reports = theory.run_all(samples=samples, form=form)
    theory.write_theory_report(reports, out_path)
    for r in reports:
        print(f"{r.claim_id}: {r.status}")
    return 1 if theory.has_failures(reports) else 0


# --- argparse plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scale", description="Federated unlearning simulator")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train the federated model")
    t.add_argument("--config", required=True, help="path to config JSON")
    t.add_argument("--out", required=True, help="run directory to create")

    u = sub.add_parser("unlearn", help="unlearn by one method")
    u.add_argument("--run", required=True, help="trained run directory")
    u.add_argument("--method", required=True, choices=METHODS)
    u.add_argument("--request", required=True,
                   help="client:<n> | class:<n>:<c1,c2> | sample:<n>:<frac>")
    u.add_argument("--seed", type=int, default=None)

    e = sub.add_parser("eval", help="score unlearned models")
    e.add_argument("--run", required=True)
    e.add_argument("--methods", required=True,
                   help="comma-separated subset of scale,retrain,uniform,grad_ascent")
    e.add_argument("--force", action="store_true",
                   help="allow config-hash mismatches between artifacts")

    th = sub.add_parser("theory", help="run the claim oracles")
    th.add_argument("--samples", type=int, default=100_000)
    th.add_argument("--aoi-paper-literal", action="store_true",
                    help="use the source text's stated freshness form")
    th.add_argument("--out", default="theory_report.json")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            rd = cmd_train(args.config, args.out)
            print(f"run directory ready: {rd.root}")
            return 0
        if args.command == "unlearn":
            cmd_unlearn(args.run, args.method, args.request, args.seed)
            print(f"unlearned model written: {args.method}")
            return 0
        if args.command == "eval":
            reports = cmd_eval(args.run, [m for m in args.methods.split(",") if m], args.force)
            for r in reports:
                print(f"{r.method}: ra={r.ra:.4f} fa={r.fa:.4f} fr={r.fr:.4f}")
            return 0
        return cmd_theory(args.samples, args.aoi_paper_literal, args.out)
    except (CliError, ConfigError, nn.ShapeError, nn.NumericError, data.DataError,
            data.PartitionError, data.RequestError, federation.FederationError,
            sensitivity.SensitivityError, rl.RlError, metrics.MetricsError,
            baselines.BaselineError, theory.TheoryError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
