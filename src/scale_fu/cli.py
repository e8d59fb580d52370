"""`scale` command line front end.

Four subcommands cover the pipeline: `train` fits a federated model and
persists the run directory, `unlearn` produces an unlearned model per
method, `eval` scores every method against the retrained gold standard,
and `theory` runs the claim oracles. A command only reads its run
directory, checks what it read and writes what a `pipeline` stage computed
from it. `train` needs a new or empty run directory. Every artifact carries
the run's config hash, written and checked by `config.RunDir`, so a file
edited or copied from another run fails loudly, naming the file.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import asdict

from . import baselines, data, federation, metrics, nn, pipeline, rl, sensitivity, theory
from .aoi import AoiError, GroupIndex
from .config import (
    ConfigError,
    RunDir,
    TAG_INIT,
    TAG_REQUEST,
    component_seed,
    load_config,
    require_keys,
    write_csv,
)
from .data import RequestError, UnlearnRequest, is_index
# `scale_fu.cli.build_dataset` and `build_partition` stay importable for
# perfbench/setup_probe.py, which times the set-up every command pays
from .pipeline import build_dataset, build_partition  # noqa: F401

METHODS = ("scale", "retrain", "uniform", "grad_ascent")

COMPARISON_COLUMNS = ["method", "ra", "d_ra", "fa", "d_fa", "fr", "mean_aoi", "comm_ct"]


class CliError(ValueError):
    pass


# --- run-directory reads


def read_request(rd: RunDir) -> UnlearnRequest:
    """The request that request.json pins, with the sampling seed of its
    unlearn run. A file that holds a bad seed or request string raises a
    CliError naming it."""
    path = rd.request_path
    if not path.exists():
        raise CliError("no request.json; run `scale unlearn` first")
    payload = rd.read_json(path, "string", "seed")
    if not is_index(payload["seed"]):
        raise CliError(f"{path}: seed {payload['seed']!r} is not a non-negative integer")
    try:
        return UnlearnRequest.parse(payload["string"],
                                    component_seed(payload["seed"], TAG_REQUEST))
    except RequestError as err:
        raise CliError(f"{path}: {err}") from err


# --- history persistence (latest upload per client, flat layer blobs)


def save_history(rd: RunDir, history: federation.FederationHistory) -> None:
    rd.history_dir.mkdir(parents=True, exist_ok=True)
    for c in history.clients():
        nn.write_blob(history.models[c], rd.history_model_path(c))
    meta = {
        "clients": history.clients(),
        "sizes": {str(c): history.sizes[c] for c in history.clients()},
        "last_round": {str(c): history.last_round[c] for c in history.clients()},
    }
    rd.write_json(rd.history_meta_path, meta)


def load_history(rd: RunDir, model: nn.Model) -> federation.FederationHistory:
    path = rd.history_meta_path
    if not path.exists():
        raise CliError(f"no training history under {rd.history_dir}; run `scale train` first")
    meta = rd.read_json(path, "clients", "sizes", "last_round")
    clients = meta["clients"]
    if not isinstance(clients, list) or not all(is_index(c) for c in clients):
        raise CliError(f"{path}: clients {clients!r} are not a list of client ids")
    keys = [str(c) for c in clients]
    sizes = require_keys(meta["sizes"], f"{path} sizes", *keys)
    rounds = require_keys(meta["last_round"], f"{path} last_round", *keys)
    if not all(is_index(sizes[k]) and sizes[k] > 0 for k in keys):
        raise CliError(f"{path}: sizes {sizes!r} are not positive integers")
    if not all(is_index(rounds[k]) for k in keys):
        raise CliError(f"{path}: last_round {rounds!r} are not non-negative integers")
    history = federation.FederationHistory()
    for c, k in zip(clients, keys):
        params = nn.read_blob(rd.history_model_path(c), model.layer_dims())
        history.record(c, params, sizes[k], rounds[k])
    return history


def _load_global(rd: RunDir, cfg: dict, ds: data.Dataset) -> nn.Model:
    """The global model, in the architecture that `cfg` builds for `ds`."""
    if not rd.global_model_path.exists():
        raise CliError(f"no global.model under {rd.root}; run `scale train` first")
    return nn.load_model(rd.global_model_path, pipeline.build_model0(cfg, ds))


# --- train


def _rounds_table(rounds: list[federation.RoundLog]) -> tuple[list[str], list[list]]:
    """One row per FedAvg round: participants, mean loss and accuracy."""
    return ["round", "participants", "loss", "acc"], [
        [r.round, " ".join(str(p) for p in r.participants), repr(r.loss), repr(r.accuracy)]
        for r in rounds
    ]


def cmd_train(config_path: str, out_dir: str) -> RunDir:
    cfg = load_config(config_path)
    rd = RunDir(out_dir).create()
    rd.write_config(cfg)
    part, model, history, rounds = pipeline.train(cfg)

    nn.save_model(model, rd.global_model_path)
    seed = component_seed(cfg["seeds"]["master"], TAG_INIT)
    rd.write_json(rd.manifest_path, nn.model_manifest(model, seed=seed))
    save_history(rd, history)
    write_csv(rd, rd.rounds_path, *_rounds_table(rounds))
    rd.write_json(rd.partition_path, {"indices": [idx.tolist() for idx in part.indices]},
                  indent=None)
    return rd


# --- unlearn


def read_meta(rd: RunDir, method: str) -> dict:
    """A method's unlearn_meta.json, holding the keys eval reads."""
    path = rd.method_dir(method) / "unlearn_meta.json"
    if not path.exists():
        raise CliError(f"no unlearn artifacts for {method!r}; run `scale unlearn` first")
    scale_keys = ("selected_layers",) if method == "scale" else ()
    meta = rd.read_json(path, "steps", "seed", *scale_keys)
    for key in ("steps", "seed"):
        if not is_index(meta[key]):
            raise CliError(f"{path}: {key} {meta[key]!r} is not a non-negative integer")
    return meta


def _scale_tables(res: pipeline.ScaleResult) -> dict[str, tuple[list[str], list[list]]]:
    """A scale run's CSV tables, (header, rows) by file name."""
    report, chosen = res.report, set(res.report.selected)
    return {
        "sensitivity.csv": (
            ["layer", "rho", "s_align", "s_impact", "s_combined", "selected"],
            [[l, repr(float(report.rho[l])), repr(float(report.s_align[l])),
              repr(float(report.s_impact[l])), repr(float(report.s_combined[l])),
              int(l in chosen)]
             for l in range(report.n_layers)]),
        "ppo_rewards.csv": (
            ["episode", "total_reward", "r_f_sum", "r_c_sum"],
            [[e.episode, repr(e.total_reward), repr(e.r_f_sum), repr(e.r_c_sum)]
             for e in res.trained.episodes]),
        "aoi_timeseries.csv": (
            ["step", "sum_aoi", "mean_aoi", "max_aoi"],
            [[step, repr(s), repr(m), repr(x)] for step, s, m, x in res.deployed.aoi_rows]),
    }


def cmd_unlearn(run_dir: str, method: str, request: str, seed: int | None = None) -> None:
    if method not in METHODS:
        raise CliError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    rd = RunDir(run_dir)
    cfg = rd.read_config()
    if seed is None:
        seed = cfg["seeds"]["master"]
    if not is_index(seed):
        raise CliError(f"--seed {seed} is not a non-negative integer")
    req = UnlearnRequest.parse(request, component_seed(seed, TAG_REQUEST))
    ds, part, split = pipeline.rebuild_split(cfg, req)
    model = _load_global(rd, cfg, ds)
    pin = {"string": req.describe(), "seed": seed}
    if rd.request_path.exists():
        prior = rd.read_json(rd.request_path, *pin)
        if any(prior[key] != value for key, value in pin.items()):
            raise CliError(
                "request.json already pins a different request for this run; "
                "methods under one run directory must share the request"
            )

    if method == "scale":
        res = pipeline.unlearn_scale(cfg, model, load_history(rd, model), req, seed)
        out, tables = res.deployed.model, _scale_tables(res)
        meta = {"steps": res.deployed.steps,
                "selected_layers": [int(l) for l in res.report.selected]}
    elif method == "retrain":
        out, rounds = pipeline.unlearn_retrain(cfg, ds, part, split)
        tables, meta = {"rounds.csv": _rounds_table(rounds)}, {"steps": len(rounds)}
    elif method == "uniform":
        scale_path = rd.unlearned_model_path("scale")
        if not scale_path.exists():
            raise CliError(
                "uniform matches the zeroed-parameter budget of the scale run; "
                "run `scale unlearn --method scale` first"
            )
        out, budget = pipeline.unlearn_uniform(cfg, model, nn.load_model(scale_path, model))
        tables, meta = {}, {"steps": 1, "budget": budget}
    else:
        res = pipeline.unlearn_grad_ascent(cfg, model, ds, split)
        out = res.model
        tables = {"ascent_log.csv": (
            ["step", "loss", "norm", "projected"],
            [[s.step, repr(s.loss), repr(s.norm), int(s.projected)] for s in res.steps])}
        meta = {"steps": len(res.steps), "halted": res.halted, "halt_reason": res.halt_reason}

    # the pin is written only once the method has computed, before its artifacts
    if not rd.request_path.exists():
        rd.write_json(rd.request_path, pin)
    mdir = rd.method_dir(method)
    mdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(rd, mdir / name, header, rows)
    if method == "scale":
        rd.write_jsonl(mdir / "actions.jsonl", res.deployed.action_rows)
    nn.save_model(out, rd.unlearned_model_path(method))
    rd.write_json(mdir / "unlearn_meta.json", {"method": method, "seed": seed, **meta})
    if method == "grad_ascent" and res.halted:
        print(f"grad_ascent halted early: {res.halt_reason}", file=sys.stderr)


# --- eval


def _check_action(row, idx, horizon: int, source: str) -> dict:
    """`row`, an action read from `source`, checked to name a step in 1 to
    `horizon`, a layer of `idx` and group ids of that layer; otherwise a
    CliError names `source`."""
    require_keys(row, source, "step", "layer", "groups")
    step, layer, groups = row["step"], row["layer"], row["groups"]
    if not is_index(step) or step < 1:
        raise CliError(f"{source}: step {step!r} is not a positive integer")
    if step > horizon:
        raise CliError(f"{source}: step {step} is past unlearn_meta.json's "
                       f"{horizon} steps")
    if not is_index(layer) or layer not in idx.layers:
        raise CliError(f"{source}: layer {layer!r} is not a selected layer {list(idx.layers)}")
    n = idx.n_groups(layer)
    if not isinstance(groups, list) or not all(is_index(j) and j < n for j in groups):
        raise CliError(f"{source}: groups {groups!r} are not group ids of layer {layer} "
                       f"(0 to {n - 1})")
    return row


def _read_actions(rd: RunDir, cfg: dict, meta: dict,
                  model: nn.Model) -> tuple[list[dict], GroupIndex]:
    """scale's deployed action rows, each checked against the parameter
    groups of the layers its unlearn_meta.json selected, and those groups."""
    mdir = rd.method_dir("scale")
    selected = meta["selected_layers"]
    if not isinstance(selected, list) or not selected or not all(
        is_index(l) and l < model.num_layers for l in selected
    ):
        raise CliError(f"{mdir / 'unlearn_meta.json'}: selected_layers {selected!r} "
                       f"are not layers of the model (0 to {model.num_layers - 1})")
    idx = pipeline.scale_groups(cfg, model, selected)
    horizon = max(meta["steps"], 1)
    return [_check_action(row, idx, horizon, source)
            for source, row in rd.read_jsonl(mdir / "actions.jsonl")], idx


def cmd_eval(run_dir: str, methods: list[str]) -> list[metrics.EvalReport]:
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise CliError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if m in methods[:i]:
            raise CliError(f"method {m!r} is given twice; name each method once")
    if "retrain" not in methods:
        raise CliError("eval needs the retrain gold standard for delta columns")
    rd = RunDir(run_dir)
    cfg = rd.read_config()
    req = read_request(rd)
    ds, _, split = pipeline.rebuild_split(cfg, req)
    original = _load_global(rd, cfg, ds)

    runs, scale_actions = {}, None
    for method in methods:
        meta = read_meta(rd, method)
        model = nn.load_model(rd.unlearned_model_path(method), original)
        runs[method] = (model, meta["steps"], meta["seed"])
        if method == "scale":
            scale_actions = _read_actions(rd, cfg, meta, original)
    reports = pipeline.evaluate(cfg, req, ds, split, original, runs, scale_actions)

    for report in reports:
        rd.write_json(rd.metrics_path(report.method), asdict(report))
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
    write_csv(rd, rd.comparison_path, COMPARISON_COLUMNS, rows_out)
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


# --- process set-up

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> None:
    """Ask glibc to keep freed memory in the process: do not trim the heap
    below 1 GiB free, and serve blocks under 32 MiB from the heap. A training
    step frees about 1 MB and allocates it again; with glibc's defaults every
    array of 128 KB or more is a fresh mmap, paid for in page faults. A silent
    no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


# --- argparse plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scale", description="Federated unlearning simulator")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train the federated model")
    t.add_argument("--config", required=True, help="path to config JSON")
    t.add_argument("--out", required=True, help="run directory to create (new or empty)")

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

    th = sub.add_parser("theory", help="run the claim oracles")
    th.add_argument("--samples", type=int, default=100_000)
    th.add_argument("--aoi-paper-literal", action="store_true",
                    help="use the source text's stated freshness form")
    th.add_argument("--out", default="theory_report.json")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_heap()
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
            reports = cmd_eval(args.run, [m for m in args.methods.split(",") if m])
            for r in reports:
                print(f"{r.method}: ra={r.ra:.4f} fa={r.fa:.4f} fr={r.fr:.4f}")
            return 0
        return cmd_theory(args.samples, args.aoi_paper_literal, args.out)
    except (CliError, ConfigError, nn.ShapeError, nn.NumericError, data.DataError,
            data.PartitionError, data.RequestError, federation.FederationError, AoiError,
            sensitivity.SensitivityError, rl.RlError, metrics.MetricsError,
            baselines.BaselineError, theory.TheoryError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
