"""Experiment configuration and run-directory plumbing.

A config is a JSON document of named blocks. Validation is strict: unknown
keys are rejected with their full field path and values are type-checked.
A block consumed by a typed object (`scale.ppo` by PpoConfig, `federation`
by FedConfig) takes its range rules, and the PPO block its defaults, from
that object; the other blocks are range-checked here. The unlearning
request is not part of the config: it is the `--request` string, which
`data.UnlearnRequest` parses. The canonical serialization's SHA-256
identifies every artifact the run emits. Component seeds derive from the
master seed XOR a fixed per-component tag, so one master seed pins the
whole pipeline.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
from pathlib import Path

from . import nn
from .atomic import atomic_write, write_json
from .federation import FedConfig, FederationError
from .rl import PpoConfig

# component seed tags (master XOR tag)
TAG_DATA = 0x0101
TAG_PARTITION = 0x0202
TAG_INIT = 0x0303
TAG_FEDERATION = 0x0404
TAG_REQUEST = 0x0505
TAG_PPO = 0x0606


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG: dict = {
    "dataset": {
        "source": "synthetic",         # or "idx"
        "classes": 4,
        "dim": 16,
        "per_class": 100,
        "spread": 0.15,
        "images_path": "",
        "labels_path": "",
    },
    "model": {
        "arch": "mlp",                 # or "mini_cnn"
        "hidden": [64, 32],
    },
    "federation": {
        "n_clients": 8,
        "rounds": 30,
        "local_epochs": 2,
        "eta": 0.05,
        "clients_per_round": 8,
        "batch_size": 32,
        "dirichlet_alpha": 1.0,
    },
    "scale": {
        "lam": 0.5,
        "m_sel": None,                 # null -> ceil(L/3)
        "dist_scheme": "softmax",
        "groups_per_layer": 8,
        "deploy_steps": 32,
        "ppo": dataclasses.asdict(PpoConfig()),
    },
    "metrics": {
        "secs_per_step": 0.25,
    },
    "baselines": {
        "grad_steps": 10,
        "grad_eta": 0.01,
    },
    "seeds": {
        "master": 42,
    },
}


def _type_name(v) -> str:
    return type(v).__name__


def _is_int(v) -> bool:
    """An int that is not a bool (bool subclasses int in Python)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_value(path: str, value, template) -> None:
    if template is None:
        # nullable int slot (m_sel)
        if value is not None and not _is_int(value):
            raise ConfigError(f"{path}: expected an integer or null")
        return
    if isinstance(template, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {_type_name(value)}")
        return
    if isinstance(template, int):
        if not _is_int(value):
            raise ConfigError(f"{path}: expected an integer, got {_type_name(value)}")
        return
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {_type_name(value)}")
        return
    if isinstance(template, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {_type_name(value)}")
        return
    if isinstance(template, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {_type_name(value)}")
        return
    raise ConfigError(f"{path}: unsupported template type")


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = {}
    for key, d_val in defaults.items():
        path = f"{prefix}{key}"
        if key not in user:
            out[key] = copy.deepcopy(d_val)
        elif isinstance(d_val, dict):
            if not isinstance(user[key], dict):
                raise ConfigError(f"{path}: expected an object")
            out[key] = _merge(d_val, user[key], prefix=f"{path}.")
        else:
            _check_value(path, user[key], d_val)
            out[key] = copy.deepcopy(user[key])
    for key in user:
        if key not in defaults:
            raise ConfigError(f"unknown key: {prefix}{key}")
    return out


def _validate_ranges(cfg: dict) -> None:
    ds = cfg["dataset"]
    if ds["source"] not in ("synthetic", "idx"):
        raise ConfigError("dataset.source: must be 'synthetic' or 'idx'")
    if ds["source"] == "synthetic":
        if ds["classes"] < 2 or ds["dim"] < 1 or ds["per_class"] < 1:
            raise ConfigError("dataset: classes >= 2, dim >= 1, per_class >= 1")
        if ds["spread"] < 0:
            raise ConfigError("dataset.spread: must be >= 0")
    else:
        if not ds["images_path"] or not ds["labels_path"]:
            raise ConfigError("dataset: idx source needs images_path and labels_path")
    if cfg["model"]["arch"] not in (nn.ARCH_MLP, nn.ARCH_MINI_CNN):
        raise ConfigError(f"model.arch: unknown architecture {cfg['model']['arch']!r}")
    if len(cfg["model"]["hidden"]) != 2 or any(
        not _is_int(h) or h < 1 for h in cfg["model"]["hidden"]
    ):
        raise ConfigError("model.hidden: expected two positive integers")
    fed_config(cfg)
    if cfg["federation"]["dirichlet_alpha"] <= 0:
        raise ConfigError("federation.dirichlet_alpha: must be > 0")
    sc = cfg["scale"]
    if not 0.0 <= sc["lam"] <= 1.0:
        raise ConfigError("scale.lam: must be in [0, 1]")
    if sc["m_sel"] is not None and sc["m_sel"] < 1:
        raise ConfigError("scale.m_sel: must be >= 1 or null")
    if sc["dist_scheme"] not in ("softmax", "abs"):
        raise ConfigError("scale.dist_scheme: must be 'softmax' or 'abs'")
    if sc["groups_per_layer"] < 1 or sc["deploy_steps"] < 1:
        raise ConfigError("scale: groups_per_layer >= 1 and deploy_steps >= 1")
    if cfg["metrics"]["secs_per_step"] < 0:
        raise ConfigError("metrics.secs_per_step: must be non-negative")
    bl = cfg["baselines"]
    if bl["grad_steps"] < 0 or bl["grad_eta"] <= 0:
        raise ConfigError("baselines: grad_steps >= 0 and grad_eta > 0")
    if cfg["seeds"]["master"] < 0:
        raise ConfigError("seeds.master: must be non-negative")
    ppo_config(cfg)


def validate_config(user: dict) -> dict:
    """Merge over defaults, reject unknown keys, range-check, return merged."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    merged = _merge(DEFAULT_CONFIG, user)
    _validate_ranges(merged)
    return merged


def parse_json(text: str, source) -> object:
    """`json.loads(text)`; invalid JSON raises a ConfigError naming `source`,
    the file (or file and line) the text came from."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{source}: not valid JSON ({err})") from err


def read_json(path: str | Path) -> object:
    """The JSON value in the file at `path`, read through `parse_json`."""
    return parse_json(Path(path).read_text(), path)


def require_keys(payload, source, *keys) -> dict:
    """`payload`, a JSON value read from `source`, checked to be an object
    holding every key in `keys`; otherwise a ConfigError names `source` and
    the first missing key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{source}: not a JSON object")
    for key in keys:
        if key not in payload:
            raise ConfigError(f"{source}: missing key {key!r}")
    return payload


def load_config(path: str | Path) -> dict:
    return validate_config(read_json(path))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def component_seed(master: int, tag: int) -> int:
    return (master ^ tag) & 0xFFFFFFFF


def ppo_config(cfg: dict) -> PpoConfig:
    block = dict(cfg["scale"]["ppo"])
    try:
        return PpoConfig(**block)
    except ValueError as err:
        raise ConfigError(f"scale.ppo: {err}") from err


def fed_config(cfg: dict) -> FedConfig:
    """The FedConfig of `cfg["federation"]`, seeded from the master seed."""
    fed = cfg["federation"]
    try:
        return FedConfig(
            n_clients=fed["n_clients"],
            rounds=fed["rounds"],
            local_epochs=fed["local_epochs"],
            eta=fed["eta"],
            clients_per_round=fed["clients_per_round"],
            batch_size=fed["batch_size"],
            seed=component_seed(cfg["seeds"]["master"], TAG_FEDERATION),
        )
    except FederationError as err:
        raise ConfigError(f"federation: {err}") from err


# --- run directory --------------------------------------------------------------


class RunDir:
    """Path conventions for one experiment run, and the owner of its config
    hash stamp. Every stamped artifact is written and read back through the
    methods here (and `write_csv`), and one stamped with another hash is
    refused."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._hash: str | None = None

    @property
    def hash(self) -> str:
        """The run's config hash: set by `write_config`, else read from
        config.json on first use."""
        if self._hash is None:
            self.read_config()
        return self._hash

    # training phase
    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def global_model_path(self) -> Path:
        return self.root / "global.model"

    @property
    def rounds_path(self) -> Path:
        return self.root / "rounds.csv"

    @property
    def partition_path(self) -> Path:
        return self.root / "partition.json"

    @property
    def history_dir(self) -> Path:
        return self.root / "history"

    def history_model_path(self, client: int) -> Path:
        return self.history_dir / f"client_{client}.model"

    @property
    def history_meta_path(self) -> Path:
        return self.history_dir / "meta.json"

    # unlearning phase
    @property
    def request_path(self) -> Path:
        return self.root / "request.json"

    def method_dir(self, method: str) -> Path:
        return self.root / f"unlearn_{method}"

    def unlearned_model_path(self, method: str) -> Path:
        return self.method_dir(method) / "unlearned.model"

    def metrics_path(self, method: str) -> Path:
        return self.method_dir(method) / "metrics.json"

    @property
    def comparison_path(self) -> Path:
        return self.root / "comparison.csv"

    def create(self) -> "RunDir":
        """Make the run directory. One that exists and is not an empty
        directory raises a ConfigError naming it and is left as it is: its
        files belong to another run."""
        if self.root.exists() and (not self.root.is_dir() or any(self.root.iterdir())):
            raise ConfigError(f"{self.root}: already exists and is not an empty directory; "
                              "train into a new or empty one")
        self.root.mkdir(parents=True, exist_ok=True)
        return self

    def write_config(self, cfg: dict) -> None:
        self._hash = config_hash(cfg)
        self.write_json(self.config_path, {"config": cfg})

    def read_config(self) -> dict:
        if not self.config_path.exists():
            raise ConfigError(f"no config.json under {self.root}")
        payload = read_json(self.config_path)
        if not isinstance(payload, dict) or "config" not in payload:
            raise ConfigError(f"{self.config_path}: no config object")
        self._hash = config_hash(payload["config"])
        self._check(payload, self.config_path)
        return payload["config"]

    def _check(self, payload, source, *keys) -> dict:
        """`payload`, a JSON value read from `source`, checked to be an object
        holding `keys` and stamped with this run's config hash; otherwise a
        ConfigError names `source`."""
        stamp = require_keys(payload, source, *keys, "config_hash")["config_hash"]
        if stamp != self.hash:
            raise ConfigError(f"{source}: config_hash {stamp!r} does not match the run's "
                              f"config ({self.hash}); the file was edited or copied "
                              "from another run")
        return payload

    def read_json(self, path: Path, *keys) -> dict:
        """The stamped JSON object in the artifact at `path`, through `_check`."""
        return self._check(read_json(path), path, *keys)

    def write_json(self, path: Path, payload: dict, indent: int | None = 2) -> None:
        """`payload` with this run's config hash, as `atomic.write_json`."""
        write_json(path, {**payload, "config_hash": self.hash}, indent)

    def write_jsonl(self, path: Path, rows) -> None:
        """One JSON line per row, after a header line holding the config hash."""
        with atomic_write(path) as fh:
            fh.write(json.dumps({"config_hash": self.hash}, sort_keys=True) + "\n")
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def read_jsonl(self, path: Path) -> list[tuple[str, object]]:
        """(source, value) of each line of a `write_jsonl` file after its
        header, the source naming the file and line; the header goes through
        `_check`."""
        with open(path) as fh:
            lines = [(f"{path} line {n}", line) for n, line in enumerate(fh, 1) if line.strip()]
        source, text = lines[0] if lines else (f"{path} line 1", "null")
        self._check(parse_json(text, source), source)
        return [(source, parse_json(line, source)) for source, line in lines[1:]]


def write_csv(rd: RunDir, path: Path, header: list[str], rows: list[list]) -> None:
    """A CSV artifact of run `rd`: a `# config_hash=` comment line ahead of
    the header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, newline="") as fh:
        fh.write(f"# config_hash={rd.hash}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)

