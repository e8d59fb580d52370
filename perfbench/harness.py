"""Run full `scale` pipelines through `scale_fu.cli.main`, time and check them.

One pipeline is `train -> unlearn scale, retrain, uniform, grad_ascent ->
eval` in a fresh run directory. A command fails when it returns nonzero,
raises, or fails the output check; all three count as failed, and a failed
output check also marks the run incorrect. Artifacts must be
byte-identical across repeats of one master seed, and each master's
scale_ra and scale_fa_gap must equal the committed reference
(reference.json), so that a change cannot trade model quality for speed
unnoticed. Whether the artifacts are byte-identical to the reference is
reported, not required.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from tracer import Tracer, patched
from workloads import Workload

METHODS = ("scale", "retrain", "uniform", "grad_ascent")
STAGES = ("train",) + tuple(f"unlearn_{m}" for m in METHODS) + ("eval",)

# the metrics BENCHMARK.json lists as end_to_end, printed with --trace 0
E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "unlearn_scale_s": "s",
    "unlearn_retrain_s": "s",
    "peak_rss_mb": "MB",
}
# printed in the summary only: zero on most workloads, or absent where eval
# fails, and deterministic per master seed, so they carry no run-to-run bound
SUMMARY_UNITS = {"error_rate": "ratio", "scale_ra": "ratio", "scale_fa_gap": "ratio"}
STAGE_METRICS = {
    "train_s": "train",
    "unlearn_scale_s": "unlearn_scale",
    "unlearn_retrain_s": "unlearn_retrain",
}
SETUP_REPEATS = 7                   # at least this many set-up probes per run
PROBE = Path(__file__).with_name("setup_probe.py")
REFERENCE = Path(__file__).with_name("reference.json")
# the stage spans must cover this share of a traced pipeline's wall time
COVERAGE_FLOOR = 0.95


@dataclass
class PipelineResult:
    master: int
    traced: bool
    wall_s: float
    stage_s: dict[str, float]
    failures: dict[str, str]          # stage -> reason (nonzero exit or raised)
    problems: list[str] = field(default_factory=list)  # output-check failures
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] | None = None


def commands(cfg_path: Path, run_dir: Path, request: str) -> list[tuple[str, list[str]]]:
    run = str(run_dir)
    cmds = [("train", ["train", "--config", str(cfg_path), "--out", run])]
    for m in METHODS:
        cmds.append((f"unlearn_{m}",
                     ["unlearn", "--run", run, "--method", m, "--request", request]))
    cmds.append(("eval", ["eval", "--run", run, "--methods", ",".join(METHODS)]))
    return cmds


def call_main(main, argv: list[str]) -> str | None:
    """Run one command with its output captured; the failure reason, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:        # argparse rejects arguments this way
        rc = exc.code
    except Exception as exc:         # an uncaught crash is a failed command
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return (f"raised {type(exc).__name__}: {exc} "
                f"at {Path(where.filename).name}:{where.lineno}")
    if rc != 0:
        lines = err.getvalue().strip().splitlines()
        return f"exit {rc}: {lines[-1] if lines else ''}"
    return None


def run_pipeline(main, cfg_path: Path, run_dir: Path, request: str,
                 master: int, traced: bool = False) -> PipelineResult:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    stage_s: dict[str, float] = {}
    failures: dict[str, str] = {}
    t0 = time.perf_counter()
    for stage, argv in commands(cfg_path, run_dir, request):
        t = time.perf_counter()
        reason = call_main(main, argv)
        stage_s[stage] = time.perf_counter() - t
        if reason is not None:
            failures[stage] = reason
    wall = time.perf_counter() - t0
    res = PipelineResult(master, traced, wall, stage_s, failures)
    for stage in STAGES:
        if stage in failures:
            continue
        problem = check_stage(stage, run_dir)
        if problem is not None:
            failures[stage] = f"output check: {problem}"
            res.problems.append(f"{stage}: {problem}")
    res.digests = digest_tree(run_dir)
    if "eval" not in failures:
        res.quality = read_quality(run_dir)
    return res


# --- output check -----------------------------------------------------------


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        if not fh.readline().startswith("# config_hash="):
            raise ValueError(f"{path.name} lacks the config hash stamp")
        return list(csv.DictReader(fh))


def _unit(value, what: str) -> None:
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ValueError(f"{what}={value!r} is not in [0, 1]")


def check_stage(stage: str, run_dir: Path) -> str | None:
    """Why the stage's artifacts are wrong, or None when they look right."""
    try:
        if stage == "train":
            for name in ("config.json", "manifest.json", "global.model",
                         "partition.json", "history/meta.json"):
                if not (run_dir / name).is_file():
                    raise ValueError(f"{name} missing")
            rounds = _csv_rows(run_dir / "rounds.csv")
            cfg = json.loads((run_dir / "config.json").read_text())["config"]
            want = cfg["federation"]["rounds"]
            if len(rounds) != want:
                raise ValueError(f"rounds.csv has {len(rounds)} rounds, expected {want}")
            for row in rounds:
                if not math.isfinite(float(row["loss"])):
                    raise ValueError(f"round {row['round']} loss is not finite")
                _unit(float(row["acc"]), f"round {row['round']} acc")
        elif stage.startswith("unlearn_"):
            method = stage[len("unlearn_"):]
            mdir = run_dir / stage
            size = (mdir / "unlearned.model").stat().st_size
            if size != (run_dir / "global.model").stat().st_size:
                raise ValueError("unlearned.model size differs from global.model")
            if json.loads((mdir / "unlearn_meta.json").read_text())["method"] != method:
                raise ValueError("unlearn_meta.json names another method")
        else:
            rows = _csv_rows(run_dir / "comparison.csv")
            if [r["method"] for r in rows] != list(METHODS):
                raise ValueError("comparison.csv does not list every method in order")
            for r in rows:
                _unit(float(r["ra"]), f"{r['method']} ra")
                _unit(float(r["fa"]), f"{r['method']} fa")
                if r["method"] == "retrain" and (float(r["d_ra"]), float(r["d_fa"])) != (0, 0):
                    raise ValueError("retrain deltas against itself are not zero")
            for m in METHODS:
                met = json.loads((run_dir / f"unlearn_{m}" / "metrics.json").read_text())
                _unit(met["ra"], f"{m} metrics.json ra")
                _unit(met["fa"], f"{m} metrics.json fa")
    except (OSError, ValueError, KeyError) as err:
        return str(err)
    return None


def read_quality(run_dir: Path) -> dict[str, float]:
    def read(m):
        return json.loads((run_dir / f"unlearn_{m}" / "metrics.json").read_text())

    scale, retrain = read("scale"), read("retrain")
    return {"scale_ra": scale["ra"], "scale_fa_gap": abs(scale["fa"] - retrain["fa"])}


def digest_tree(root: Path) -> dict[str, str]:
    if not root.exists():
        return {}
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def load_reference(workload: str) -> dict:
    """Per master seed (as a string): its `quality` (None where eval fails)
    and the combined digest of its `artifacts`."""
    return json.loads(REFERENCE.read_text()).get(workload, {})


# --- set-up probe -------------------------------------------------------------


def probe_setup(cfg_path: Path, env: dict) -> float:
    """Wall time of a fresh interpreter importing the CLI, validating the
    config and building the dataset and partition."""
    t = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, str(PROBE), str(cfg_path)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


# --- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float]:
    """p99 from 100 samples, p90 from 10, else the maximum."""
    for q, need in ((99, 100), (90, 10)):
        if len(values) >= need:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


# --- a whole run ----------------------------------------------------------------


@dataclass
class RunReport:
    workload: str
    seed: int
    masters: list[int]
    results: list[PipelineResult]
    setup_s: list[float]
    peak_rss_mb: float
    tracer: Tracer | None = None
    reference: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)   # failed checks of the whole run

    @property
    def attempted(self) -> int:
        return len(STAGES) * len(self.results)

    @property
    def failed(self) -> int:
        return sum(len(r.failures) for r in self.results)

    @property
    def correct(self) -> bool:
        return not self.problems and not any(r.problems for r in self.results)

    def samples(self) -> dict[str, list[float]]:
        plain = [r for r in self.results if not r.traced]
        out = {"setup_s": self.setup_s, "pipeline_s": [r.wall_s for r in plain]}
        for metric, stage in STAGE_METRICS.items():
            out[metric] = [r.stage_s[stage] for r in plain]
        return out

    def e2e_metrics(self) -> dict[str, dict]:
        out = {k: {"value": statistics.median(v), "unit": E2E_UNITS[k]}
               for k, v in self.samples().items()}
        out["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MB"}
        return out

    def first_runs(self) -> dict[int, PipelineResult]:
        first: dict[int, PipelineResult] = {}
        for r in self.results:
            first.setdefault(r.master, r)
        return first

    def coverage(self) -> list[float]:
        """Per traced pipeline: the summed stage spans over its wall time."""
        out = []
        for i, r in enumerate(self.results):
            if r.traced:
                stages = self.tracer.summary(i)
                out.append(sum(stages.get(s, {}).get("total_s", 0.0)
                               for s in layers.STAGE_SPANS) / r.wall_s)
        return out

    def check(self) -> None:
        """Run-level checks: artifacts identical across repeats of a master,
        quality equal to the reference, and the traced stage spans covering
        the pipelines."""
        self.problems = compare_digests(self.results)
        for master, r in self.first_runs().items():
            ref = self.reference.get(str(master))
            if ref is not None and ref["quality"] is not None and r.quality != ref["quality"]:
                self.problems.append(f"master {master}: quality {r.quality} differs from "
                                     f"the reference {ref['quality']}")
        if self.tracer is not None:
            cov = statistics.fmean(self.coverage())
            if cov < COVERAGE_FLOOR:
                self.problems.append(f"trace.coverage {cov:.4f} is below {COVERAGE_FLOOR}")

    def layer_metrics(self) -> dict[str, dict]:
        traced = [(i, r) for i, r in enumerate(self.results) if r.traced]
        values: dict[str, list[float]] = {"trace.coverage": self.coverage()}
        for i, r in traced:
            for k, v in layers.layer_metrics(self.tracer, i).items():
                values.setdefault(k, []).append(v)
        # each traced pipeline follows an untraced one of the same master
        values["trace.overhead_s"] = [
            r.wall_s - self.results[i - 1].wall_s for i, r in traced
        ]
        units = layers.per_layer_units()
        return {k: {"value": statistics.fmean(values[k]), "unit": units[k]} for k in units}

    def summary_lines(self) -> list[str]:
        lines = [f"workload {self.workload} seed {self.seed} masters {self.masters} "
                 f"pipelines {len(self.results)} "
                 f"(traced {sum(r.traced for r in self.results)})"]
        for k, v in self.samples().items():
            name, value = tail(v)
            lines.append(f"  {k:<18} median {statistics.median(v):.4f} "
                         f"{name} {value:.4f} {E2E_UNITS[k]} (n={len(v)})")
        lines.append(f"  {'peak_rss_mb':<18} {self.peak_rss_mb:.1f} MB")
        units = SUMMARY_UNITS
        lines.append(f"  {'error_rate':<18} {self.failed}/{self.attempted} = "
                     f"{self.failed / self.attempted:.4f} {units['error_rate']}")
        seen: set[tuple[str, str]] = set()
        for r in self.results:
            for stage, reason in r.failures.items():
                if (stage, reason) not in seen:
                    seen.add((stage, reason))
                    lines.append(f"    failed {stage}: {reason}")
        for master in self.masters:
            runs = [r for r in self.results if r.master == master]
            if not runs:
                continue
            q = runs[0].quality
            quality = ("scale_ra absent, scale_fa_gap absent (eval failed)" if q is None else
                       ", ".join(f"{k} {q[k]:.4f} {units[k]}" for k in ("scale_ra", "scale_fa_gap")))
            digest = combined_digest(runs[0].digests)
            same = all(r.digests == runs[0].digests for r in runs)
            ref = self.reference.get(str(master))
            versus = ("no reference" if ref is None else
                      "byte-identical to the reference" if ref["artifacts"] == digest else
                      "DIFFERENT from the reference")
            lines.append(f"  master {master}: {quality}; artifacts {digest[:16]} "
                         f"({len(runs[0].digests)} files, {len(runs)} runs"
                         f"{' identical' if len(runs) > 1 and same else ''}, "
                         f"{versus})")
        lines.extend(f"  PROBLEM {m}" for m in self.problems)
        return lines

    def result(self, trace: bool) -> dict:
        """The result line: end-to-end metrics, or per-layer ones when traced."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.layer_metrics() if trace else self.e2e_metrics(),
        }

    def record(self) -> dict:
        first = self.first_runs()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "samples": self.samples(),
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": [r.failures for r in self.results],
            "quality": {str(m): r.quality for m, r in first.items()},
            "digests": {str(m): r.digests for m, r in first.items()},
        }


def compare_digests(results: list[PipelineResult]) -> list[str]:
    first: dict[int, PipelineResult] = {}
    out = []
    for r in results:
        ref = first.setdefault(r.master, r)
        if ref is r:
            continue
        for path in sorted(set(ref.digests) | set(r.digests)):
            if ref.digests.get(path) != r.digests.get(path):
                out.append(f"master {r.master}: {path} differs between repeats")
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path, main, env: dict, reference: dict | None = None) -> RunReport:
    """Closed loop of one caller: pipelines back to back until the next one
    would end after `seconds`. Untraced runs cycle the master family and
    repeat at least one master; traced runs alternate an untraced and a
    traced pipeline of the same master. `reference` is the workload's entry
    of reference.json, if it has one."""
    work_dir.mkdir(parents=True, exist_ok=True)
    masters = workload.masters(seed)
    cfg_paths = {}
    for m in masters:
        cfg_paths[m] = work_dir / f"config_{m}.json"
        cfg_paths[m].write_text(json.dumps(workload.config(m), sort_keys=True) + "\n")
    tracer = Tracer() if trace else None
    min_runs = 2 if trace else len(masters) + 1
    results: list[PipelineResult] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        i = len(results)
        if trace:
            master, traced = masters[(i // 2) % len(masters)], i % 2 == 1
        else:
            master, traced = masters[i % len(masters)], False
        # set-up probes run between pipelines so that they sample the same
        # stretch of machine time as the pipelines do
        setup.append(probe_setup(cfg_paths[master], env))
        if traced:
            tracer.trace_id = i
        with patched(tracer, layers.TARGETS) if traced else contextlib.nullcontext():
            res = run_pipeline(main, cfg_paths[master], work_dir / "run", workload.request,
                               master, traced)
        results.append(res)
        elapsed = time.perf_counter() - start
        done = len(results) >= min_runs and (not trace or len(results) % 2 == 0)
        if done and elapsed + res.wall_s > seconds:
            break
    for k in range(len(setup), SETUP_REPEATS):
        setup.append(probe_setup(cfg_paths[masters[k % len(masters)]], env))
    shutil.rmtree(work_dir / "run", ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = RunReport(workload.name, seed, masters, results, setup, rss_mb, tracer,
                       reference or {})
    report.check()
    return report


def environment(blas_threads: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
