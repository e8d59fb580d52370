"""Benchmark workloads: a config overlay, a request string and the master seeds.

Every workload is a closed loop of one caller running full pipelines back
to back. A run cycles through a family of master seeds so that its median
covers a fixed mix of inputs; `--seed` picks where in the family the
cycle starts, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# master seeds of the acceptance tests (tests/test_acceptance.py)
ACCEPTANCE_FAMILY = (41, 42, 43, 44, 45)
# OpenBLAS threads. The program's matrices are at most 64 wide: on a 2-vCPU
# host a second thread doubled CPU time without a speed-up, and its
# spin-wait tied every timing to the load on the other vCPU.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overlay: dict
    request: str
    family_size: int                  # distinct master seeds cycled in one run

    def masters(self, seed: int) -> list[int]:
        n = len(ACCEPTANCE_FAMILY)
        return [ACCEPTANCE_FAMILY[(seed + k) % n] for k in range(self.family_size)]

    def config(self, master: int) -> dict:
        cfg = copy.deepcopy(self.overlay)
        cfg["seeds"] = {"master": master}
        return cfg


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ref-mlp",
            why="default config, client:3, acceptance seeds: the reference scenario; "
                "PPO update dominates unlearn_scale_s (~46%), AoI state ~21%",
            overlay={},
            request="client:3",
            family_size=5,
        ),
        Workload(
            name="fine-groups",
            why="groups_per_layer 32, sample:3:0.5: PPO collect (env step, AoI state, "
                "sparsify) dominates; covers the sample split and retrain path",
            overlay={"scale": {"groups_per_layer": 32}},
            request="sample:3:0.5",
            family_size=2,
        ),
        Workload(
            name="cnn-fed",
            why="mini_cnn on 8x8 inputs, 20 PPO episodes: conv nn and FedAvg ~90%; "
                "eval raises IndexError at cli.py:408 (_touch_all_rows), counted failed",
            overlay={
                "model": {"arch": "mini_cnn"},
                "dataset": {"dim": 64, "per_class": 150},
                "scale": {"ppo": {"episodes": 20}},
            },
            request="client:3",
            family_size=3,
        ),
    )
}
