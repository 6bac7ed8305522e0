"""Workload parameters, shared by the orchestrator, the worker processes and
the reference generator.

Every workload trains or loads an embedding of the three-clusters-plus-
outliers point cloud (``gen_three_clusters``) and then, once per training
result, re-certifies it with ``sdpembed certify`` and extends it to new points
with ``sdpembed extend``.  The new points come from the same generator under a
seed derived from the run seed, plus ``N_COPIES`` copied training points whose
stored coordinates the extension must reproduce.
"""

import json
from dataclasses import dataclass
from pathlib import Path

N_OUTLIERS = 8
# relative agreement of objectives required by the strict gate
GATE_RTOL = 1e-12
N_COPIES = 8
# at least this many operations per run, even when one outlasts --seconds
MIN_OPS = 3
# the stored model of serve_stored_2k is trained on one of this many
# generator seeds, 0..POOL-1, because the correctness gate needs a committed
# reference for each one
POOL = 10
# the paper's own 308-point data set
PAPER_SEED = 12345

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    n_per_cluster: int
    sigmas: tuple
    # new points per `sdpembed extend` call, copies included
    n_new: int
    # True: each operation runs embed_points on training data; False: the
    # operation only serves the model that set-up stored with `sdpembed embed`
    trains: bool
    # True: every result must certify at the reference rank and objective
    # (to GATE_RTOL); False: it must only stay below the reference dual bound
    strict: bool
    # None: the training set is picked from the POOL seeds by the run seed
    data_seed: int | None = None
    setups: int = 5

    @property
    def n_train(self):
        return 3 * self.n_per_cluster + N_OUTLIERS

    def data_seed_for(self, seed):
        """Generator seed of the run's training set."""
        return seed % POOL if self.data_seed is None else self.data_seed

    def cases(self):
        """Every (data seed, sigma) pair this workload can train or serve."""
        seeds = range(POOL) if self.data_seed is None else (self.data_seed,)
        return [(s, sigma) for s in seeds for sigma in self.sigmas]


def case_key(data_seed, sigma):
    return f"{data_seed}/{sigma!r}"


def _workloads(n_2k, n_paper, n_new, n_serve):
    return {
        "embed_small_sigma": Workload(
            "embed_small_sigma", n_paper, (1.0, 0.5, 0.3), n_new, True, False, data_seed=PAPER_SEED
        ),
        # each set-up solves the 2k problem once (about 12 s), so it runs
        # fewer of them to keep a run inside the time budget
        "serve_stored_2k": Workload(
            "serve_stored_2k", n_2k, (5.0,), n_serve, False, True, setups=2
        ),
    }


SIZES = {
    "full": _workloads(664, 100, 2000, 20000),
    # for the benchmark's own smoke tests
    "tiny": _workloads(20, 10, 40, 200),
}


def load_reference(size):
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[size]


def new_point_seed(seed):
    """Generator seed of the new points; disjoint from every training seed."""
    return 1_000_000 + seed
