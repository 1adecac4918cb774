"""Seeded input generator shared by every workload.

The program under test receives only what this module builds: the 4d
dataset (``make_dataset``), a specialist worker pool with spammers
(``WorkerPool.generate``), and worker answers (``sample_answer``). Each
answer is drawn from a generator keyed by ``(seed, worker, task)``, so a
worker's answer to a task does not depend on the order in which the
program hands out tasks — the same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.types import Answer, Task
from repro.crowd.answer_model import sample_answer
from repro.crowd.worker_pool import WorkerPool, WorkerPoolConfig
from repro.datasets import make_dataset
from repro.datasets.base import CrowdDataset

DATASET = "4d"
#: Seed of the task corpus and the worker pool (see :func:`make_inputs`).
CORPUS_SEED = 2016


@dataclass
class Inputs:
    """One workload's generated inputs."""

    seed: int
    dataset: CrowdDataset
    pool: WorkerPool

    def __post_init__(self) -> None:
        self.tasks: Dict[int, Task] = {
            t.task_id: t for t in self.dataset.tasks
        }
        self.truth: Dict[int, int] = {
            t.task_id: t.ground_truth for t in self.dataset.tasks
        }
        self.worker_ids: List[str] = self.pool.worker_ids
        self._worker_index = {
            w: i for i, w in enumerate(self.worker_ids)
        }
        self._vectors = [t.domain_vector for t in self.dataset.tasks]

    def reset(self) -> None:
        """Undo what ``prepare`` writes into the tasks (their domain
        vectors), so the same inputs can be prepared again."""
        for task, vector in zip(self.dataset.tasks, self._vectors):
            task.domain_vector = vector

    def answer(self, worker_id: str, task_id: int) -> int:
        """The worker's (1-based) answer to a task, fixed by the seed."""
        rng = np.random.default_rng(
            (self.seed, self._worker_index[worker_id], task_id)
        )
        return sample_answer(
            self.tasks[task_id], self.pool.profile(worker_id), rng
        )

    def golden_answers(
        self, worker_id: str, golden_ids: List[int]
    ) -> List[Answer]:
        return [
            Answer(worker_id, task_id, self.answer(worker_id, task_id))
            for task_id in golden_ids
        ]

    def accuracy(self, truths: Dict[int, int]) -> float:
        """Share of tasks whose finalized truth equals the ground truth."""
        correct = sum(
            1 for task_id, truth in self.truth.items()
            if truths.get(task_id) == truth
        )
        return correct / len(self.truth)


def make_inputs(
    seed: int, tasks_per_domain: int, workers: int
) -> Inputs:
    """The fixed task corpus and crowd, with ``seed``'s behaviour.

    The dataset and the worker pool come from :data:`CORPUS_SEED`, so
    every seed prepares, reruns and finalizes over the same task
    catalogue and crowd; ``seed`` draws the answers, arrivals and
    sessions. Different seeds therefore differ in what the crowd does,
    not in how much work the corpus is.
    """
    dataset = make_dataset(
        DATASET, seed=CORPUS_SEED, tasks_per_domain=tasks_per_domain
    )
    active = tuple(d.taxonomy_index for d in dataset.domains)
    pool = WorkerPool.generate(
        WorkerPoolConfig(
            num_workers=workers,
            num_domains=dataset.taxonomy.size,
            active_domains=active,
            seed=CORPUS_SEED,
        )
    )
    return Inputs(seed=seed, dataset=dataset, pool=pool)


def answer_plan(
    inputs: Inputs, answers_per_task: int
) -> List[Tuple[str, int]]:
    """Pre-allocated (worker, task) pairs: each task answered by
    ``answers_per_task`` distinct workers, in a shuffled arrival order
    (the paper's Section 6.1 "assign each task to N workers" setting)."""
    rng = np.random.default_rng((inputs.seed, 0x9A7))
    workers = inputs.worker_ids
    pairs: List[Tuple[str, int]] = []
    for task in inputs.dataset.tasks:
        chosen = rng.choice(
            len(workers), size=answers_per_task, replace=False
        )
        pairs.extend((workers[int(w)], task.task_id) for w in chosen)
    order = rng.permutation(len(pairs))
    return [pairs[int(i)] for i in order]
