"""Dawid–Skene expectation-maximization over multiple LLM "workers".

When no validation set exists, the accuracy of each LLM can still be estimated
from agreement patterns across models (Section 3.5, citing the EM approaches
used for Mechanical Turk quality management): assume each model answers each
task independently with a fixed but unknown per-label confusion matrix, then
alternate between inferring the true labels and re-estimating each model's
confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.exceptions import QualityControlError


@dataclass
class DawidSkeneResult:
    """Output of the EM procedure.

    Attributes:
        label_posteriors: task id → {label: posterior probability}.
        predictions: task id → maximum-a-posteriori label.
        worker_accuracy: worker id → estimated probability of answering
            correctly (diagonal mass of its confusion matrix).
        iterations: number of EM iterations run.
    """

    label_posteriors: dict[Hashable, dict[Hashable, float]]
    predictions: dict[Hashable, Hashable]
    worker_accuracy: dict[Hashable, float]
    iterations: int


def dawid_skene(
    answers: Mapping[Hashable, Mapping[Hashable, Hashable]],
    *,
    max_iterations: int = 50,
    tolerance: float = 1e-6,
    smoothing: float = 0.01,
) -> DawidSkeneResult:
    """Run Dawid–Skene EM over worker answers.

    Args:
        answers: ``{task_id: {worker_id: label}}``.
        max_iterations: EM iteration cap.
        tolerance: convergence threshold on the change in label posteriors.
        smoothing: additive smoothing applied to confusion-matrix counts.

    Returns:
        A :class:`DawidSkeneResult`.
    """
    import numpy as np

    if not answers:
        raise QualityControlError("no answers supplied")
    task_ids = sorted(answers, key=str)
    worker_ids = sorted({worker for task in answers.values() for worker in task}, key=str)
    labels = sorted({label for task in answers.values() for label in task.values()}, key=str)
    if not labels:
        raise QualityControlError("no labels present in the answers")
    n_tasks, n_workers, n_labels = len(task_ids), len(worker_ids), len(labels)
    task_index = {task: index for index, task in enumerate(task_ids)}
    worker_index = {worker: index for index, worker in enumerate(worker_ids)}
    label_index = {label: index for index, label in enumerate(labels)}

    # answer_matrix[t, w] = label index or -1 when the worker skipped the task.
    answer_matrix = np.full((n_tasks, n_workers), -1, dtype=np.int64)
    for task, worker_answers in answers.items():
        for worker, label in worker_answers.items():
            answer_matrix[task_index[task], worker_index[worker]] = label_index[label]

    # Initialise posteriors with per-task majority votes.
    posteriors = np.full((n_tasks, n_labels), 1.0 / n_labels)
    for t in range(n_tasks):
        votes = answer_matrix[t][answer_matrix[t] >= 0]
        if votes.size:
            counts = np.bincount(votes, minlength=n_labels).astype(float)
            posteriors[t] = counts / counts.sum()

    confusion = np.zeros((n_workers, n_labels, n_labels))
    priors = np.full(n_labels, 1.0 / n_labels)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # M step: confusion matrices and label priors from the posteriors.
        priors = posteriors.mean(axis=0)
        for w in range(n_workers):
            counts = np.full((n_labels, n_labels), smoothing)
            for t in range(n_tasks):
                observed = answer_matrix[t, w]
                if observed >= 0:
                    counts[:, observed] += posteriors[t]
            confusion[w] = counts / counts.sum(axis=1, keepdims=True)

        # E step: recompute label posteriors.
        updated = np.tile(np.log(np.maximum(priors, 1e-12)), (n_tasks, 1))
        for t in range(n_tasks):
            for w in range(n_workers):
                observed = answer_matrix[t, w]
                if observed >= 0:
                    updated[t] += np.log(np.maximum(confusion[w][:, observed], 1e-12))
        updated = np.exp(updated - updated.max(axis=1, keepdims=True))
        updated /= updated.sum(axis=1, keepdims=True)
        change = float(np.abs(updated - posteriors).max())
        posteriors = updated
        if change < tolerance:
            break

    label_posteriors = {
        task: {label: float(posteriors[task_index[task], label_index[label]]) for label in labels}
        for task in task_ids
    }
    predictions = {
        task: max(label_posteriors[task], key=label_posteriors[task].get) for task in task_ids
    }
    worker_accuracy = {}
    for worker in worker_ids:
        matrix = confusion[worker_index[worker]]
        worker_accuracy[worker] = float(np.mean(np.diag(matrix)))
    return DawidSkeneResult(
        label_posteriors=label_posteriors,
        predictions=predictions,
        worker_accuracy=worker_accuracy,
        iterations=iterations,
    )
