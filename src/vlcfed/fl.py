"""Federated regression training: a 13-10-1 network trained with FedAvg.

Each participant runs full-batch gradient descent on its shard against the
mean squared error J_n = (1/D_n) * sum_i 0.5 * (pred_i - y_i)^2, then the
server averages parameters weighted by shard size. The participants of a
round with one shard size train together: their models are the rows of one
flat (K, 151) parameter stack, each epoch writes their gradients into a
second stack and updates the first in place, and the average adds the rows in
participant order. Results match training and averaging the models one by
one bit for bit. Inputs and targets are standardized with statistics of the
training partition only; the accuracy metric (coefficient of determination)
is computed on the original target scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .dataset import DataShard

N_INPUTS = 13
N_HIDDEN = 10
INIT_SCALE = 0.5  # initial parameters are uniform on [-INIT_SCALE, INIT_SCALE]
# Targets are standardized, so predicting their mean gives a training loss of
# 0.5. A loss above this bound only comes from steps that diverge, even while
# it is finite.
DIVERGED_LOSS = 1e6


class NoParticipantsError(ValueError):
    """Training was requested for an empty selection."""


class UndefinedMetricError(ValueError):
    """R^2 is undefined when the ground truth is constant."""


@dataclass
class MlpModel:
    w1: np.ndarray  # (13, 10)
    b1: np.ndarray  # (10,)
    w2: np.ndarray  # (10, 1)
    b2: np.ndarray  # (1,)

    @classmethod
    def init_random(cls, seed: int) -> "MlpModel":
        # One draw in layout order: the values of drawing w1, b1, w2, b2 in turn.
        return _from_flat(np.random.default_rng(seed).uniform(-INIT_SCALE, INIT_SCALE, size=_N_PARAMS))

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)


# Flat parameter layout (w1, b1, w2, b2): K models are one (K, _N_PARAMS) stack.
_SHAPES = ((N_INPUTS, N_HIDDEN), (N_HIDDEN,), (N_HIDDEN, 1), (1,))
_ENDS = tuple(itertools.accumulate(math.prod(shape) for shape in _SHAPES))
_N_PARAMS = _ENDS[-1]


def _flatten(model: MlpModel) -> np.ndarray:
    return np.concatenate([p.ravel() for p in model.params()])


def _from_flat(stack: np.ndarray) -> MlpModel:
    """The parameters of one model, or of K along a leading axis, as views of the stack."""
    lead = stack.shape[:-1]
    return MlpModel(*(stack[..., end - math.prod(s):end].reshape(lead + s) for s, end in zip(_SHAPES, _ENDS)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(min(z, -z)) = exp(-|z|) cannot overflow and keeps a nan's sign. With
    # numerator 1 for z >= 0 and exp(z) below, each branch divides as its
    # two-branch form does: 1/(1+exp(-z)), exp(z)/(1+exp(z)).
    ez = np.negative(z)
    np.exp(np.minimum(z, ez, out=ez), out=ez)
    return np.maximum(ez, z >= 0) / (1.0 + ez)


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predictions for an (n, 13) batch; sigmoid hidden layer, linear output."""
    hidden = _sigmoid(x @ model.w1 + model.b1)
    return (hidden @ model.w2)[:, 0] + model.b2[0]


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """(1/n) * sum of squared-error halves over the batch."""
    err = forward_batch(model, x) - y
    return float(0.5 * np.mean(err * err))


def _gradients(p: MlpModel, x: np.ndarray, y: np.ndarray, g: MlpModel) -> None:
    """Writes into ``g`` the gradients of mse_loss for K models on K shards.

    ``p`` and ``g`` are ``_from_flat`` views of (K, _N_PARAMS) stacks, x is
    (K, n, 13) and y is (K, n). Batched matmul runs each slice through the
    same BLAS call as the 2-D product, and every reduction runs along the same
    axis as for one shard, so row k equals the gradient of model k alone bit
    for bit.
    """
    z = x @ p.w1
    z += p.b1[:, None, :]
    hidden = _sigmoid(z)
    err = ((hidden @ p.w2)[:, :, 0] + p.b2 - y) / x.shape[1]  # dJ/dpred_i
    np.matmul(hidden.transpose(0, 2, 1), err[:, :, None], out=g.w2)
    np.add.reduce(err, axis=1, out=g.b2[:, 0])
    dz = np.einsum("kn,kh->knh", err, p.w2[:, :, 0])
    dz *= hidden                                # sigmoid derivative, (dh * h) * (1 - h)
    dz *= np.subtract(1.0, hidden, out=hidden)
    np.matmul(x.transpose(0, 2, 1), dz, out=g.w1)
    np.einsum("knh->kh", dz, out=g.b1)


def loss_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Analytic gradients of mse_loss w.r.t. (w1, b1, w2, b2)."""
    grads = np.empty(_N_PARAMS)
    _gradients(_from_flat(_flatten(model)[None]), x[None], y[None], _from_flat(grads[None]))
    return _from_flat(grads).params()


def _local_descent(model: MlpModel, x: np.ndarray, y: np.ndarray, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent from `model` on K equal-size shards at once.

    x is (K, n, 13) and y is (K, n). Returns the K trained models as a
    (K, _N_PARAMS) stack, updated in place each epoch; row k equals local
    training on shard k alone.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr!r}")
    params = np.repeat(_flatten(model)[None], x.shape[0], axis=0)
    grads = np.empty_like(params)
    p, g = _from_flat(params), _from_flat(grads)
    for _ in range(epochs):
        _gradients(p, x, y, g)
        grads *= lr
        params -= grads
    return params


def _shard_weights(shard_sizes) -> np.ndarray:
    total = float(sum(shard_sizes))
    if total <= 0:
        raise ValueError("total sample count must be > 0")
    return (np.asarray(shard_sizes) / total)[:, None]


def _sum_rows(stack: np.ndarray) -> np.ndarray:
    """The rows of a (K, _N_PARAMS) stack added in row order.

    An axis-0 reduction of a (K, _N_PARAMS) stack adds its rows in order,
    while numpy may add a (K, 1) column pairwise. Adding 0.0 turns a -0.0
    total into +0.0, as accumulating from zeros does.
    """
    return np.add.reduce(stack, axis=0) + 0.0


def _r_squared_against(y: np.ndarray):
    """R^2 against the ground truth ``y``, whose SS_tot is computed once."""
    if not y.size or np.all(y == y[0]):
        raise UndefinedMetricError("R^2 is undefined for an empty or constant ground truth")
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return lambda pred: 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot


def required_global_rounds(local_accuracy: float) -> int:
    """Iteration-budget bookkeeping: ceil(1 / (1 - local_accuracy))."""
    if not 0.0 < local_accuracy < 1.0:
        raise ValueError(f"local_accuracy must lie in (0, 1), got {local_accuracy!r}")
    q = 1.0 / (1.0 - local_accuracy)
    return int(math.ceil(q - 1e-9))  # absorb float noise so 1/0.1 stays 10


@dataclass(frozen=True)
class Standardizer:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "Standardizer":
        x_std = x.std(axis=0)
        x_std = np.where(x_std > 0, x_std, 1.0)  # constant features pass through
        y_std = float(y.std())
        return cls(x.mean(axis=0), x_std, float(y.mean()), y_std if y_std > 0 else 1.0)

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std

    def inverse_y(self, y: np.ndarray) -> np.ndarray:
        return y * self.y_std + self.y_mean


@dataclass
class TrainingReport:
    r2_per_round: list[float] = field(default_factory=list)

    @property
    def final_r2(self) -> float:
        return self.r2_per_round[-1] if self.r2_per_round else float("nan")


def run_federated_training(
    selection,
    shards: list[DataShard],
    test_set,
    config: SimConfig,
    seed: int,
) -> TrainingReport:
    """Train the global model over the selected users' shards.

    Standardization statistics come from the union of all shards (they are
    the training partition and are identical across selection variants, which
    keeps paired comparisons on one seed apples-to-apples). The recorded
    metric is test R^2 on the raw target scale. Each round also computes the
    training loss over the participants' rows, which weights each shard by
    its size, only to catch divergence: it raises FloatingPointError, naming
    the round and the learning rate, as soon as the averaged parameters or
    R^2 stop being finite or that loss exceeds ``DIVERGED_LOSS``.
    """
    participants = sorted(selection.all_ids)
    if not participants:
        raise NoParticipantsError("no users selected for training")
    by_owner = {s.owner: s for s in shards}
    missing = [n for n in participants if n not in by_owner]
    if missing:
        raise ValueError(f"no shard for selected users {missing}")
    empty = [n for n in participants if by_owner[n].size == 0]
    if empty:
        raise ValueError(f"users {empty}: cannot train on an empty shard")

    scaler = Standardizer.fit(
        np.concatenate([s.x for s in shards], axis=0),
        np.concatenate([s.y for s in shards]),
    )
    xs = [scaler.transform_x(by_owner[n].x) for n in participants]
    ys = [scaler.transform_y(by_owner[n].y) for n in participants]
    sizes = [len(y) for y in ys]
    train_x = np.concatenate(xs, axis=0)
    train_y = np.concatenate(ys)
    test_x = scaler.transform_x(test_set.features)
    test_r_squared = _r_squared_against(test_set.targets)

    # One stacked batch per shard size (a single one for an equal partition);
    # rows of `trained` follow the sorted participants.
    by_size: dict[int, list[int]] = {}
    for pos, size in enumerate(sizes):
        by_size.setdefault(size, []).append(pos)
    batches = [
        (rows, np.stack([xs[i] for i in rows]), np.stack([ys[i] for i in rows]))
        for rows in by_size.values()
    ]
    trained = np.empty((len(participants), _N_PARAMS))
    weights = _shard_weights(sizes)

    model = MlpModel.init_random(seed)
    report = TrainingReport()
    for round_no in range(1, config.global_rounds + 1):
        for rows, x, y in batches:
            stack = _local_descent(model, x, y, config.local_epochs, config.learning_rate)
            if len(batches) == 1:
                trained = stack
            else:
                trained[rows] = stack
        trained *= weights
        flat = _sum_rows(trained)
        model = _from_flat(flat)
        loss = mse_loss(model, train_x, train_y)
        r2 = test_r_squared(scaler.inverse_y(forward_batch(model, test_x)))
        if not (np.isfinite(flat).all() and loss <= DIVERGED_LOSS and math.isfinite(r2)):  # a nan loss fails too
            raise FloatingPointError(
                f"round {round_no}: training diverged (learning rate {config.learning_rate!r}): the aggregated "
                f"parameters or R^2 are not finite, or the loss {loss!r} exceeds {DIVERGED_LOSS!r}"
            )
        report.r2_per_round.append(r2)
    return report
