"""Federated regression training: a 13-10-1 network trained with FedAvg.

Each participant runs full-batch gradient descent on its shard against the
mean squared error J_n = (1/D_n) * sum_i 0.5 * (pred_i - y_i)^2, then the
server averages parameters weighted by shard size. All participants of a
round train together as one stacked batch per shard size, and the average
adds their models in participant order, so results match training and
averaging them one by one bit for bit. Inputs and targets are
standardized with statistics of the training partition only; the accuracy
metric (coefficient of determination) is computed on the original target
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .dataset import DataShard

N_INPUTS = 13
N_HIDDEN = 10


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
    def init_random(cls, seed: int, scale: float = 0.5) -> "MlpModel":
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.uniform(-scale, scale, size=(N_INPUTS, N_HIDDEN)),
            b1=rng.uniform(-scale, scale, size=N_HIDDEN),
            w2=rng.uniform(-scale, scale, size=(N_HIDDEN, 1)),
            b2=rng.uniform(-scale, scale, size=1),
        )

    @classmethod
    def zeros(cls) -> "MlpModel":
        return cls(
            w1=np.zeros((N_INPUTS, N_HIDDEN)),
            b1=np.zeros(N_HIDDEN),
            w2=np.zeros((N_HIDDEN, 1)),
            b2=np.zeros(1),
        )

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)

    def copy(self) -> "MlpModel":
        return MlpModel(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


# Flat parameter layout (w1, b1, w2, b2), used to stack and average models.
_SHAPES = ((N_INPUTS, N_HIDDEN), (N_HIDDEN,), (N_HIDDEN, 1), (1,))
_SPLITS = np.cumsum([math.prod(shape) for shape in _SHAPES])[:-1]
_N_PARAMS = sum(math.prod(shape) for shape in _SHAPES)


def _flatten(model: MlpModel) -> np.ndarray:
    return np.concatenate([p.ravel() for p in model.params()])


def _from_flat(flat: np.ndarray) -> MlpModel:
    return MlpModel(*(p.reshape(shape) for p, shape in zip(np.split(flat, _SPLITS), _SHAPES)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) cannot overflow, and each branch gets the bits of its
    # two-branch form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def forward(model: MlpModel, x) -> float:
    """Prediction for a single 13-feature input."""
    return float(forward_batch(model, np.asarray(x, dtype=float)[None, :])[0])


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predictions for an (n, 13) batch; sigmoid hidden layer, linear output."""
    hidden = _sigmoid(x @ model.w1 + model.b1)
    return (hidden @ model.w2)[:, 0] + model.b2[0]


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """(1/n) * sum of squared-error halves over the batch."""
    err = forward_batch(model, x) - y
    return float(0.5 * np.mean(err * err))


def _stacked_gradients(w1, b1, w2, b2, x, y):
    """Gradients of mse_loss for K models on K shards of n rows each.

    Every argument carries a leading K axis: w1 (K, 13, 10), b1 (K, 10),
    w2 (K, 10, 1), b2 (K, 1), x (K, n, 13) and y (K, n). Batched matmul runs
    each slice through the same BLAS call as the 2-D product, and every
    reduction runs along the same axis as for one shard, so slice k equals
    the gradient of model k alone bit for bit.
    """
    n = x.shape[1]
    hidden = _sigmoid(x @ w1 + b1[:, None, :])
    pred = (hidden @ w2)[:, :, 0] + b2
    err = (pred - y) / n                       # dJ/dpred_i
    gw2 = hidden.transpose(0, 2, 1) @ err[:, :, None]
    gb2 = err.sum(axis=1, keepdims=True)
    dhidden = err[:, :, None] * w2[:, None, :, 0]
    dz = dhidden * hidden * (1.0 - hidden)     # sigmoid derivative
    gw1 = x.transpose(0, 2, 1) @ dz
    gb1 = dz.sum(axis=1)
    return gw1, gb1, gw2, gb2


def loss_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Analytic gradients of mse_loss w.r.t. (w1, b1, w2, b2)."""
    stacked = _stacked_gradients(*(p[None] for p in model.params()), x[None], y[None])
    return tuple(g[0] for g in stacked)


def _local_descent(model: MlpModel, x: np.ndarray, y: np.ndarray, epochs: int, lr: float) -> np.ndarray:
    """Full-batch gradient descent from `model` on K equal-size shards at once.

    x is (K, n, 13) and y is (K, n). Returns the K trained models as a
    (K, n_params) flat stack; row k equals local training on shard k alone.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr!r}")
    k = x.shape[0]
    w1, b1, w2, b2 = (np.repeat(p[None], k, axis=0) for p in model.params())
    for _ in range(epochs):
        gw1, gb1, gw2, gb2 = _stacked_gradients(w1, b1, w2, b2, x, y)
        w1 -= lr * gw1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2 -= lr * gb2
    return np.concatenate([w1.reshape(k, -1), b1, w2.reshape(k, -1), b2], axis=1)


def local_train(model: MlpModel, shard: DataShard, epochs: int, lr: float) -> MlpModel:
    """Full-batch gradient descent on one shard; returns a new model."""
    if shard.size == 0:
        raise ValueError(f"user {shard.owner}: cannot train on an empty shard")
    return _from_flat(_local_descent(model, shard.x[None], shard.y[None], epochs, lr)[0])


def _weighted_sum(stack: np.ndarray, shard_sizes) -> np.ndarray:
    """Rows of `stack` weighted by shard_size / total, added in row order.

    np.cumsum adds strictly in order, where np.sum over the rows may add
    pairwise. Adding 0.0 turns a -0.0 total into +0.0, as accumulating from
    zeros does.
    """
    total = float(sum(shard_sizes))
    if total <= 0:
        raise ValueError("total sample count must be > 0")
    weighted = (np.asarray(shard_sizes) / total)[:, None] * stack
    return np.cumsum(weighted, axis=0)[-1] + 0.0


def aggregate(models: list[MlpModel], shard_sizes: list[int]) -> MlpModel:
    """Parameter-wise average weighted by shard size."""
    if not models:
        raise ValueError("nothing to aggregate")
    if len(models) != len(shard_sizes):
        raise ValueError(
            f"got {len(models)} models but {len(shard_sizes)} shard sizes"
        )
    return _from_flat(_weighted_sum(np.stack([_flatten(m) for m in models]), shard_sizes))


def r_squared(predictions, truth) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    pred = np.asarray(predictions, dtype=float)
    y = np.asarray(truth, dtype=float)
    if pred.shape != y.shape or y.size == 0:
        raise ValueError("predictions and truth must be equal-length and non-empty")
    if np.all(y == y[0]):
        raise UndefinedMetricError("R^2 is undefined for a constant ground truth")
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot


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
    loss_per_round: list[float] = field(default_factory=list)

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
    loss is the shard-size-weighted training loss; the recorded metric is
    test R^2 on the raw target scale. Raises FloatingPointError, naming the
    round, as soon as the averaged parameters, the loss or R^2 stop being
    finite.
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
    test_y = test_set.targets

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

    model = MlpModel.init_random(seed)
    report = TrainingReport()
    for round_no in range(1, config.global_rounds + 1):
        for rows, x, y in batches:
            trained[rows] = _local_descent(model, x, y, config.local_epochs, config.learning_rate)
        flat = _weighted_sum(trained, sizes)
        model = _from_flat(flat)
        loss = mse_loss(model, train_x, train_y)
        r2 = r_squared(scaler.inverse_y(forward_batch(model, test_x)), test_y)
        if not (np.isfinite(flat).all() and math.isfinite(loss) and math.isfinite(r2)):
            raise FloatingPointError(
                f"round {round_no}: training diverged (learning rate "
                f"{config.learning_rate!r}): the aggregated parameters, loss or R^2 are not finite"
            )
        report.loss_per_round.append(loss)
        report.r2_per_round.append(r2)
    return report
