"""Federated regression training: a 13-10-1 network trained with FedAvg.

Each participant runs full-batch gradient descent on its shard against the
mean squared error J_n = (1/D_n) * sum_i 0.5 * (pred_i - y_i)^2, then the
server averages parameters weighted by shard size. The participants with one
shard size train together in one descent, built once per training call: their
models are the rows of one flat (K, 151) parameter stack, each epoch writes
their gradients into a second stack through buffers allocated with it and
updates the first in place, and the average adds the rows in participant
order. Results match training and averaging the models one by one bit for
bit. A round runs the training loss's forward pass, its divergence check,
only when a bound from the 11 output-layer parameters cannot clear it. Inputs
and targets are standardized with statistics of the training partition only;
the accuracy metric (coefficient of determination) is computed on the
original target scale.
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


def _sigmoid(z: np.ndarray, out=None, ez=None, positive=None) -> np.ndarray:
    """The logistic function of z into ``out``; ``ez`` and bool ``positive`` are scratch, new where None."""
    # exp(min(z, -z)) = exp(-|z|) cannot overflow and keeps a nan's sign. With
    # numerator 1 for z >= 0 and exp(z) below, each branch divides as its
    # two-branch form does: 1/(1+exp(-z)), exp(z)/(1+exp(z)).
    ez = np.negative(z, out=ez)
    np.exp(np.minimum(z, ez, out=ez), out=ez)
    numerator = np.maximum(ez, np.greater_equal(z, 0, out=positive), out=out)
    return np.divide(numerator, np.add(1.0, ez, out=ez), out=numerator)


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predictions for an (n, 13) batch; sigmoid hidden layer, linear output."""
    hidden = _sigmoid(x @ model.w1 + model.b1)
    return (hidden @ model.w2)[:, 0] + model.b2[0]


def mse_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """(1/n) * sum of squared-error halves over the batch."""
    err = forward_batch(model, x) - y
    return float(0.5 * np.mean(err * err))


def _loss_cleared(flat: np.ndarray, x_max: float, y_max: float) -> bool:
    """Whether mse_loss of the flat model is surely at most DIVERGED_LOSS on
    rows with every |x| at most x_max and |y| at most y_max.

    Hidden units lie in [0, 1], so |pred - y| <= sum|w2| + |b2| + y_max and the
    loss is at most half its square, with a margin for rounding. A unit leaves
    [0, 1] only as a nan where x @ w1 overflows, so x_max * sum|w1| + sum|b1|
    must stay far below overflow. A parameter that is not finite never clears.
    """
    into_hidden, hidden_bias, out_layer = np.add.reduceat(np.abs(flat), (0, *_ENDS[:2])).tolist()
    reach = out_layer + y_max
    return x_max * into_hidden + hidden_bias < 1e300 and 0.5 * reach * reach * (1.0 + 1e-6) <= DIVERGED_LOSS


class _Descent:
    """Full-batch gradient descent for K models on K equal-size shards at once.

    x is (K, n, 13) and y is (K, n); the (K, _N_PARAMS) ``params`` and
    ``grads`` stacks and every epoch intermediate are allocated once. Batched
    matmul runs each slice through the 2-D product's BLAS call and every
    reduction along one shard's axis: row k is model k trained alone, bit for bit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        k, n, _ = x.shape
        self.x, self.y, self.x_t, self.n = x, y, x.transpose(0, 2, 1), n
        self.params, self.grads = np.empty((k, _N_PARAMS)), np.empty((k, _N_PARAMS))
        self.p, self.g = _from_flat(self.params), _from_flat(self.grads)
        self.hidden, self.ez, self.dz = (np.empty((k, n, N_HIDDEN)) for _ in range(3))
        self.positive = np.empty((k, n, N_HIDDEN), dtype=bool)
        self.pred, self.err = np.empty((k, n, 1)), np.empty((k, n))

    def gradients(self) -> None:
        """Writes into ``grads`` the gradients of mse_loss at each row of ``params``."""
        p, g, hidden, err = self.p, self.g, self.hidden, self.err
        np.matmul(self.x, p.w1, out=hidden)
        hidden += p.b1[:, None, :]
        _sigmoid(hidden, hidden, self.ez, self.positive)
        np.add(np.matmul(hidden, p.w2, out=self.pred)[:, :, 0], p.b2, out=err)
        err -= self.y
        err /= self.n  # dJ/dpred_i
        np.matmul(hidden.transpose(0, 2, 1), err[:, :, None], out=g.w2)
        np.add.reduce(err, axis=1, out=g.b2[:, 0])
        dz = np.einsum("kn,kh->knh", err, p.w2[:, :, 0], out=self.dz)  # not np.multiply, which keeps -0.0 products
        dz *= hidden                                # sigmoid derivative, (dh * h) * (1 - h)
        dz *= np.subtract(1.0, hidden, out=hidden)
        np.matmul(self.x_t, dz, out=g.w1)
        np.einsum("knh->kh", dz, out=g.b1)

    def run(self, flat: np.ndarray, epochs: int, lr: float) -> np.ndarray:
        """``epochs`` steps of size ``lr`` from ``flat`` on every shard; returns ``params``, reused by the next run."""
        self.params[:] = flat
        for _ in range(epochs):
            self.gradients()
            self.grads *= lr
            self.params -= self.grads
        return self.params


def loss_gradients(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Analytic gradients of mse_loss w.r.t. (w1, b1, w2, b2)."""
    descent = _Descent(x[None], y[None])
    descent.params[:] = _flatten(model)
    descent.gradients()
    return _from_flat(descent.grads[0]).params()


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
    metric is test R^2 on the raw target scale. Each round also checks the
    training loss over the participants' rows, which weights each shard by
    its size, only to catch divergence: it raises FloatingPointError, naming
    the round, the learning rate and the loss, as soon as the averaged
    parameters or R^2 stop being finite or that loss exceeds
    ``DIVERGED_LOSS``. The loss is computed only where ``_loss_cleared``
    cannot clear it, which leaves every decision as the loss would make it.
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

    all_x = np.concatenate([s.x for s in shards], axis=0)
    all_y = np.concatenate([s.y for s in shards])
    x_mean, x_std = all_x.mean(axis=0), all_x.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)  # constant features pass through
    y_mean, y_std = float(all_y.mean()), float(all_y.std())
    y_std = y_std if y_std > 0 else 1.0
    xs = [(by_owner[n].x - x_mean) / x_std for n in participants]
    ys = [(by_owner[n].y - y_mean) / y_std for n in participants]
    sizes = [len(y) for y in ys]
    train_x = np.concatenate(xs, axis=0)
    train_y = np.concatenate(ys)
    test_x = (test_set.features - x_mean) / x_std
    test_r_squared = _r_squared_against(test_set.targets)

    # One descent per shard size (a single one for an equal partition); rows
    # of `trained` follow the sorted participants.
    by_size: dict[int, list[int]] = {}
    for pos, size in enumerate(sizes):
        by_size.setdefault(size, []).append(pos)
    batches = [
        (rows, _Descent(np.stack([xs[i] for i in rows]), np.stack([ys[i] for i in rows])))
        for rows in by_size.values()
    ]
    trained = np.empty((len(participants), _N_PARAMS))
    weights = (np.asarray(sizes) / float(sum(sizes)))[:, None]
    x_max, y_max = float(np.abs(train_x).max()), float(np.abs(train_y).max())

    flat = _flatten(MlpModel.init_random(seed))
    report = TrainingReport()
    for round_no in range(1, config.global_rounds + 1):
        for rows, descent in batches:
            stack = descent.run(flat, config.local_epochs, config.learning_rate)
            if len(batches) == 1:
                trained = stack
            else:
                trained[rows] = stack
        trained *= weights
        flat = _sum_rows(trained)
        model = _from_flat(flat)
        r2 = test_r_squared(forward_batch(model, test_x) * y_std + y_mean)
        if not (_loss_cleared(flat, x_max, y_max) and math.isfinite(r2)):
            loss = mse_loss(model, train_x, train_y)
            if not (np.isfinite(flat).all() and loss <= DIVERGED_LOSS and math.isfinite(r2)):  # a nan loss fails too
                raise FloatingPointError(
                    f"round {round_no}: training diverged (learning rate {config.learning_rate!r}): the aggregated "
                    f"parameters or R^2 are not finite, or the loss {loss!r} exceeds {DIVERGED_LOSS!r}"
                )
        report.r2_per_round.append(r2)
    return report
