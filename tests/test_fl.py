import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcfed import (
    DataShard,
    Dataset,
    MlpModel,
    NoParticipantsError,
    Selection,
    SimConfig,
    UndefinedMetricError,
    forward_batch,
    loss_gradients,
    mse_loss,
    required_global_rounds,
    run_federated_training,
    split_and_partition,
)
from vlcfed import fl
from tests.conftest import make_synthetic


def random_model(seed):
    return MlpModel.init_random(seed)


def zero_model():
    return fl._from_flat(np.zeros(fl._N_PARAMS))


def r_squared(pred, truth):
    """R^2 of ``pred`` as training scores it, against ``truth``."""
    return fl._r_squared_against(np.asarray(truth, dtype=float))(np.asarray(pred, dtype=float))


class Checks(list):
    """Each round's divergence check, in round order: [whether the
    output-layer bound cleared it, the training loss if it was computed]."""

    clears = True  # False: the bound never clears, so every round computes the loss


@pytest.fixture
def checks(monkeypatch):
    """The divergence checks of run_federated_training, as ``Checks``."""
    seen = Checks()
    loss_cleared = fl._loss_cleared

    def cleared(*args):
        seen.append([seen.clears and loss_cleared(*args), None])
        return seen[-1][0]

    def loss(*args):
        seen[-1][1] = mse_loss(*args)
        return seen[-1][1]

    monkeypatch.setattr(fl, "_loss_cleared", cleared)
    monkeypatch.setattr(fl, "mse_loss", loss)
    return seen


def random_batch(rng, n=6):
    return rng.normal(size=(n, 13)), rng.normal(size=n)


def predict(model, x):
    """The prediction for one 13-feature input."""
    return float(forward_batch(model, np.asarray(x, dtype=float)[None, :])[0])


def local_descent(model, x, y, epochs, lr):
    """The stack that a fresh descent from ``model`` trains on the (K, n, 13) shards x."""
    return fl._Descent(x, y).run(fl._flatten(model), epochs, lr)


def descend(model, shard, epochs, lr):
    """Local training on one shard: the stacked descent with K = 1."""
    return fl._from_flat(local_descent(model, shard.x[None], shard.y[None], epochs, lr)[0])


def stack_of(models):
    return np.stack([fl._flatten(m) for m in models])


def average(stack, sizes):
    """The FedAvg average of a (K, _N_PARAMS) stack, formed as training forms it."""
    weights = np.asarray(sizes) / float(sum(sizes))
    return fl._from_flat(fl._sum_rows(weights[:, None] * stack))


def standardizing(x, y):
    """The maps that standardize features and targets with the statistics of
    the training partition (x, y), a zero std read as 1, and the one that
    returns predictions to the target scale."""
    x_mean, x_std = x.mean(axis=0), x.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)
    y_mean, y_std = float(y.mean()), float(y.std())
    y_std = y_std if y_std > 0 else 1.0
    return lambda a: (a - x_mean) / x_std, lambda b: (b - y_mean) / y_std, lambda pred: pred * y_std + y_mean


class TestRequiredGlobalRounds:
    def test_examples(self):
        assert required_global_rounds(0.5) == 2
        assert required_global_rounds(0.9) == 10
        assert required_global_rounds(1e-9) == 1

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                required_global_rounds(bad)


class TestForward:
    def test_all_zero_model_predicts_zero(self):
        model = zero_model()
        assert predict(model, np.ones(13)) == 0.0

    def test_zero_first_layer_closed_form(self):
        rng = np.random.default_rng(0)
        model = zero_model()
        model.w2 = rng.normal(size=(10, 1))
        model.b2 = rng.normal(size=1)
        # hidden activations are all sigmoid(0) = 0.5
        expected = 0.5 * model.w2.sum() + model.b2[0]
        assert predict(model, rng.normal(size=13)) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(1)
        model = random_model(2)
        x = rng.normal(size=13)
        hidden = []
        for j in range(10):
            z = model.b1[j]
            for i in range(13):
                z += x[i] * model.w1[i, j]
            hidden.append(1.0 / (1.0 + math.exp(-z)))
        expected = model.b2[0]
        for j in range(10):
            expected += hidden[j] * model.w2[j, 0]
        assert predict(model, x) == pytest.approx(expected, rel=1e-12)


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        for case in range(10):
            model = random_model(100 + case)
            x, y = random_batch(rng)
            analytic = loss_gradients(model, x, y)
            eps = 1e-5
            for p_idx, param in enumerate(model.params()):
                flat = param.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    up = mse_loss(model, x, y)
                    flat[k] = orig - eps
                    down = mse_loss(model, x, y)
                    flat[k] = orig
                    numeric = (up - down) / (2 * eps)
                    a = analytic[p_idx].ravel()[k]
                    assert a == pytest.approx(numeric, rel=1e-4, abs=1e-10)


class TestLocalTrain:
    def shard(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        x, y = random_batch(rng, n)
        return DataShard(owner=0, x=x, y=y)

    def test_zero_learning_rate_is_identity(self):
        model = random_model(4)
        out = descend(model, self.shard(), epochs=3, lr=0.0)
        for a, b in zip(model.params(), out.params()):
            assert np.array_equal(a, b)

    def test_does_not_mutate_input_model(self):
        model = random_model(5)
        before = [p.copy() for p in model.params()]
        descend(model, self.shard(), epochs=2, lr=0.1)
        for a, b in zip(before, model.params()):
            assert np.array_equal(a, b)

    def test_loss_decreases_for_small_step(self):
        model = random_model(6)
        shard = self.shard(1)
        out = descend(model, shard, epochs=1, lr=0.01)
        assert mse_loss(out, shard.x, shard.y) < mse_loss(model, shard.x, shard.y)

    def test_empty_shard_rejected(self):
        empty = DataShard(owner=1, x=np.empty((0, 13)), y=np.empty(0))
        test = make_synthetic(10, seed=0)
        with pytest.raises(ValueError, match=r"users \[1\]: cannot train on an empty shard"):
            run_federated_training(Selection(frozenset(), frozenset([0, 1])), [self.shard(), empty], test, SimConfig(), 0)


class TestAggregate:
    def test_single_model_unchanged(self):
        model = random_model(7)
        out = average(stack_of([model]), [5])
        for a, b in zip(model.params(), out.params()):
            assert np.allclose(a, b, rtol=0, atol=0)

    def test_identical_models_any_weights(self):
        model = random_model(8)
        out = average(stack_of([model, model]), [1, 7])
        for a, b in zip(model.params(), out.params()):
            assert np.allclose(a, b, rtol=1e-15)

    def test_weighted_mean_of_scalars(self):
        a, b = zero_model(), zero_model()
        b.b2 = np.array([4.0])
        out = average(stack_of([a, b]), [1, 3])
        assert out.b2[0] == pytest.approx(3.0)

    def test_a_negative_zero_total_comes_out_positive(self):
        total = fl._sum_rows(np.array([[-0.0, 1.0], [-0.0, -1.0]]))
        assert total.tolist() == [0.0, 0.0]
        assert math.copysign(1.0, total[0]) == 1.0

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.permutations(range(4)))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant_and_in_hull(self, seed, order):
        models = [random_model(seed + i) for i in range(4)]
        sizes = [1, 2, 3, 4]
        base = average(stack_of(models), sizes)
        shuffled = average(stack_of([models[i] for i in order]), [sizes[i] for i in order])
        for a, b in zip(base.params(), shuffled.params()):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
        for p_idx, param in enumerate(base.params()):
            stack = np.stack([m.params()[p_idx] for m in models])
            assert (param >= stack.min(axis=0) - 1e-12).all()
            assert (param <= stack.max(axis=0) + 1e-12).all()


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 10.0])
        pred = np.full(4, truth.mean())
        assert r_squared(pred, truth) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_constant_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            r_squared([1.0, 2.0], [3.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        truth = rng.normal(size=20)
        pred = truth + rng.normal(scale=0.3, size=20)
        base = r_squared(pred, truth)
        scaled = r_squared(5.0 * pred - 2.0, 5.0 * truth - 2.0)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestRunFederatedTraining:
    @pytest.fixture
    def setup(self):
        data = make_synthetic(120, seed=0)
        shards, test = split_and_partition(data, n_users=6, test_size=15, seed=0)
        cfg = SimConfig(global_rounds=20, learning_rate=0.4, local_epochs=3)
        return shards, test, cfg

    def test_deterministic(self, setup):
        shards, test, cfg = setup
        selection = Selection(frozenset(), frozenset(range(6)))
        a = run_federated_training(selection, shards, test, cfg, seed=5)
        b = run_federated_training(selection, shards, test, cfg, seed=5)
        assert a.r2_per_round == b.r2_per_round

    def test_report_shapes(self, setup):
        shards, test, cfg = setup
        selection = Selection(frozenset(), frozenset(range(6)))
        rep = run_federated_training(selection, shards, test, cfg, seed=1)
        assert len(rep.r2_per_round) == cfg.global_rounds
        assert rep.final_r2 == rep.r2_per_round[-1]

    def test_empty_selection_rejected(self, setup):
        shards, test, cfg = setup
        with pytest.raises(NoParticipantsError):
            run_federated_training(Selection(frozenset(), frozenset()), shards, test, cfg, 0)

    def test_missing_shard_rejected(self, setup):
        shards, test, cfg = setup
        with pytest.raises(ValueError):
            run_federated_training(
                Selection(frozenset(), frozenset([99])), shards, test, cfg, 0
            )

    def test_finite_divergence_is_loud(self, checks):
        # At this step size the first round's loss is about 3e33, and without
        # the check R^2 would fall to -9e170 by round 5, all finite.
        data = make_synthetic(120, seed=0)
        shards, test = split_and_partition(data, n_users=8, test_size=20, seed=0)
        cfg = SimConfig(global_rounds=5, learning_rate=1e3)
        everyone = Selection(frozenset(), frozenset(range(8)))
        diverged = r"round 1: training diverged \(learning rate 1000\.0\)"
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=diverged) as raised:
                run_federated_training(everyone, shards, test, cfg, 0)
        # The bound cannot clear it, so the message names the computed loss.
        [[cleared, loss]] = checks
        assert not cleared and loss > fl.DIVERGED_LOSS
        assert f"the loss {loss!r} exceeds" in str(raised.value)
        # A stable step size keeps the loss near the 0.5 that predicting the
        # mean gives, and the bound clears every round without computing it.
        checks.clear()
        run_federated_training(everyone, shards, test, cfg.replace(learning_rate=0.1), 0)
        assert checks == [[True, None]] * cfg.global_rounds
        checks.clear()
        checks.clears = False
        run_federated_training(everyone, shards, test, cfg.replace(learning_rate=0.1), 0)
        assert len(checks) == cfg.global_rounds
        assert max(loss for _, loss in checks) < 10.0 < fl.DIVERGED_LOSS

    def test_single_user_round_equals_centralized_descent(self):
        # With all data on one user, one aggregation round is exactly plain
        # full-batch gradient descent with the same epochs and step size.
        data = make_synthetic(60, seed=2)
        shards, test = split_and_partition(data, n_users=1, test_size=10, seed=0)
        cfg = SimConfig(global_rounds=1, learning_rate=0.2, local_epochs=4)
        selection = Selection(frozenset(), frozenset([0]))
        rep = run_federated_training(selection, shards, test, cfg, seed=3)

        to_x, to_y, from_y = standardizing(shards[0].x, shards[0].y)
        shard_std = DataShard(0, to_x(shards[0].x), to_y(shards[0].y))
        model = descend(MlpModel.init_random(3), shard_std, epochs=4, lr=0.2)
        pred = from_y(forward_batch(model, to_x(test.features)))
        assert rep.final_r2 == pytest.approx(r_squared(pred, test.targets), rel=1e-12)

    def test_more_participants_do_not_hurt_on_average(self):
        data = make_synthetic(200, seed=4)
        shards, test = split_and_partition(data, n_users=8, test_size=20, seed=0)
        cfg = SimConfig(global_rounds=60, learning_rate=0.5, local_epochs=3)
        full = Selection(frozenset(), frozenset(range(8)))
        sub = Selection(frozenset(), frozenset(range(3)))
        full_r2, sub_r2 = [], []
        for seed in range(10):
            full_r2.append(run_federated_training(full, shards, test, cfg, seed).final_r2)
            sub_r2.append(run_federated_training(sub, shards, test, cfg, seed).final_r2)
        assert np.mean(full_r2) >= np.mean(sub_r2)


def two_branch_sigmoid(z):
    """The sign-split sigmoid that fl._sigmoid replaced, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def gradients_2d(model, x, y):
    """loss_gradients as plain 2-D numpy on one shard, the pre-batching code."""
    n = x.shape[0]
    hidden = two_branch_sigmoid(x @ model.w1 + model.b1)
    pred = (hidden @ model.w2)[:, 0] + model.b2[0]
    err = (pred - y) / n
    gw2 = (hidden.T @ err)[:, None]
    gb2 = np.array([err.sum()])
    dhidden = np.outer(err, model.w2[:, 0])
    dz = dhidden * hidden * (1.0 - hidden)
    return x.T @ dz, dz.sum(axis=0), gw2, gb2


def per_user_descent(model, x, y, epochs, lr):
    out = fl._from_flat(fl._flatten(model))  # a copy
    for _ in range(epochs):
        for param, grad in zip(out.params(), loss_gradients(out, x, y)):
            param -= lr * grad
    return out


def sequential_average(models, sizes):
    """Weighted average accumulated from zeros, one participant at a time."""
    total = float(sum(sizes))
    out = zero_model()
    for model, size in zip(models, sizes):
        for acc, param in zip(out.params(), model.params()):
            acc += (size / total) * param
    return out


def reference_fedavg(shards, test, cfg, seed):
    """Per-user FedAvg loop: the loss and R^2 trace run_federated_training must match."""
    to_x, to_y, from_y = standardizing(np.concatenate([s.x for s in shards]), np.concatenate([s.y for s in shards]))
    xs = [to_x(s.x) for s in shards]
    ys = [to_y(s.y) for s in shards]
    sizes = [len(y) for y in ys]
    model = MlpModel.init_random(seed)
    losses, r2s = [], []
    for _ in range(cfg.global_rounds):
        trained = [
            per_user_descent(model, x, y, cfg.local_epochs, cfg.learning_rate)
            for x, y in zip(xs, ys)
        ]
        model = sequential_average(trained, sizes)
        losses.append(mse_loss(model, np.concatenate(xs), np.concatenate(ys)))
        pred = from_y(forward_batch(model, to_x(test.features)))
        r2s.append(r_squared(pred, test.targets))
    return losses, r2s


def assert_same_model(a, b):
    for p, q in zip(a.params(), b.params()):
        assert p.shape == q.shape
        assert np.array_equal(p, q)


class TestBatchedKernel:
    """The stacked kernel must reproduce per-user training bit for bit."""

    def test_sigmoid_matches_two_branch_form_bitwise(self):
        edges = np.array(
            [0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0, 1e4, -1e4, np.nan, -np.nan, np.inf, -np.inf]
        )
        assert fl._sigmoid(edges).tobytes() == two_branch_sigmoid(edges).tobytes()
        z = np.random.default_rng(10).normal(scale=30.0, size=(48, 9, 10))
        assert fl._sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()

    @pytest.mark.parametrize("n", [1, 9, 24])
    def test_loss_gradients_keep_2d_arithmetic(self, n):
        rng = np.random.default_rng(n)
        for case in range(5):
            model = random_model(300 + case)
            x, y = random_batch(rng, n)
            for got, want in zip(loss_gradients(model, x, y), gradients_2d(model, x, y)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("epochs", [1, 5])
    @pytest.mark.parametrize("k", [1, 7, 48])
    def test_stacked_round_equals_per_user_loop(self, k, epochs):
        rng = np.random.default_rng(k * 10 + epochs)
        model = random_model(k)
        x = rng.normal(size=(k, 9, 13))
        y = rng.normal(size=(k, 9))
        sizes = [9] * k
        stack = local_descent(model, x, y, epochs, 0.6)
        singles = [per_user_descent(model, x[i], y[i], epochs, 0.6) for i in range(k)]
        for row, single in zip(stack, singles):
            assert_same_model(fl._from_flat(row), single)
        assert_same_model(average(stack, sizes), sequential_average(singles, sizes))

    @given(
        k=st.integers(1, 60),
        rows=st.integers(1, 30),
        epochs=st.integers(0, 6),
        lr=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_stacked_descent_equals_per_user_descent(self, k, rows, epochs, lr, seed):
        """Row i of a stacked descent equals training user i alone, bit for bit.

        This assumes that the BLAS kernel gives a stacked matmul's slices the
        bits of the 2-D product. The SkylakeX, Haswell and Sandybridge kernels
        of OpenBLAS do; its Prescott kernel does not (k=2, rows=1, epochs=1
        fails), so under OPENBLAS_CORETYPE=Prescott this test fails.
        """
        rng = np.random.default_rng(seed)
        model = random_model(seed)
        x = rng.normal(size=(k, rows, 13))
        y = rng.normal(size=(k, rows))
        stack = local_descent(model, x, y, epochs, lr)
        for i, row in enumerate(stack):
            assert_same_model(fl._from_flat(row), per_user_descent(model, x[i], y[i], epochs, lr))

    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=60),
        negative_zero=st.booleans(),
        big_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_weighted_sum_equals_sequential_average(self, sizes, negative_zero, big_row, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(len(sizes), fl._N_PARAMS))
        if negative_zero:
            stack[:, rng.integers(fl._N_PARAMS)] = -0.0  # a -0.0 total
        if big_row:
            stack[rng.integers(len(sizes))] *= 1e16
        models = [fl._from_flat(row) for row in stack]
        got = average(stack, sizes)
        want = sequential_average(models, sizes)
        for p, q in zip(got.params(), want.params()):
            assert p.tobytes() == q.tobytes()

    def test_average_adds_in_participant_order(self):
        # numpy sums a (K, 1) column pairwise; for these b2 values that keeps
        # the ones that in-order addition rounds away against 1e16.
        models = [zero_model() for _ in range(16)]
        for i, model in enumerate(models):
            model.b2 = np.array([1e16 if i == 0 else 1.0])
        sizes = [1] * 16
        column = np.array([[(1 / 16) * m.b2[0]] for m in models])
        expected = sequential_average(models, sizes).b2
        assert column.sum(axis=0) != expected  # the case tells the two orders apart
        assert np.array_equal(average(stack_of(models), sizes).b2, expected)

    def test_stacked_gradients_match_central_finite_differences(self):
        rng = np.random.default_rng(13)
        models = [random_model(400 + i) for i in range(3)]
        x = rng.normal(size=(3, 6, 13))
        y = rng.normal(size=(3, 6))
        descent = fl._Descent(x, y)
        descent.params[:] = np.stack([fl._flatten(m) for m in models])
        descent.gradients()
        stacked = fl._from_flat(descent.grads).params()
        eps = 1e-5
        for i, model in enumerate(models):
            for p_idx, param in enumerate(model.params()):
                flat = param.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + eps
                    up = mse_loss(model, x[i], y[i])
                    flat[j] = orig - eps
                    down = mse_loss(model, x[i], y[i])
                    flat[j] = orig
                    numeric = (up - down) / (2 * eps)
                    assert stacked[p_idx][i].ravel()[j] == pytest.approx(numeric, rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("epochs", [1, 5])
    @pytest.mark.parametrize(
        "sizes",
        [[9] * 7, [9, 12, 9, 7, 12, 9, 10], [9, 10, 12] * 16],
        ids=["equal7", "mixed7", "mixed48"],
    )
    def test_training_equals_reference_fedavg(self, sizes, epochs, checks):
        data = make_synthetic(sum(sizes) + 15, seed=len(sizes))
        bounds = np.cumsum([0] + sizes)
        shards = [
            DataShard(owner=i, x=data.features[a:b], y=data.targets[a:b])
            for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        test = Dataset(data.features[bounds[-1]:], data.targets[bounds[-1]:], "test")
        cfg = SimConfig(global_rounds=3, learning_rate=0.6, local_epochs=epochs)
        selection = Selection(frozenset(range(len(sizes))), frozenset())
        report = run_federated_training(selection, shards, test, cfg, seed=7)
        reference_losses, r2s = reference_fedavg(shards, test, cfg, seed=7)
        assert report.r2_per_round == r2s
        assert len(checks) == len(reference_losses)
        for (cleared, loss), reference_loss in zip(checks, reference_losses):
            assert (cleared or loss <= fl.DIVERGED_LOSS) == (reference_loss <= fl.DIVERGED_LOSS)
            assert cleared or loss == reference_loss
        # Without the bound every round computes the loss, which must be the
        # reference's bit for bit.
        checks.clear()
        checks.clears = False
        assert run_federated_training(selection, shards, test, cfg, seed=7).r2_per_round == r2s
        assert [loss for _, loss in checks] == reference_losses

    def test_a_constant_column_reads_its_zero_std_as_one(self):
        # A feature and the target that never vary over the training partition
        # standardize to zeros, and R^2 is still scored on the varied test rows.
        data = make_synthetic(45, seed=3)
        x = data.features[:30].copy()
        x[:, 4] = 2.5
        shards = [DataShard(i, x[10 * i:10 * (i + 1)], np.full(10, 3.0)) for i in range(3)]
        test = Dataset(data.features[30:], data.targets[30:], "test")
        cfg = SimConfig(global_rounds=3, learning_rate=0.6, local_epochs=2)
        report = run_federated_training(Selection(frozenset(), frozenset(range(3))), shards, test, cfg, seed=7)
        assert report.r2_per_round == reference_fedavg(shards, test, cfg, seed=7)[1]
        assert all(math.isfinite(r2) for r2 in report.r2_per_round)

    @pytest.mark.parametrize("sizes", [[9] * 7, [9, 12, 9, 7, 12, 9, 10]], ids=["equal7", "mixed7"])
    def test_a_descent_keeps_nothing_between_runs(self, sizes):
        # One descent per shard size, as training builds them, run from two
        # start models in turn gives the stacks of fresh descents.
        rng = np.random.default_rng(len(set(sizes)))
        shards = [(rng.normal(size=(size, 13)), rng.normal(size=size)) for size in sizes]
        by_size = {}
        for pos, size in enumerate(sizes):
            by_size.setdefault(size, []).append(pos)

        def descents():
            return [
                fl._Descent(np.stack([shards[i][0] for i in rows]), np.stack([shards[i][1] for i in rows]))
                for rows in by_size.values()
            ]

        reused = descents()
        for start, epochs, lr in ((random_model(1), 5, 0.6), (random_model(2), 3, 0.3)):
            flat = fl._flatten(start)
            for kept, fresh in zip(reused, descents()):
                assert kept.run(flat, epochs, lr).tobytes() == fresh.run(flat, epochs, lr).tobytes()


class TestDivergenceBound:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 30),
        w1_scale=st.floats(0.0, 1e308),
        b1_scale=st.floats(0.0, 1e308),
        reach=st.one_of(st.floats(0.999, 1.001), st.integers(-64, 64).map(lambda k: 1.0 + k * 2.0**-52)),
        saturate=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_cleared_bound_never_hides_a_diverged_loss(self, seed, rows, w1_scale, b1_scale, reach, saturate):
        """Whenever the bound clears, the loss is at most DIVERGED_LOSS.

        The output layer puts the bound within 0.1% of the threshold, or
        within a few ulps, and w1 and b1 reach overflow. With ``saturate``,
        every hidden unit sits at 1, every output weight is positive and
        every target is -max|y|, so the loss meets the bound.
        """
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(rows, 13)), rng.normal(size=rows)
        w1 = rng.uniform(-1.0, 1.0, size=(13, 10)) * w1_scale
        b1 = rng.uniform(-1.0, 1.0, size=10) * b1_scale
        out = rng.uniform(0.0, 1.0, size=11)
        if saturate:
            w1, b1, y = w1 * 1e-3, np.full(10, 50.0), np.full(rows, -np.abs(y).max())
        else:
            out *= rng.choice([-1.0, 1.0], size=11)
        y_max = float(np.abs(y).max())
        out *= (reach * math.sqrt(2 * fl.DIVERGED_LOSS) - y_max) / np.abs(out).sum()
        flat = np.concatenate([w1.ravel(), b1, out])
        with np.errstate(all="ignore"):
            if fl._loss_cleared(flat, float(np.abs(x).max()), y_max):
                assert mse_loss(fl._from_flat(flat), x, y) <= fl.DIVERGED_LOSS

    def test_a_first_layer_that_can_overflow_never_clears(self):
        # Summed from rounded products, as a kernel without fused multiply-add
        # sums them, x @ w1 overflows into nan, and a nan hidden unit escapes
        # the output-layer bound. Here that layer alone would clear.
        x = np.full((1, 13), 20.0)
        flat = np.zeros(fl._N_PARAMS)
        w1 = fl._from_flat(flat).w1
        w1[0, 0], w1[1, 0] = 1e307, -1e307
        with np.errstate(all="ignore"):
            assert np.isnan((x[:, :, None] * w1).sum(axis=1)).any()
        assert not fl._loss_cleared(flat, 20.0, 1.0)

    def test_a_parameter_that_is_not_finite_never_clears(self):
        for bad in (np.inf, -np.inf, np.nan):
            for index in (0, fl._ENDS[0], fl._ENDS[1], fl._N_PARAMS - 1):
                flat = np.zeros(fl._N_PARAMS)
                flat[index] = bad
                assert not fl._loss_cleared(flat, 1.0, 1.0)
