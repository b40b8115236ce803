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
    aggregate,
    forward,
    forward_batch,
    local_train,
    loss_gradients,
    make_synthetic,
    mse_loss,
    r_squared,
    required_global_rounds,
    run_federated_training,
    split_and_partition,
)
from vlcfed import fl


def random_model(seed):
    return MlpModel.init_random(seed)


def random_batch(rng, n=6):
    return rng.normal(size=(n, 13)), rng.normal(size=n)


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
        model = MlpModel.zeros()
        assert forward(model, np.ones(13)) == 0.0

    def test_zero_first_layer_closed_form(self):
        rng = np.random.default_rng(0)
        model = MlpModel.zeros()
        model.w2 = rng.normal(size=(10, 1))
        model.b2 = rng.normal(size=1)
        # hidden activations are all sigmoid(0) = 0.5
        expected = 0.5 * model.w2.sum() + model.b2[0]
        assert forward(model, rng.normal(size=13)) == pytest.approx(expected, rel=1e-12)

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
        assert forward(model, x) == pytest.approx(expected, rel=1e-12)


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
        out = local_train(model, self.shard(), epochs=3, lr=0.0)
        for a, b in zip(model.params(), out.params()):
            assert np.array_equal(a, b)

    def test_does_not_mutate_input_model(self):
        model = random_model(5)
        before = [p.copy() for p in model.params()]
        local_train(model, self.shard(), epochs=2, lr=0.1)
        for a, b in zip(before, model.params()):
            assert np.array_equal(a, b)

    def test_loss_decreases_for_small_step(self):
        model = random_model(6)
        shard = self.shard(1)
        out = local_train(model, shard, epochs=1, lr=0.01)
        assert mse_loss(out, shard.x, shard.y) < mse_loss(model, shard.x, shard.y)

    def test_empty_shard_rejected(self):
        empty = DataShard(owner=0, x=np.empty((0, 13)), y=np.empty(0))
        with pytest.raises(ValueError):
            local_train(random_model(0), empty, epochs=1, lr=0.1)


class TestAggregate:
    def test_single_model_unchanged(self):
        model = random_model(7)
        out = aggregate([model], [5])
        for a, b in zip(model.params(), out.params()):
            assert np.allclose(a, b, rtol=0, atol=0)

    def test_identical_models_any_weights(self):
        model = random_model(8)
        out = aggregate([model, model.copy()], [1, 7])
        for a, b in zip(model.params(), out.params()):
            assert np.allclose(a, b, rtol=1e-15)

    def test_weighted_mean_of_scalars(self):
        a, b = MlpModel.zeros(), MlpModel.zeros()
        b.b2 = np.array([4.0])
        out = aggregate([a, b], [1, 3])
        assert out.b2[0] == pytest.approx(3.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            aggregate([random_model(0)], [1, 2])
        with pytest.raises(ValueError):
            aggregate([random_model(0)], [0])

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.permutations(range(4)))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant_and_in_hull(self, seed, order):
        models = [random_model(seed + i) for i in range(4)]
        sizes = [1, 2, 3, 4]
        base = aggregate(models, sizes)
        shuffled = aggregate([models[i] for i in order], [sizes[i] for i in order])
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
        assert a.loss_per_round == b.loss_per_round

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

    def test_single_user_round_equals_centralized_descent(self):
        # With all data on one user, one aggregation round is exactly plain
        # full-batch gradient descent with the same epochs and step size.
        data = make_synthetic(60, seed=2)
        shards, test = split_and_partition(data, n_users=1, test_size=10, seed=0)
        cfg = SimConfig(global_rounds=1, learning_rate=0.2, local_epochs=4)
        selection = Selection(frozenset(), frozenset([0]))
        rep = run_federated_training(selection, shards, test, cfg, seed=3)

        from vlcfed.fl import Standardizer

        scaler = Standardizer.fit(shards[0].x, shards[0].y)
        shard_std = DataShard(0, scaler.transform_x(shards[0].x), scaler.transform_y(shards[0].y))
        model = local_train(MlpModel.init_random(3), shard_std, epochs=4, lr=0.2)
        pred = scaler.inverse_y(forward_batch(model, scaler.transform_x(test.features)))
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
    out = model.copy()
    for _ in range(epochs):
        for param, grad in zip(out.params(), loss_gradients(out, x, y)):
            param -= lr * grad
    return out


def sequential_average(models, sizes):
    """Weighted average accumulated from zeros, one participant at a time."""
    total = float(sum(sizes))
    out = MlpModel.zeros()
    for model, size in zip(models, sizes):
        for acc, param in zip(out.params(), model.params()):
            acc += (size / total) * param
    return out


def reference_fedavg(shards, test, cfg, seed):
    """Per-user FedAvg loop: the loss and R^2 trace run_federated_training must match."""
    scaler = fl.Standardizer.fit(
        np.concatenate([s.x for s in shards]), np.concatenate([s.y for s in shards])
    )
    xs = [scaler.transform_x(s.x) for s in shards]
    ys = [scaler.transform_y(s.y) for s in shards]
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
        pred = scaler.inverse_y(forward_batch(model, scaler.transform_x(test.features)))
        r2s.append(r_squared(pred, test.targets))
    return losses, r2s


def assert_same_model(a, b):
    for p, q in zip(a.params(), b.params()):
        assert p.shape == q.shape
        assert np.array_equal(p, q)


class TestBatchedKernel:
    """The stacked kernel must reproduce per-user training bit for bit."""

    def test_sigmoid_matches_two_branch_form_bitwise(self):
        edges = np.array([0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0, 745.0, -745.0, 1e4, -1e4])
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
        stack = fl._local_descent(model, x, y, epochs, 0.6)
        singles = [per_user_descent(model, x[i], y[i], epochs, 0.6) for i in range(k)]
        for row, single in zip(stack, singles):
            assert_same_model(fl._from_flat(row), single)
        assert_same_model(fl._from_flat(fl._weighted_sum(stack, sizes)), sequential_average(singles, sizes))

    def test_average_adds_in_participant_order(self):
        # numpy sums a (K, 1) column pairwise; for these b2 values that keeps
        # the ones that in-order addition rounds away against 1e16.
        models = [MlpModel.zeros() for _ in range(16)]
        for i, model in enumerate(models):
            model.b2 = np.array([1e16 if i == 0 else 1.0])
        sizes = [1] * 16
        column = np.array([[(1 / 16) * m.b2[0]] for m in models])
        expected = sequential_average(models, sizes).b2
        assert column.sum(axis=0) != expected  # the case tells the two orders apart
        assert np.array_equal(aggregate(models, sizes).b2, expected)

    def test_stacked_gradients_match_central_finite_differences(self):
        rng = np.random.default_rng(13)
        models = [random_model(400 + i) for i in range(3)]
        x = rng.normal(size=(3, 6, 13))
        y = rng.normal(size=(3, 6))
        stacked_params = [np.stack(group) for group in zip(*(m.params() for m in models))]
        stacked = fl._stacked_gradients(*stacked_params, x, y)
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
    def test_training_equals_reference_fedavg(self, sizes, epochs):
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
        losses, r2s = reference_fedavg(shards, test, cfg, seed=7)
        assert report.loss_per_round == losses
        assert report.r2_per_round == r2s
