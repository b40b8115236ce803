from pathlib import Path

import numpy as np
import pytest

from vlcfed import Dataset, SimConfig, Topology, UserNode
from vlcfed.dataset import N_FEATURES

SYNTHETIC_NOISE_STD = 0.35  # of make_synthetic's target, in units of its signal std


@pytest.fixture
def config():
    return SimConfig().validate()


def make_user(
    id=0,
    xy=(10.0, 0.0),
    indoor=False,
    shard_size=9,
    cycles_per_sample=2e4,
    cpu_freq_hz=1e9,
    capacitance_coeff=2e-28,
    tx_power_w=0.1,
    energy_budget_j=2.0,
    z=0.85,
):
    return UserNode(
        id=id,
        position=(xy[0], xy[1], z),
        indoor=indoor,
        shard_size=shard_size,
        cycles_per_sample=cycles_per_sample,
        cpu_freq_hz=cpu_freq_hz,
        capacitance_coeff=capacitance_coeff,
        tx_power_w=tx_power_w,
        energy_budget_j=energy_budget_j,
    )


def make_synthetic(n_rows: int = 506, seed: int = 0) -> Dataset:
    """Deterministic regression corpus with the housing-file shape; the
    bundled corpus is ``make_synthetic(506, seed=2024)``.

    Features mix scales like real tabular data. The target combines a linear
    part with interactions and smooth nonlinearities, so a few hundred
    samples sit mid-learning-curve for a small network, plus Gaussian noise;
    it is rescaled to a housing-price-like range.
    """
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=N_FEATURES)
    shifts = rng.uniform(-5.0, 5.0, size=N_FEATURES)
    x = rng.normal(0.0, 1.0, size=(n_rows, N_FEATURES)) * scales + shifts
    x_std = (x - x.mean(axis=0)) / x.std(axis=0)
    weights = rng.normal(0.0, 1.0, size=N_FEATURES)
    weights /= np.linalg.norm(weights)
    nonlinear = (
        x_std[:, 0] * x_std[:, 1]
        + x_std[:, 2] * x_std[:, 3]
        + (x_std[:, 4] ** 2 - 1.0)
        + np.sin(2.0 * x_std[:, 5])
    )
    signal = x_std @ weights + nonlinear
    signal /= signal.std()
    y = 22.5 + 9.0 * (signal + rng.normal(0.0, SYNTHETIC_NOISE_STD, size=n_rows))
    return Dataset(x, y, f"synthetic(seed={seed})")


def write_dataset(data, path):
    """Write a Dataset in the CSV format ``load_dataset`` reads, each value
    at 17 significant digits, so it reads back exactly."""
    rows = np.column_stack((data.features, data.targets))
    header = [f"x{i + 1}" for i in range(data.features.shape[1])] + ["y"]
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_topology(users, aps=((0.0, 0.0, 3.35),), cell_radius=50.0):
    return Topology(
        cell_radius_m=cell_radius,
        bs_position=(0.0, 0.0),
        vlc_aps=tuple(aps),
        users=tuple(users),
    )
