from pathlib import Path

import numpy as np
import pytest

from vlcfed import SimConfig, Topology, UserNode


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
