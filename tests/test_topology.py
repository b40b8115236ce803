import math

import numpy as np
import pytest

from vlcfed import SimConfig, distance, generate_topology
from vlcfed.config import ConfigError
from vlcfed.topology import ap_positions
from tests.conftest import make_user


def test_indoor_outdoor_split_matches_fraction():
    topo = generate_topology(SimConfig(n_users=50, indoor_fraction=0.8), seed=1)
    assert topo.n_users == 50
    assert topo.n_indoor == 40
    assert topo.n_outdoor == 10


def test_single_outdoor_user():
    topo = generate_topology(SimConfig(n_users=1, indoor_fraction=0.0), seed=3)
    assert topo.n_indoor == 0
    assert topo.n_outdoor == 1


def test_indoor_count_uses_conventional_rounding():
    topo = generate_topology(SimConfig(n_users=7, indoor_fraction=0.5), seed=0)
    assert topo.n_indoor == 4  # round(3.5) -> 4


def test_determinism_bit_identical():
    cfg = SimConfig(n_users=50)
    a = generate_topology(cfg, seed=7)
    b = generate_topology(cfg, seed=7)
    assert a == b
    c = generate_topology(cfg, seed=8)
    assert a != c


def test_all_users_inside_cell():
    for seed in range(5):
        topo = generate_topology(SimConfig(n_users=60), seed=seed)
        for u in topo.users:
            assert math.hypot(u.position[0], u.position[1]) <= topo.cell_radius_m + 1e-9


def test_indoor_users_near_an_ap():
    cfg = SimConfig(n_users=40, indoor_fraction=1.0)
    topo = generate_topology(cfg, seed=11)
    for u in topo.users:
        best = min(
            math.hypot(u.position[0] - ap[0], u.position[1] - ap[1])
            for ap in topo.vlc_aps
        )
        assert best <= cfg.indoor_spread_m + 1e-9


def test_radial_distribution_is_uniform_over_area():
    # Outdoor placement follows the uniform-area law P(d <= x) = (x/r)^2;
    # indoor users are deliberately re-clustered near APs, so test with
    # indoor_fraction = 0.
    scipy_stats = pytest.importorskip("scipy.stats")
    cfg = SimConfig(n_users=10_000, indoor_fraction=0.0)
    topo = generate_topology(cfg, seed=5)
    radii = np.array([math.hypot(u.position[0], u.position[1]) for u in topo.users])
    result = scipy_stats.kstest(radii, lambda x: (x / cfg.cell_radius_m) ** 2)
    assert result.statistic <= 0.02


def test_user_parameter_draws_respect_ranges():
    cfg = SimConfig(n_users=200)
    topo = generate_topology(cfg, seed=2)
    c_lo, c_hi = cfg.cycles_per_sample_range
    f_lo, f_hi = cfg.cpu_freq_range_hz
    p_lo, p_hi = cfg.tx_power_range_w
    for u in topo.users:
        assert c_lo <= u.cycles_per_sample <= c_hi
        assert f_lo <= u.cpu_freq_hz <= f_hi
        assert p_lo <= u.tx_power_w <= p_hi
        assert u.shard_size == cfg.samples_per_user
        assert u.energy_budget_j == cfg.energy_budget_j


def test_ap_positions_layout():
    cfg = SimConfig(n_vlc_aps=4)
    aps = ap_positions(cfg)
    assert len(aps) == 4
    z = cfg.receiver_plane_height_m + cfg.ap_height_above_plane_m
    radii = sorted(math.hypot(ap[0], ap[1]) for ap in aps)
    assert all(ap[2] == z for ap in aps)
    assert radii[0] == pytest.approx(0.2 * cfg.cell_radius_m)
    assert radii[-1] == pytest.approx(0.8 * cfg.cell_radius_m)

    explicit = SimConfig(n_vlc_aps=2, ap_ring_radii_m=(12.0, 31.0))
    aps2 = ap_positions(explicit)
    assert sorted(math.hypot(a[0], a[1]) for a in aps2) == pytest.approx([12.0, 31.0])


def test_rejects_bad_config():
    with pytest.raises(ConfigError):
        generate_topology(SimConfig(n_users=0), seed=0)
    with pytest.raises(ConfigError):
        generate_topology(SimConfig(indoor_fraction=1.2), seed=0)


def test_distance_examples():
    assert distance((0, 0, 0), (0, 0, 0)) == 0.0
    assert distance((3, 4, 0), (0, 0, 0)) == pytest.approx(5.0)
    assert distance((0, 0, 2.5), (0, 1.66, 0)) == pytest.approx(3.000933188193299, rel=1e-12)
    assert distance((1, 2, 3), (4, -1, 0)) == distance((4, -1, 0), (1, 2, 3))


USER_TERMS = ("cycles_per_sample", "cpu_freq_hz", "capacitance_coeff", "tx_power_w", "energy_budget_j")


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", USER_TERMS)
def test_user_rejects_a_term_the_link_table_cannot_use(name, value):
    with pytest.raises(ValueError, match=rf"user 7: {name} must be finite and > 0"):
        make_user(id=7, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", range(3))
def test_user_rejects_a_non_finite_position(axis, value):
    xyz = [10.0, 0.0, 0.85]
    xyz[axis] = value
    with pytest.raises(ValueError, match="user 3: position must be finite"):
        make_user(id=3, xy=tuple(xyz[:2]), z=xyz[2])


@pytest.mark.parametrize("size", [1, 9, np.int64(9), np.int32(1)])
def test_user_accepts_an_integer_shard_size(size):
    assert make_user(shard_size=size).shard_size == size


@pytest.mark.parametrize("size", [0, -3, np.int64(0), True, 2.5, 3.0, math.nan, math.inf, "9"])
def test_user_rejects_a_shard_size_that_is_no_positive_integer(size):
    with pytest.raises(ValueError, match="user 5: shard_size must be an integer >= 1"):
        make_user(id=5, shard_size=size)
