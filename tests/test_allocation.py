import dataclasses
import math

import numpy as np
import pytest

from vlcfed import (
    BandwidthAllocation,
    EmptySelectionError,
    Selection,
    SimConfig,
    generate_topology,
    get_b,
    get_s,
    is_feasible,
    oracle_enumerate,
    selection_objective,
    usba,
)
from vlcfed.allocation import MODES, default_initial_bandwidth
from vlcfed.runner import random_instance
from tests.conftest import make_topology, make_user


def sel(indoor=(), outdoor=()):
    return Selection(frozenset(indoor), frozenset(outdoor))


class TestGetB:
    def test_reference_arithmetic(self):
        cfg = SimConfig()
        bw = get_b(sel(range(40), range(40, 50)), cfg)
        assert bw.b_up_hz == pytest.approx(20e6 / 60.0, rel=1e-15)
        assert bw.b_down_hz == bw.b_up_hz
        assert bw.b_vlc_hz == pytest.approx(1e6, rel=1e-15)

    def test_single_outdoor_user(self):
        bw = get_b(sel(outdoor=[3]), SimConfig())
        assert bw.b_up_hz == pytest.approx(10e6)
        assert bw.b_vlc_hz == 40e6  # unused, returned whole

    def test_single_indoor_user(self):
        bw = get_b(sel(indoor=[3]), SimConfig())
        assert bw.b_up_hz == pytest.approx(20e6)
        assert bw.b_vlc_hz == pytest.approx(40e6)

    def test_rf_only_mode_counts_downlinks_for_everyone(self):
        bw = get_b(sel(range(40), range(40, 50)), SimConfig(), mode="rf_only")
        assert bw.b_up_hz == pytest.approx(20e6 / 100.0)
        assert bw.b_vlc_hz == 40e6

    def test_empty_selection_rejected(self):
        with pytest.raises(EmptySelectionError):
            get_b(sel(), SimConfig())

    def test_budget_saturation_within_one_ulp(self):
        rng = np.random.default_rng(42)
        cfg = SimConfig()
        for _ in range(300):
            k1 = int(rng.integers(0, 60))
            k2 = int(rng.integers(0, 60))
            if k1 + k2 == 0:
                continue
            bw = get_b(sel(range(k1), range(100, 100 + k2)), cfg)
            blocks = (k1 + k2) + k2
            assert abs(blocks * bw.b_up_hz - cfg.rf_total_bandwidth_hz) <= math.ulp(
                cfg.rf_total_bandwidth_hz
            )
            if k1:
                assert abs(k1 * bw.b_vlc_hz - cfg.vlc_total_bandwidth_hz) <= math.ulp(
                    cfg.vlc_total_bandwidth_hz
                )

    def test_scale_equivariance(self):
        cfg = SimConfig()
        cfg2 = SimConfig(rf_total_bandwidth_hz=40e6, vlc_total_bandwidth_hz=80e6)
        s = sel(range(7), range(10, 15))
        a, b = get_b(s, cfg), get_b(s, cfg2)
        assert b.b_up_hz == pytest.approx(2 * a.b_up_hz, rel=1e-15)
        assert b.b_down_hz == pytest.approx(2 * a.b_down_hz, rel=1e-15)
        assert b.b_vlc_hz == pytest.approx(2 * a.b_vlc_hz, rel=1e-15)


class TestSelectionType:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Selection(frozenset([1]), frozenset([1]))

    def test_counts(self):
        s = sel([1, 2], [3])
        assert s.size == 3
        assert s.all_ids == frozenset([1, 2, 3])
        assert bool(s) and not bool(sel())


class TestIsFeasible:
    def test_compute_time_alone_can_kill(self, config):
        user = make_user(indoor=False, cycles_per_sample=1e9, cpu_freq_hz=1e8)  # ~62 s
        topo = make_topology([user])
        bw = BandwidthAllocation(20e6, 20e6, 40e6)
        assert not is_feasible(user, bw, topo, config)

    def test_compute_energy_alone_can_kill(self, config):
        user = make_user(indoor=False, cpu_freq_hz=1e10, cycles_per_sample=3e7,
                         energy_budget_j=0.5)
        topo = make_topology([user])
        bw = BandwidthAllocation(20e6, 20e6, 40e6)
        assert not is_feasible(user, bw, topo, config)

    def test_bandwidth_flips_indoor_feasibility(self, config):
        user = make_user(indoor=True, xy=(0.0, 1.0), tx_power_w=0.1)
        topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
        wide = BandwidthAllocation(1e6, 1e6, 40e6)
        tiny = BandwidthAllocation(1e3, 1e3, 40e6)
        assert is_feasible(user, wide, topo, config)
        assert not is_feasible(user, tiny, topo, config)

    def test_mode_validation(self, config):
        user = make_user()
        topo = make_topology([user])
        with pytest.raises(ValueError):
            is_feasible(user, BandwidthAllocation(1e6, 1e6, 1e6), topo, config, mode="other")


class TestGetS:
    def test_huge_bandwidth_selects_compute_envelope(self, config):
        users = [
            make_user(id=0, xy=(5.0, 0.0)),
            make_user(id=1, xy=(20.0, 3.0)),
            make_user(id=2, xy=(1.0, 1.0), cycles_per_sample=1e9, cpu_freq_hz=1e8),
        ]
        topo = make_topology(users)
        huge = BandwidthAllocation(1e12, 1e12, 1e12)
        got = get_s(huge, topo, config)
        assert got == sel(outdoor=[0, 1])  # user 2 is compute-bound

    def test_tiny_bandwidth_selects_nobody(self, config):
        topo = generate_topology(SimConfig(n_users=20), seed=0)
        got = get_s(BandwidthAllocation(1.0, 1.0, 1.0), topo, config)
        assert got == sel()

    def test_empty_topology(self, config):
        got = get_s(BandwidthAllocation(1e6, 1e6, 1e6), make_topology([]), config)
        assert got == sel()

    def test_monotone_in_bandwidth(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            topo, cfg = random_instance(rng)
            lo = np.array([rng.uniform(1e4, 5e5), rng.uniform(1e4, 5e5), rng.uniform(1e5, 2e7)])
            hi = lo * rng.uniform(1.0, 10.0, size=3)
            s_lo = get_s(BandwidthAllocation(*lo), topo, cfg)
            s_hi = get_s(BandwidthAllocation(*hi), topo, cfg)
            assert s_lo.indoor_ids <= s_hi.indoor_ids
            assert s_lo.outdoor_ids <= s_hi.outdoor_ids


class TestSelectionObjective:
    def test_empty_is_zero(self):
        assert selection_objective(sel(), make_topology([])) == 0.0

    def test_equal_shards(self):
        users = [make_user(id=i, shard_size=9) for i in range(30)]
        topo = make_topology(users)
        assert selection_objective(sel(outdoor=range(30)), topo) == 270.0

    def test_mixed_shards(self):
        users = [make_user(id=i, shard_size=d) for i, d in enumerate((3, 5, 7))]
        topo = make_topology(users)
        assert selection_objective(sel(outdoor=[0, 1, 2]), topo) == 15.0


class TestUsba:
    def test_all_feasible_converges_immediately(self):
        cfg = SimConfig(n_users=10, t_round_s=1e5)
        topo = generate_topology(cfg, seed=1)
        res = usba(topo, cfg)
        assert res.converged
        assert res.selection.size == 10
        assert res.iterations <= 2
        assert res.objective == 10 * cfg.samples_per_user

    def test_converged_result_is_fixed_point(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            topo, cfg = random_instance(rng)
            for mode in ("hybrid", "rf_only"):
                res = usba(topo, cfg, mode)
                if res.converged and res.selection:
                    again = get_s(get_b(res.selection, cfg, mode), topo, cfg, mode)
                    assert again == res.selection
                    checked += 1
        assert checked > 10

    def test_nobody_feasible_returns_empty_converged(self):
        cfg = SimConfig(n_users=5, t_round_s=1e-6)
        topo = generate_topology(cfg, seed=0)
        res = usba(topo, cfg)
        assert res.converged
        assert res.selection.size == 0
        assert res.objective == 0.0

    def test_constructed_oscillation_reports_consistent_state(self):
        # Identical outdoor users who all fit at wide blocks but all miss the
        # deadline once everyone shares the band: the alternation flip-flops
        # between everyone and nobody. The reported state must survive at its
        # own allocation and never exceed the exhaustive optimum.
        cfg = SimConfig(
            n_users=8,
            indoor_fraction=0.0,
            tx_power_range_w=(0.1, 0.1),
            cycles_per_sample_range=(2e4, 2e4),
            cpu_freq_range_hz=(1e9, 1e9),
            uplink_interference_w=1e-10,
            downlink_interference_w=1e-10,
            t_round_s=0.1,
        )
        topo = generate_topology(cfg, seed=12)
        # place all users at the same spot so they are exchangeable
        users = tuple(
            dataclasses.replace(u, position=(30.0, 0.0, 0.85)) for u in topo.users
        )
        topo = make_topology(users, aps=topo.vlc_aps)
        res = usba(topo, cfg)
        assert not res.converged
        assert res.objective <= oracle_enumerate(topo, cfg).objective
        if res.selection:
            supported = get_s(get_b(res.selection, cfg), topo, cfg)
            assert res.selection.indoor_ids <= supported.indoor_ids
            assert res.selection.outdoor_ids <= supported.outdoor_ids

    def test_determinism(self):
        cfg = SimConfig(n_users=30)
        topo = generate_topology(cfg, seed=3)
        a = usba(topo, cfg)
        b = usba(topo, cfg)
        assert a == b

    def test_hybrid_selects_more_than_rf_only_on_average(self):
        cfg = SimConfig(n_users=50)
        hy, rf = 0, 0
        for seed in range(8):
            topo = generate_topology(cfg, seed)
            hy += usba(topo, cfg, "hybrid").selection.size
            rf += usba(topo, cfg, "rf_only").selection.size
        assert hy > rf

    def test_respects_configured_initial_bandwidth(self):
        cfg = SimConfig(n_users=10, initial_bandwidth=(1e6, 1e6, 4e6))
        topo = generate_topology(cfg, seed=4)
        res = usba(topo, cfg)
        assert res.iterations >= 1  # ran the loop from the given start


class TestOracle:
    def test_rejects_large_instances(self):
        cfg = SimConfig(n_users=15)
        topo = generate_topology(cfg, seed=0)
        with pytest.raises(ValueError):
            oracle_enumerate(topo, cfg)

    def test_single_feasible_user_gets_solo_bandwidth(self, config):
        user = make_user(id=0, indoor=False, xy=(10.0, 0.0), tx_power_w=0.5)
        topo = make_topology([user])
        res = oracle_enumerate(topo, config)
        assert res.selection == sel(outdoor=[0])
        assert res.bandwidth.b_up_hz == pytest.approx(config.rf_total_bandwidth_hz / 2)
        assert res.objective == user.shard_size

    def test_identical_users_objective_is_count_times_shard(self):
        cfg = SimConfig(
            n_users=6,
            indoor_fraction=0.0,
            tx_power_range_w=(0.5, 0.5),
            cycles_per_sample_range=(2e4, 2e4),
            cpu_freq_range_hz=(1e9, 1e9),
            samples_per_user=7,
        )
        topo = generate_topology(cfg, seed=2)
        res = oracle_enumerate(topo, cfg)
        assert res.objective % 7 == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_usba_never_beats_oracle_and_matches_when_converged(self, mode):
        rng = np.random.default_rng(23)
        matches = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(3, 10))
            res = usba(topo, cfg, mode)
            ref = oracle_enumerate(topo, cfg, mode)
            # The oracle's count scan and get_b share one block-width rule.
            if ref.selection:
                assert ref.bandwidth == get_b(ref.selection, cfg, mode)
            assert res.objective <= ref.objective + 1e-9
            if res.converged:
                assert res.objective == pytest.approx(ref.objective)
                matches += 1
        assert matches >= 10

    def test_greedy_prefers_large_shards(self, config):
        users = [
            make_user(id=0, indoor=False, xy=(10.0, 0.0), shard_size=3, tx_power_w=0.5),
            make_user(id=1, indoor=False, xy=(10.0, 1.0), shard_size=20, tx_power_w=0.5),
        ]
        topo = make_topology(users)
        tight = config.replace(t_round_s=2.5)
        res = oracle_enumerate(topo, tight)
        if res.selection.size == 1:
            assert 1 in res.selection.outdoor_ids


class TestInitialBandwidth:
    def test_conservative_rule(self):
        cfg = SimConfig(n_users=50)
        topo = generate_topology(cfg, seed=0)
        bw = default_initial_bandwidth(topo, cfg, "hybrid")
        assert bw.b_up_hz == pytest.approx(20e6 / (50 + topo.n_outdoor))
        assert bw.b_vlc_hz == pytest.approx(40e6 / topo.n_indoor)
        # rf_only starts from the hybrid widths too, which are wider than its
        # own full-selection widths B_rf / 2N (333 kHz against 200 kHz here).
        rf_start = default_initial_bandwidth(topo, cfg, "rf_only")
        assert rf_start == bw
        everyone = sel([u.id for u in topo.indoor_users()], [u.id for u in topo.outdoor_users()])
        assert rf_start.b_up_hz > get_b(everyone, cfg, "rf_only").b_up_hz == 20e6 / 100

    def test_empty_topology_starts_from_solo_widths(self, config):
        bw = default_initial_bandwidth(make_topology([]), config)
        assert bw == BandwidthAllocation(
            config.rf_total_bandwidth_hz, config.rf_total_bandwidth_hz, config.vlc_total_bandwidth_hz
        )
