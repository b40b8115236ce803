import csv
import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcfed import (
    BandwidthAllocation,
    ConfigError,
    EmptySelectionError,
    RfParams,
    Selection,
    SimConfig,
    VlcParams,
    cost_breakdown,
    generate_topology,
    get_b,
    get_s,
    is_feasible,
    oracle_enumerate,
    rf_channel_gain,
    rf_rate,
    selection_objective,
    usba,
    vlc_rate,
    vlc_sinr,
)
from vlcfed.allocation import MODES, ORACLE_MAX_USERS, _LinkTable, block_widths, default_initial_bandwidth
from vlcfed.runner import random_instance
from tests.conftest import make_topology, make_user


def sel(indoor=(), outdoor=()):
    return Selection(frozenset(indoor), frozenset(outdoor))


class PassCounter:
    """Counts link-table feasibility passes while the test runs."""

    def __init__(self, monkeypatch):
        self.count = 0
        feasible = _LinkTable.feasible

        def counted(table, bw):
            self.count += 1
            return feasible(table, bw)

        monkeypatch.setattr(_LinkTable, "feasible", counted)


def with_unequal_shards(topo, rng, high=6):
    """The same topology with each shard size drawn from 1..high."""
    users = tuple(dataclasses.replace(u, shard_size=int(rng.integers(1, high + 1))) for u in topo.users)
    return dataclasses.replace(topo, users=users)


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

    @staticmethod
    def oscillating_instance():
        """Identical outdoor users who all fit at wide blocks but all miss the
        deadline once everyone shares the band: the alternation flip-flops
        between everyone and nobody."""
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
        return make_topology(users, aps=topo.vlc_aps), cfg

    def test_constructed_oscillation_reports_consistent_state(self):
        # The reported state must survive at its own allocation and never
        # exceed the exhaustive optimum.
        topo, cfg = self.oscillating_instance()
        res = usba(topo, cfg)
        assert not res.converged
        assert res.objective <= oracle_enumerate(topo, cfg).objective
        if res.selection:
            supported = get_s(get_b(res.selection, cfg), topo, cfg)
            assert res.selection.indoor_ids <= supported.indoor_ids
            assert res.selection.outdoor_ids <= supported.outdoor_ids

    def test_each_state_is_tested_once(self, monkeypatch):
        # At most one feasibility pass for the start, one for the solo
        # restart, one per step (which also tests the state it steps from)
        # and one for the step that tests the last state when the iterations
        # run out; the self-support test must not evaluate a visited state a
        # second time.
        passes = PassCounter(monkeypatch)
        instances = [self.oscillating_instance()]
        rng = np.random.default_rng(5)
        instances += [random_instance(rng, n_range=(4, 40)) for _ in range(12)]
        cfg = SimConfig(n_users=160, max_iterations=3)
        instances.append((generate_topology(cfg, 0), cfg))
        nonconverged = 0
        for topo, cfg in instances:
            for mode in MODES:
                passes.count = 0
                res = usba(topo, cfg, mode)
                assert passes.count <= res.iterations + 3, (mode, res)
                nonconverged += not res.converged
        assert nonconverged >= 5

    def test_a_fixed_point_is_confirmed_without_a_pass(self, monkeypatch):
        # A step whose widths equal the current ones finds the current
        # selection again without a pass. So a converged run makes one pass
        # for the start, one for a solo restart and one per iteration but the
        # last, which only confirms the fixed point.
        passes = PassCounter(monkeypatch)
        rng = np.random.default_rng(19)
        converged = restarted = 0
        for _ in range(60):
            topo, cfg = random_instance(rng, n_range=(1, 40))
            if rng.uniform() < 0.5:
                cfg = cfg.replace(initial_bandwidth=tuple(float(10 ** rng.uniform(3, 7.5)) for _ in range(3)))
            start = BandwidthAllocation(*cfg.initial_bandwidth) if cfg.initial_bandwidth else None
            start = start or default_initial_bandwidth(topo, cfg)
            for mode in MODES:
                restart = not get_s(start, topo, cfg, mode)
                passes.count = 0
                res = usba(topo, cfg, mode)
                if res.converged:
                    assert passes.count == 1 + restart + max(res.iterations - 1, 0), (mode, res)
                    converged += 1
                    restarted += restart
        assert converged >= 30
        assert restarted >= 5

    @pytest.mark.parametrize(
        "seed, mode, ids",
        [(5, "hybrid", {0, 15, 19}), (1071, "hybrid", {25}), (698, "rf_only", {1, 10, 13, 15, 17, 31, 32, 33})],
    )
    def test_ties_go_to_the_first_self_supporting_state(self, seed, mode, ids):
        # From these starts the iteration visits two self-supporting states of
        # equal objective before it stops; the first one visited is reported.
        rng = np.random.default_rng(seed)
        topo, cfg = random_instance(rng, n_range=(1, 40))
        start = tuple(float(10 ** rng.uniform(3, 7.5)) for _ in range(3))
        cfg = cfg.replace(initial_bandwidth=start, max_iterations=int(rng.integers(1, 6)))
        res = usba(topo, cfg, mode)
        assert not res.converged
        assert res.selection.all_ids == ids

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

    @staticmethod
    def brute_force_objective(topo, cfg, mode):
        """Best objective over every subset whose members are all feasible at
        the subset's own get_b widths."""
        best = 0.0
        feasible_at = {}
        for r in range(1, topo.n_users + 1):
            for subset in itertools.combinations(topo.users, r):
                s = sel([u.id for u in subset if u.indoor], [u.id for u in subset if not u.indoor])
                bw = get_b(s, cfg, mode)
                if bw not in feasible_at:
                    feasible_at[bw] = get_s(bw, topo, cfg, mode).all_ids
                if s.all_ids <= feasible_at[bw]:
                    best = max(best, float(sum(u.shard_size for u in subset)))
        return best

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_brute_force_over_subsets(self, mode):
        rng = np.random.default_rng(31)
        nonempty = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(1, 10))
            for t in (topo, with_unequal_shards(topo, rng)):
                res = oracle_enumerate(t, cfg, mode)
                assert res.objective == self.brute_force_objective(t, cfg, mode)
                nonempty += bool(res.selection)
        assert nonempty >= 20

    def test_at_most_one_pass_per_user_plus_one(self, monkeypatch):
        # Equal shards, as generate_topology gives: one pass per step of the
        # staircase walk, not one per (k1, k2) count pair.
        passes = PassCounter(monkeypatch)
        rng = np.random.default_rng(37)
        grid_larger = 0
        for _ in range(30):
            topo, cfg = random_instance(rng, n_range=(1, ORACLE_MAX_USERS))
            grid_larger += (topo.n_indoor + 1) * (topo.n_outdoor + 1) - 1 > topo.n_users + 1
            for mode in MODES:
                passes.count = 0
                oracle_enumerate(topo, cfg, mode)
                assert passes.count <= topo.n_users + 1, (mode, topo.n_indoor, topo.n_outdoor)
        assert grid_larger >= 10

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), mode=st.sampled_from(MODES))
    @settings(max_examples=60, deadline=None)
    def test_passing_count_pairs_are_down_closed(self, seed, mode):
        # (k1, k2) passes when at least k1 indoor and k2 outdoor users are
        # feasible at block_widths(k1, k2). Widths shrink as either count
        # grows and feasibility is monotone in width, so a passing pair's
        # lower neighbours pass too: the fact the oracle's walk rests on.
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, ORACLE_MAX_USERS))
        indoor = np.array([u.indoor for u in topo.users], dtype=bool)
        links = _LinkTable(topo.users, topo, cfg, mode)
        passes = np.ones((topo.n_indoor + 1, topo.n_outdoor + 1), dtype=bool)
        for k1, k2 in itertools.product(range(topo.n_indoor + 1), range(topo.n_outdoor + 1)):
            if k1 or k2:
                mask = links.feasible(block_widths(k1, k2, cfg, mode))
                passes[k1, k2] = mask[indoor].sum() >= k1 and mask[~indoor].sum() >= k2
        assert (passes[1:, :] <= passes[:-1, :]).all()
        assert (passes[:, 1:] <= passes[:, :-1]).all()

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
        bw = default_initial_bandwidth(topo, cfg)
        assert bw.b_up_hz == pytest.approx(20e6 / (50 + topo.n_outdoor))
        assert bw.b_vlc_hz == pytest.approx(40e6 / topo.n_indoor)
        # rf_only starts from these hybrid widths too, which are wider than
        # its own full-selection widths B_rf / 2N (333 kHz against 200 kHz here).
        everyone = sel([u.id for u in topo.indoor_users()], [u.id for u in topo.outdoor_users()])
        assert bw.b_up_hz > get_b(everyone, cfg, "rf_only").b_up_hz == 20e6 / 100

    def test_empty_topology_starts_from_solo_widths(self, config):
        bw = default_initial_bandwidth(make_topology([]), config)
        assert bw == BandwidthAllocation(
            config.rf_total_bandwidth_hz, config.rf_total_bandwidth_hz, config.vlc_total_bandwidth_hz
        )


def _reference_cost(user, bw, topo, cfg, mode):
    """One user's round cost from the public scalar functions, or None when a
    link has no rate: the per-user evaluation that the link table replaced."""
    rf = RfParams.from_config(cfg)
    d = math.hypot(user.position[0] - topo.bs_position[0], user.position[1] - topo.bs_position[1])
    h = rf_channel_gain(d, user.indoor, rf)
    up = rf_rate(user.tx_power_w, h, rf.uplink_interference_w, bw.b_up_hz, rf.noise_psd)
    via_vlc = mode == "hybrid" and user.indoor
    if via_vlc:
        down = vlc_rate(vlc_sinr(user, topo, bw.b_vlc_hz, VlcParams.from_config(cfg)), bw.b_vlc_hz)
    else:
        down = rf_rate(rf.bs_power_w, h, rf.downlink_interference_w, bw.b_down_hz, rf.noise_psd)
    if up <= 0.0 or down <= 0.0:
        return None
    return cost_breakdown(user, up, down, cfg, via_vlc)


def _reference_selection(bw, topo, cfg, mode):
    indoor, outdoor = set(), set()
    for user in topo.users:
        cost = _reference_cost(user, bw, topo, cfg, mode)
        if cost and cost.round_time <= cfg.t_round_s and cost.total_energy <= user.energy_budget_j:
            (indoor if user.indoor else outdoor).add(user.id)
    return sel(indoor, outdoor)


log_width = st.floats(min_value=2.0, max_value=8.0)


class TestLinkTableMatchesPerUserReference:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fov=st.sampled_from([20.0, 45.0, 90.0]),
        widths=st.tuples(log_width, log_width, log_width),
        mode=st.sampled_from(MODES),
        backhaul=st.sampled_from([0.05, math.inf, math.nan]),
    )
    @settings(max_examples=200, deadline=None)
    def test_get_s_equals_reference(self, seed, fov, widths, mode, backhaul):
        topo, cfg = random_instance(np.random.default_rng(seed), n_range=(1, 40))
        # Narrow views give VLC users rate 0. A SimConfig rejects a non-finite
        # backhaul delay when it is built, so the delay is set on the frozen
        # instance afterwards; the table must still charge such a delay to the
        # VLC-served users only.
        cfg = cfg.replace(fov_half_angle_deg=fov)
        object.__setattr__(cfg, "backhaul_delay_s", backhaul)
        bw = BandwidthAllocation(*(10.0**w for w in widths))
        expected = _reference_selection(bw, topo, cfg, mode)
        assert get_s(bw, topo, cfg, mode) == expected
        assert {u.id for u in topo.users if is_feasible(u, bw, topo, cfg, mode)} == expected.all_ids

    @pytest.mark.parametrize("mode", MODES)
    def test_round_time_equal_to_budget_is_feasible(self, mode):
        cfg = SimConfig(n_users=12, energy_budget_j=1e9)
        topo = generate_topology(cfg, seed=5)
        bw = default_initial_bandwidth(topo, cfg)
        user = topo.users[3]
        round_time = _reference_cost(user, bw, topo, cfg, mode).round_time
        assert user.id in get_s(bw, topo, cfg.replace(t_round_s=round_time), mode).all_ids
        below = math.nextafter(round_time, 0.0)
        assert user.id not in get_s(bw, topo, cfg.replace(t_round_s=below), mode).all_ids

    @pytest.mark.parametrize("mode", MODES)
    def test_energy_equal_to_budget_is_feasible(self, mode):
        cfg = SimConfig(n_users=12, t_round_s=1e9)
        topo = generate_topology(cfg, seed=5)
        bw = default_initial_bandwidth(topo, cfg)
        user = topo.users[3]
        energy = _reference_cost(user, bw, topo, cfg, mode).total_energy

        def with_budget(budget):
            users = list(topo.users)
            users[3] = dataclasses.replace(user, energy_budget_j=budget)
            return dataclasses.replace(topo, users=tuple(users))

        assert user.id in get_s(bw, with_budget(energy), cfg, mode).all_ids
        assert user.id not in get_s(bw, with_budget(math.nextafter(energy, 0.0)), cfg, mode).all_ids


class TestLoudFailures:
    """A hybrid topology with indoor users but no VLC APs is a broken input."""

    @staticmethod
    def no_ap_topology(indoor=True):
        users = [make_user(id=0, indoor=indoor, xy=(0.0, 1.0)), make_user(id=1, xy=(20.0, 0.0))]
        return make_topology(users, aps=())

    def test_get_s_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            get_s(BandwidthAllocation(1e6, 1e6, 1e6), self.no_ap_topology(), config)

    def test_usba_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            usba(self.no_ap_topology(), config)

    def test_oracle_names_the_missing_aps(self, config):
        with pytest.raises(ValueError, match="no VLC APs"):
            oracle_enumerate(self.no_ap_topology(), config)

    def test_aps_are_not_needed_without_vlc_users(self, config):
        bw = BandwidthAllocation(1e6, 1e6, 1e6)
        assert get_s(bw, self.no_ap_topology(), config, "rf_only") == sel([0], [1])
        assert get_s(bw, self.no_ap_topology(indoor=False), config) == sel(outdoor=[0, 1])
        assert usba(self.no_ap_topology(), config, "rf_only").selection == sel([0], [1])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "call",
        [
            lambda topo, cfg, mode: get_s(BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, mode),
            lambda topo, cfg, mode: is_feasible(topo.users[1], BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, mode),
            usba,
            oracle_enumerate,
        ],
        ids=["get_s", "is_feasible", "usba", "oracle_enumerate"],
    )
    def test_underflowed_rf_gain_is_rejected(self, config, call, mode):
        far = make_user(id=1, xy=(1e90, 0.0))
        assert rf_channel_gain(1e90, False, RfParams.from_config(config)) == 0.0
        topo = make_topology([make_user(id=0, xy=(20.0, 0.0)), far])
        with pytest.raises(ValueError, match="channel gain"):
            call(topo, config, mode)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e6])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_or_non_positive_widths_are_rejected(self, config, field, bad):
        widths = [1e6, 1e6, 1e6]
        widths[field] = bad
        topo = generate_topology(SimConfig(), 0)
        with pytest.raises(ValueError, match="block widths must be finite and > 0"):
            get_s(BandwidthAllocation(*widths), topo, config)
        with pytest.raises(ValueError, match="block widths must be finite and > 0"):
            is_feasible(topo.users[0], BandwidthAllocation(*widths), topo, config)

    def test_get_s_rejects_unknown_mode(self, config):
        with pytest.raises(ValueError, match="mode must be one of"):
            get_s(BandwidthAllocation(1e6, 1e6, 1e6), make_topology([make_user()]), config, mode="other")

    @pytest.mark.parametrize(
        "call",
        [
            lambda topo, cfg: get_s(BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, "other"),
            lambda topo, cfg: is_feasible(topo.users[0], BandwidthAllocation(1e6, 1e6, 1e6), topo, cfg, "other"),
            lambda topo, cfg: get_b(Selection(frozenset(), frozenset({0})), cfg, "other"),
            lambda topo, cfg: usba(topo, cfg, "other"),
            lambda topo, cfg: oracle_enumerate(topo, cfg, "other"),
        ],
        ids=["get_s", "is_feasible", "get_b", "usba", "oracle_enumerate"],
    )
    def test_every_entry_point_rejects_an_unknown_mode(self, config, call):
        with pytest.raises(ValueError, match="mode must be one of"):
            call(make_topology([make_user()]), config)


class TestInvalidConfig:
    """A config is checked when it is built, so usba and the oracle never see a bad one."""

    def test_usba_rejects_zero_iterations(self):
        topo = generate_topology(SimConfig(n_users=60), seed=0)
        with pytest.raises(ConfigError, match="max_iterations"):
            usba(topo, SimConfig(n_users=60, max_iterations=0))

    def test_oracle_rejects_a_negative_round_budget(self):
        topo = generate_topology(SimConfig(n_users=6), seed=0)
        with pytest.raises(ConfigError, match="t_round_s"):
            oracle_enumerate(topo, SimConfig(n_users=6, t_round_s=-1.0))


REFERENCE_SELECTIONS = Path(__file__).parent / "data" / "reference_selections.csv"
REFERENCE_FIELDS = (
    "n_users", "seed", "mode", "indoor_ids", "outdoor_ids", "b_up_hz", "b_vlc_hz", "iterations", "converged",
)


def _result_row(res):
    """A usba result as strings: ids, widths as float.hex, iterations, flags, objective."""
    return {
        "indoor_ids": ";".join(map(str, sorted(res.selection.indoor_ids))),
        "outdoor_ids": ";".join(map(str, sorted(res.selection.outdoor_ids))),
        "b_up_hz": res.bandwidth.b_up_hz.hex(),
        "b_down_hz": res.bandwidth.b_down_hz.hex(),
        "b_vlc_hz": res.bandwidth.b_vlc_hz.hex(),
        "iterations": str(res.iterations),
        "converged": str(res.converged).lower(),
        "objective": repr(res.objective),
    }


def _selection_rows():
    """usba on the default config for N = 20..200 in steps of 20, seeds 0-2, both modes."""
    for n in range(20, 201, 20):
        cfg = SimConfig(n_users=n)
        for seed in range(3):
            topo = generate_topology(cfg, seed)
            for mode in MODES:
                row = {"n_users": str(n), "seed": str(seed), "mode": mode, **_result_row(usba(topo, cfg, mode))}
                yield {field: row[field] for field in REFERENCE_FIELDS}


def _write_rows(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_reference_selections(path=REFERENCE_SELECTIONS):
    _write_rows(path, REFERENCE_FIELDS, _selection_rows())


class TestReferenceSelections:
    """tests/data/reference_selections.csv was written by
    ``write_reference_selections()`` with the per-user feasibility loop that
    preceded the link table; widths are stored as float.hex, so the match is
    exact to the bit. Half the rows are non-converged, which covers the
    oscillating path that the N=20 reference run never reaches."""

    def test_matches_stored_selections(self):
        with open(REFERENCE_SELECTIONS, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_selection_rows())
        assert len(got) == len(expected) == 60
        assert sum(row["converged"] == "false" for row in expected) >= 20
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_EXHAUSTED = Path(__file__).parent / "data" / "reference_usba_exhausted.csv"
EXHAUSTED_FIELDS = (
    "n_users", "seed", "mode", "max_iterations", "indoor_ids", "outdoor_ids",
    "b_up_hz", "b_down_hz", "b_vlc_hz", "iterations", "converged", "objective",
)


def _exhausted_rows():
    """usba on the default config with max_iterations in {1, 2, 3, 5}, for
    N in {60, 100, 160, 200}, seeds 0-2 and both modes."""
    for n in (60, 100, 160, 200):
        for max_iterations in (1, 2, 3, 5):
            cfg = SimConfig(n_users=n, max_iterations=max_iterations)
            for seed in range(3):
                topo = generate_topology(cfg, seed)
                for mode in MODES:
                    yield {
                        "n_users": str(n),
                        "seed": str(seed),
                        "mode": mode,
                        "max_iterations": str(max_iterations),
                        **_result_row(usba(topo, cfg, mode)),
                    }


def write_reference_exhausted(path=REFERENCE_EXHAUSTED):
    _write_rows(path, EXHAUSTED_FIELDS, _exhausted_rows())


class TestReferenceExhausted:
    """tests/data/reference_usba_exhausted.csv was written by
    ``write_reference_exhausted()`` before usba tested each state inside its
    loop. Most rows stop because the iterations ran out, so the match pins
    the extra pass that tests the last state."""

    def test_matches_stored_results(self):
        with open(REFERENCE_EXHAUSTED, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_exhausted_rows())
        assert len(got) == len(expected) == 96
        exhausted = [
            row for row in expected
            if row["converged"] == "false" and row["iterations"] == row["max_iterations"]
        ]
        assert len(exhausted) == 71
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_ORACLE = Path(__file__).parent / "data" / "reference_oracle.csv"
ORACLE_FIELDS = (
    "n_users", "instance", "shards", "mode", "indoor_ids", "outdoor_ids", "b_up_hz", "b_down_hz", "b_vlc_hz",
    "objective",
)


def _oracle_rows():
    """oracle_enumerate on four random_instance draws for each N = 1..14, each
    with its equal shards and again with shards drawn from 1..6, in both modes."""
    rng = np.random.default_rng(61)
    for n in range(1, ORACLE_MAX_USERS + 1):
        for instance in range(4):
            topo, cfg = random_instance(rng, n_range=(n, n))
            for shards, t in (("equal", topo), ("unequal", with_unequal_shards(topo, rng))):
                for mode in MODES:
                    row = {
                        "n_users": str(n),
                        "instance": str(instance),
                        "shards": shards,
                        "mode": mode,
                        **_result_row(oracle_enumerate(t, cfg, mode)),
                    }
                    yield {field: row[field] for field in ORACLE_FIELDS}


def write_reference_oracle(path=REFERENCE_ORACLE):
    _write_rows(path, ORACLE_FIELDS, _oracle_rows())


class TestReferenceOracle:
    """tests/data/reference_oracle.csv was written by ``write_reference_oracle()``
    with the oracle that scanned every (k1, k2) count pair; widths are stored
    as float.hex. Unequal shards make the best pair of a row lie below the
    staircase boundary, and small shard sizes make objectives tie."""

    def test_matches_stored_results(self):
        with open(REFERENCE_ORACLE, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_oracle_rows())
        assert len(got) == len(expected) == 224
        assert sum(row["indoor_ids"] == row["outdoor_ids"] == "" for row in expected) >= 3
        for row, ref in zip(got, expected):
            assert row == ref


REFERENCE_STARTS = Path(__file__).parent / "data" / "reference_usba_starts.csv"
STARTS_FIELDS = (
    "instance", "mode", "start", "max_iterations", "indoor_ids", "outdoor_ids",
    "b_up_hz", "b_down_hz", "b_vlc_hz", "iterations", "converged", "objective",
)


def _start_rows():
    """usba on 150 random_instance draws with N = 1..60, in both modes. Every
    other draw starts from configured widths, drawn log-uniform over
    1e3..3e7 Hz; max_iterations is drawn from 1..7."""
    rng = np.random.default_rng(83)
    for instance in range(150):
        topo, cfg = random_instance(rng, n_range=(1, 60))
        start = None
        if instance % 2:
            start = tuple(float(10 ** rng.uniform(3.0, math.log10(3e7))) for _ in range(3))
        cfg = cfg.replace(initial_bandwidth=start, max_iterations=int(rng.integers(1, 8)))
        for mode in MODES:
            yield {
                "instance": str(instance),
                "mode": mode,
                "start": ";".join(w.hex() for w in start) if start else "default",
                "max_iterations": str(cfg.max_iterations),
                **_result_row(usba(topo, cfg, mode)),
            }


def write_reference_starts(path=REFERENCE_STARTS):
    _write_rows(path, STARTS_FIELDS, _start_rows())


class TestReferenceStarts:
    """tests/data/reference_usba_starts.csv was written by
    ``write_reference_starts()`` while usba still ran a feasibility pass to
    confirm each fixed point. Configured starts reach the solo restart and
    fixed points found at other widths than their own; the rows cover every
    way the alternation ends."""

    def test_matches_stored_results(self):
        with open(REFERENCE_STARTS, newline="") as fh:
            expected = list(csv.DictReader(fh))
        got = list(_start_rows())
        assert len(got) == len(expected) == 300
        nonconverged = [row for row in expected if row["converged"] == "false"]
        spent = [row for row in nonconverged if row["iterations"] == row["max_iterations"]]
        assert len(nonconverged) < len(expected)  # converged
        assert spent  # the iterations ran out
        assert len(spent) < len(nonconverged)  # a revisit or an empty state ended the run
        for row, ref in zip(got, expected):
            assert row == ref
