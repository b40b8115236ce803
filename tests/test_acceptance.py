"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All random draws are fixed-seeded, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from vlcfed import (
    BandwidthAllocation,
    Selection,
    SimConfig,
    generate_topology,
    get_b,
    get_s,
    lambertian_order,
    load_bundled_dataset,
    loss_gradients,
    mse_loss,
    oracle_enumerate,
    rf_channel_gain,
    rf_rate,
    usba,
    vlc_channel_gain,
    vlc_rate,
    vlc_sinr,
    MlpModel,
)
from vlcfed.runner import emit_report, run_experiment
from tests.conftest import make_topology, make_user, random_instance


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_selected_user_gain():
    # Hybrid must admit at least 10% more users than RF-only at N=50 and at
    # least 15% more at N=100, averaged over 20 seeds.
    results = {}
    for n, floor in ((50, 1.10), (100, 1.15)):
        cfg = SimConfig(n_users=n, samples_per_user=max((506 - 17) // n, 1))
        hy, rf = [], []
        for seed in range(20):
            topo = generate_topology(cfg, seed)
            hy.append(usba(topo, cfg, "hybrid").selection.size)
            rf.append(usba(topo, cfg, "rf_only").selection.size)
        results[n] = (np.mean(hy), np.mean(rf), np.mean(hy) / np.mean(rf), floor)
    ok = all(ratio >= floor for _, _, ratio, floor in results.values())
    detail = "; ".join(
        f"N={n}: hybrid {h:.1f} vs rf {r:.1f}, ratio {q:.3f} (need >= {fl})"
        for n, (h, r, q, fl) in results.items()
    )
    report(1, ok, detail)


def test_criterion_2_r2_gain():
    # Paired R2 comparison on shared splits: mean(hybrid) >= mean(rf_only)
    # and at least one seed with a gap of 0.03 or more.
    cfg = SimConfig().validate()
    data = load_bundled_dataset()
    seeds = list(range(10))
    rep = run_experiment(cfg, seeds, data)
    recs = {(r.seed, r.mode): r for r in rep.records}
    gaps = [recs[(s, "hybrid")].final_r2 - recs[(s, "rf_only")].final_r2 for s in seeds]
    mean_h = float(np.mean([recs[(s, "hybrid")].final_r2 for s in seeds]))
    mean_r = float(np.mean([recs[(s, "rf_only")].final_r2 for s in seeds]))
    ok = mean_h >= mean_r and max(gaps) >= 0.03
    report(
        2,
        ok,
        f"mean R2 hybrid {mean_h:.4f} vs rf_only {mean_r:.4f}; max gap {max(gaps):+.4f} (need >= 0.03)",
    )


def test_criterion_3_bandwidth_saturation_exact():
    rng = np.random.default_rng(2024)
    worst_rf, worst_vlc = 0.0, 0.0
    for _ in range(1000):
        cfg = SimConfig(
            rf_total_bandwidth_hz=float(rng.uniform(1e6, 1e8)),
            vlc_total_bandwidth_hz=float(rng.uniform(1e6, 1e8)),
        )
        k1 = int(rng.integers(0, 80))
        k2 = int(rng.integers(0, 80))
        if k1 + k2 == 0:
            k1 = 1
        selection = Selection(frozenset(range(k1)), frozenset(range(100, 100 + k2)))
        bw = get_b(selection, cfg)
        blocks = (k1 + k2) + k2
        worst_rf = max(worst_rf, abs(blocks * bw.b_up_hz - cfg.rf_total_bandwidth_hz) / math.ulp(cfg.rf_total_bandwidth_hz))
        if k1:
            worst_vlc = max(worst_vlc, abs(k1 * bw.b_vlc_hz - cfg.vlc_total_bandwidth_hz) / math.ulp(cfg.vlc_total_bandwidth_hz))
    ok = worst_rf <= 1.0 and worst_vlc <= 1.0
    report(3, ok, f"worst saturation error: RF {worst_rf:.2f} ulp, VLC {worst_vlc:.2f} ulp (need <= 1)")


def test_criterion_4_fixed_point_consistency():
    rng = np.random.default_rng(7)
    checked = violations = 0
    for i in range(200):
        topology, cfg = random_instance(rng)
        mode = "hybrid" if i % 2 == 0 else "rf_only"
        res = usba(topology, cfg, mode)
        if res.converged and res.selection:
            checked += 1
            again = get_s(get_b(res.selection, cfg, mode), topology, cfg, mode)
            if again != res.selection:
                violations += 1
    ok = violations == 0 and checked >= 50
    report(4, ok, f"{checked} converged runs re-checked, {violations} fixed-point violations")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(99)
    mismatches = overshoots = converged = cycled = 0
    for _ in range(100):
        topology, cfg = random_instance(rng, n_range=(4, 12))
        res = usba(topology, cfg)
        ref = oracle_enumerate(topology, cfg)
        if res.converged:
            converged += 1
            if res.objective != pytest.approx(ref.objective):
                mismatches += 1
        else:
            cycled += 1
            if res.objective > ref.objective + 1e-9:
                overshoots += 1
    ok = mismatches == 0 and overshoots == 0 and converged > 0
    report(
        5,
        ok,
        f"{converged} converged (all equal oracle: {mismatches == 0}), "
        f"{cycled} cycled (none exceed oracle: {overshoots == 0})",
    )


def test_criterion_6_channel_unit_checks():
    cfg = SimConfig()
    exact_one = lambertian_order(60.0) == 1.0

    narrow = cfg.replace(fov_half_angle_deg=35.0)
    beyond_fov_zero = vlc_channel_gain((0.0, 0.0, 3.35), (0.0, 30.0, 0.85), narrow) == 0.0

    user = make_user(indoor=True, xy=(0.0, 1.2))
    topo = make_topology([user], aps=[(0.0, 0.0, 3.35)])
    widths = np.logspace(4.0, 7.6, 20)
    vlc_rates = [vlc_rate(vlc_sinr(user, topo, b, cfg), b) for b in widths]
    h = rf_channel_gain(35.0, False, cfg)
    rf_rates = [rf_rate(0.1, h, cfg.uplink_interference_w, b, cfg.rf_noise_psd) for b in widths]
    vlc_mono = all(a < b for a, b in zip(vlc_rates, vlc_rates[1:]))
    rf_mono = all(a < b for a, b in zip(rf_rates, rf_rates[1:]))

    ok = exact_one and beyond_fov_zero and vlc_mono and rf_mono
    report(
        6,
        ok,
        f"lambertian(60)==1: {exact_one}; gain beyond FoV == 0: {beyond_fov_zero}; "
        f"20-point bandwidth grids strictly increasing (VLC {vlc_mono}, RF {rf_mono})",
    )


def test_criterion_7_gradient_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for case in range(100):
        model = MlpModel.init_random(1000 + case)
        x = rng.normal(size=(5, 13))
        y = rng.normal(size=5)
        analytic = loss_gradients(model, x, y)
        eps = 1e-5
        for p_idx, param in enumerate(model.params()):
            flat = param.ravel()
            idx = int(rng.integers(0, flat.size))
            orig = flat[idx]
            flat[idx] = orig + eps
            up = mse_loss(model, x, y)
            flat[idx] = orig - eps
            down = mse_loss(model, x, y)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            a = analytic[p_idx].ravel()[idx]
            denom = max(abs(numeric), abs(a), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    ok = worst <= 1e-4
    report(7, ok, f"worst relative gradient error {worst:.2e} over 100 cases (need <= 1e-4)")


def test_criterion_8_monotone_selection():
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(100):
        topology, cfg = random_instance(rng)
        lo = np.array([rng.uniform(1e4, 1e6), rng.uniform(1e4, 1e6), rng.uniform(1e5, 4e7)])
        hi = lo * rng.uniform(1.0, 10.0, size=3)
        s_lo = get_s(BandwidthAllocation(*lo), topology, cfg)
        s_hi = get_s(BandwidthAllocation(*hi), topology, cfg)
        if not (s_lo.indoor_ids <= s_hi.indoor_ids and s_lo.outdoor_ids <= s_hi.outdoor_ids):
            violations += 1
    ok = violations == 0
    report(8, ok, f"{violations} monotonicity violations across 100 instances")


def test_criterion_9_end_to_end_determinism(tmp_path):
    cfg = SimConfig(n_users=20, global_rounds=60)
    data = load_bundled_dataset()
    outs = []
    for tag in ("x", "y"):
        rep = run_experiment(cfg, [0, 1], data)
        paths = emit_report(rep, str(tmp_path / tag))
        outs.append({k: open(p, "rb").read() for k, p in paths.items()})
    same = all(outs[0][k] == outs[1][k] for k in outs[0])
    ok = same
    report(9, ok, f"two end-to-end runs produced byte-identical CSVs: {same}")
