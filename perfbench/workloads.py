"""The benchmark's workloads. Each turns a seed into one fixed pass of records.

A pass is the list ``keys``; each key names one record. The timed loop runs
the whole first pass, which gives the simulated outcomes and fingerprints,
then repeats records until the time is up. Passes are sized to fill most of a
30 s run at the seed commit, because the work per record depends on the
topology and a pass must hold enough records for its total to vary little
between seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile

import numpy as np
from vlcfed import allocation, runner, topology
from vlcfed.config import SimConfig
from vlcfed.runner import ExperimentReport

MODES = ("hybrid", "rf_only")


def _draw_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _within_ulps(value: float, target: float, ulps: int = 4) -> bool:
    return abs(value - target) <= ulps * math.ulp(target)


class Workload:
    """Defaults for the hooks a workload may leave out."""

    name = ""
    run_checks = 0  # run-level output checks, each counted as one operation

    def finish(self, values: list, out_dir: str):
        """Timed end of a run, given the first pass's values; returns its state."""
        return None

    def check_run(self, state, out_dir: str) -> str | None:
        """Run-level output check; returns a problem or None."""
        return None


class FedavgDefault(Workload):
    """run_experiment with the default SimConfig; one call per (seed, mode)."""

    name = "fedavg_default"
    run_checks = 1
    SEEDS_PER_PASS = 5

    def __init__(self, seed: int, data):
        rng = np.random.default_rng([seed, 0])
        *seeds, self.warm_seed = _draw_seeds(rng, self.SEEDS_PER_PASS + 1)
        self.data = data
        self.config = SimConfig()
        self.keys = [(s, mode) for s in seeds for mode in MODES]

    def warm_up(self) -> None:
        runner.run_experiment(self.config.replace(global_rounds=2), [self.warm_seed], self.data)

    def run(self, key):
        seed, mode = key
        (record,) = runner.run_experiment(self.config, [seed], self.data, modes=(mode,)).records
        return record

    def _report(self, records) -> ExperimentReport:
        seeds = tuple(dict.fromkeys(r.seed for r in records))
        return ExperimentReport(list(records), self.config, seeds, self.data.name)

    def finish(self, values, out_dir):
        report = self._report(values)
        return report, runner.emit_report(report, tempfile.mkdtemp(dir=out_dir))

    def check_run(self, state, out_dir):
        report, first = state
        again = runner.emit_report(report, tempfile.mkdtemp(dir=out_dir))
        for kind, path in first.items():
            with open(path, "rb") as a, open(again[kind], "rb") as b:
                if a.read() != b.read():
                    return f"second emit_report wrote a different {kind} file"
        return None

    def check(self, key, record) -> str | None:
        trace = record.r2_trace
        if len(trace) != self.config.global_rounds:
            return f"{key}: R2 trace has {len(trace)} rounds, expected {self.config.global_rounds}"
        if not all(math.isfinite(v) for v in trace):
            return f"{key}: R2 trace has a non-finite value"
        return None

    def outcomes(self, key, record):
        yield record.mode, record.n_selected, record.final_r2

    def fingerprint(self, first_pass, state) -> dict:
        if state is None:
            return {}  # emission failed, which is counted as a failure
        out = {}
        for kind in ("records", "summary"):
            with open(state[1][kind], "rb") as fh:
                out[f"{kind}_csv_sha256"] = _sha256(fh.read())
        return out


class SelectSweep(Workload):
    """Selection only (train=False) for N = 20..200 in both modes."""

    name = "select_sweep"
    N_VALUES = tuple(range(20, 201, 20))
    SEEDS_PER_PASS = 48

    def __init__(self, seed: int, data):
        rng = np.random.default_rng([seed, 1])
        *seeds, self.warm_seed = _draw_seeds(rng, self.SEEDS_PER_PASS + 1)
        self.data = data
        self.configs = {n: SimConfig(n_users=n).validate() for n in self.N_VALUES}
        self.keys = [(s, mode, n) for s in seeds for n in self.N_VALUES for mode in MODES]

    def warm_up(self) -> None:
        for n in (self.N_VALUES[0], self.N_VALUES[-1]):
            runner.run_experiment(self.configs[n], [self.warm_seed], self.data, train=False)

    def run(self, key):
        seed, mode, n = key
        report = runner.run_experiment(self.configs[n], [seed], self.data, modes=(mode,), train=False)
        (record,) = report.records
        return record

    def check(self, key, record) -> str | None:
        if record.n_selected == 0:
            return None
        if record.mode == "rf_only":
            rf_blocks = 2 * record.n_selected
        else:
            rf_blocks = record.n_selected + record.n_outdoor_selected
        if not _within_ulps(rf_blocks * record.b_up_hz, record.rf_total_bandwidth_hz):
            return f"{key}: {rf_blocks} RF blocks of {record.b_up_hz!r} Hz miss the RF budget"
        n_in = record.n_indoor_selected
        if record.mode == "hybrid" and n_in:
            if not _within_ulps(n_in * record.b_vlc_hz, record.vlc_total_bandwidth_hz):
                return f"{key}: {n_in} VLC blocks of {record.b_vlc_hz!r} Hz miss the VLC budget"
        return None

    def outcomes(self, key, record):
        yield record.mode, record.n_selected, None

    def fingerprint(self, first_pass, state) -> dict:
        rows = [
            [*key, r.n_indoor_selected, r.n_outdoor_selected, r.b_up_hz.hex(), r.b_vlc_hz.hex(),
             r.usba_iterations, r.converged]
            for key, r in first_pass
        ]
        text = json.dumps(rows, separators=(",", ":"))
        return {"selection_sha256": _sha256(text.encode()), "selections": rows}


N_RANGE = range(4, allocation.ORACLE_MAX_USERS + 1)
INDOOR_STRATA = 10


def _random_instance(rng: np.random.Generator, i: int) -> tuple[SimConfig, int]:
    """The i-th small scenario: wide draws, from all-feasible to contended.

    The oracle's cost grows with n_indoor * n_outdoor * n_users, so user
    count and indoor fraction are stratified (N cycles through 4..14, and
    each N sees the indoor-fraction tenths in turn); random draws of these
    two alone made the work of a 2000-instance pass differ by 9% between
    seeds.
    """
    n = len(N_RANGE)
    stratum = (i // n) % INDOOR_STRATA
    config = SimConfig(
        n_users=N_RANGE[i % n],
        indoor_fraction=(stratum + float(rng.uniform(0.0, 1.0))) / INDOOR_STRATA,
        t_round_s=float(rng.uniform(0.2, 3.0)),
        payload_bits=float(rng.uniform(2e5, 2e6)),
        rf_total_bandwidth_hz=float(rng.uniform(2e6, 20e6)),
        vlc_total_bandwidth_hz=float(rng.uniform(5e6, 40e6)),
        uplink_interference_w=float(rng.uniform(0.0, 6e-10)),
        downlink_interference_w=float(rng.uniform(0.0, 6e-10)),
        energy_budget_j=float(rng.uniform(0.005, 2.0)),
        samples_per_user=int(rng.integers(1, 30)),
        max_iterations=50,
    ).validate()
    return config, int(rng.integers(0, 2**31))


class OracleSmall(Workload):
    """Many tiny topologies: usba and the exhaustive oracle in both modes."""

    name = "oracle_small"
    INSTANCES_PER_PASS = 2000

    def __init__(self, seed: int, data):
        rng = np.random.default_rng([seed, 2])
        *self.instances, self.warm_instance = [
            _random_instance(rng, i) for i in range(self.INSTANCES_PER_PASS + 1)
        ]
        self.keys = list(range(self.INSTANCES_PER_PASS))

    def warm_up(self) -> None:
        self._solve(*self.warm_instance)

    def run(self, key):
        return self._solve(*self.instances[key])

    @staticmethod
    def _solve(config, topo_seed):
        topo = topology.generate_topology(config, topo_seed)
        return {
            mode: (allocation.usba(topo, config, mode), allocation.oracle_enumerate(topo, config, mode))
            for mode in MODES
        }

    def check(self, key, result) -> str | None:
        for mode, (found, best) in result.items():
            if found.converged and found.objective != best.objective:
                return f"instance {key} {mode}: converged objective {found.objective} != oracle {best.objective}"
            if found.objective > best.objective:
                return f"instance {key} {mode}: objective {found.objective} exceeds oracle {best.objective}"
        return None

    def outcomes(self, key, result):
        for mode, (found, _) in result.items():
            yield mode, found.selection.size, None

    def fingerprint(self, first_pass, state) -> dict:
        rows = [
            [key, mode, found.objective, best.objective, found.iterations, found.converged]
            for key, result in first_pass
            for mode, (found, best) in result.items()
        ]
        return {"objectives_sha256": _sha256(json.dumps(rows, separators=(",", ":")).encode())}


WORKLOADS = {w.name: w for w in (FedavgDefault, SelectSweep, OracleSmall)}
