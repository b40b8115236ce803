"""Federated learning over a hybrid visible-light/RF network.

Simulates the physical layer (Lambertian VLC downlink, log-distance RF),
jointly optimizes user selection and per-block bandwidth by alternating
fixed-point iteration, and trains a small regression network federatedly to
compare the hybrid system against an RF-only baseline.
"""

__version__ = "0.1.0"  # set before the submodules load: runner.py reads it

from .allocation import (
    BandwidthAllocation,
    EmptySelectionError,
    Selection,
    UsbaResult,
    get_b,
    get_s,
    oracle_enumerate,
    usba,
)
from .channel import (
    lambertian_order,
    rf_channel_gain,
    rf_rate,
    vlc_channel_gain,
    vlc_rate,
    vlc_sinr,
)
from .config import ConfigError, SimConfig, build_config
from .dataset import (
    DataShard,
    Dataset,
    DatasetParseError,
    DatasetSchemaError,
    load_bundled_dataset,
    load_dataset,
    split_and_partition,
)
from .fl import (
    MlpModel,
    NoParticipantsError,
    TrainingReport,
    UndefinedMetricError,
    forward_batch,
    loss_gradients,
    mse_loss,
    required_global_rounds,
    run_federated_training,
)
from .runner import (
    ExperimentError,
    ExperimentRecord,
    ExperimentReport,
    emit_report,
    run_experiment,
)
from .topology import Topology, UserNode, generate_topology

