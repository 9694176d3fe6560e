"""Early prediction of EV charging-session energy, centralized and federated."""

from .features import FEATURE_COLUMNS, FeatureTable, build_feature_table
from .federation import CentralConfig, FedConfig, run_centralized, run_federated
from .heterogeneity import HeterogeneityReport, analyze_partition
from .ingest import SyntheticDepotSpec, generate_synthetic, parse_sessions, parse_timeseries
from .metrics import mae, rmse
from .models import ModelParameters, get_params, set_params
from .partition import ClientPartition, partition_by_station
from .sessions import DatasetConfig, SessionRecord, SessionSeries, retain_sessions

__version__ = "0.1.0"

__all__ = [
    "FEATURE_COLUMNS",
    "FeatureTable",
    "build_feature_table",
    "CentralConfig",
    "FedConfig",
    "run_centralized",
    "run_federated",
    "HeterogeneityReport",
    "analyze_partition",
    "SyntheticDepotSpec",
    "generate_synthetic",
    "parse_sessions",
    "parse_timeseries",
    "mae",
    "rmse",
    "ModelParameters",
    "get_params",
    "set_params",
    "ClientPartition",
    "partition_by_station",
    "DatasetConfig",
    "SessionRecord",
    "SessionSeries",
    "retain_sessions",
    "__version__",
]
