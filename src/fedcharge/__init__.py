"""Early prediction of EV charging-session energy, centralized and federated."""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports: the one list of the package's API
_EXPORTS = {
    "features": ("FEATURE_COLUMNS", "FeatureTable", "build_feature_table"),
    "federation": ("CentralConfig", "FedConfig", "run_centralized", "run_federated"),
    "heterogeneity": ("HeterogeneityReport", "analyze_partition"),
    "ingest": ("SyntheticDepotSpec", "generate_synthetic", "parse_sessions", "parse_timeseries"),
    "metrics": ("mae", "rmse"),
    "models": ("ModelParameters", "get_params", "set_params"),
    "partition": ("ClientPartition", "partition_by_station"),
    "sessions": ("DatasetConfig", "SessionRecord", "SessionSeries", "retain_sessions"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """A public name or a submodule, imported on first use (PEP 562): importing
    the package loads none of its modules, nor numpy."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if name.isidentifier() and exc.name != f"{__name__}.{name}":
                raise  # a real submodule failed to import one of its own
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
