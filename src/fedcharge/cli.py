"""Single entry point exposing the pipeline as composable subcommands.

Each stage reads the previous stage's files and writes its own outputs plus
an effective-config echo (config.json) into the output directory, so any run
can be reproduced from its echo. Flags override values from --config; the
config file is one JSON object with per-stage sections.

Exit codes: 0 success, 1 validation/config error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

from . import csvio, evaluation, federation, heterogeneity, ingest, models, seeding
from .features import build_feature_table, read_features, write_features
from .partition import partition_by_station
from .sessions import DatasetConfig, retain_sessions

# ---------------------------------------------------------------------------
# Config schema: the one place each settable value is written down. The flags,
# the config-file checks, the config objects and the config.json echo of every
# subcommand derive from it.


class Key(NamedTuple):
    """One config key, set by --config or by the flag --key-name.

    A value's type follows the default: a tuple default takes an "lo:hi"
    string, and a None default an optional string.
    """

    default: object = None
    field: str | None = None  # the field of the section's dataclass behind the key
    choices: tuple | None = None
    help: str | None = None


def _fields(cls, **fields: str) -> dict[str, Key]:
    """Keys backed by dataclass fields (key name -> field name), with the
    fields' defaults."""
    declared = cls.__dataclass_fields__
    return {name: Key(declared[field].default, field) for name, field in fields.items()}


_SYNTH, _FED, _CENTRAL = ingest.SyntheticDepotSpec, federation.FedConfig, federation.CentralConfig

# section -> (the dataclass its field-backed keys build, its keys)
SCHEMA: dict[str, tuple[type | None, dict[str, Key]]] = {
    "paths": (None, {
        "in": Key(help="directory with sessions/timeseries files"),
        "sessions": Key(help="sessions file (csv or jsonl)"),
        "timeseries": Key(help="timeseries file (csv or jsonl)"),
        "features": Key(help="features.csv from the featurize stage"),
    }),
    "synth": (_SYNTH, {
        **_fields(
            _SYNTH, stations="n_stations", sessions_per_station="sessions_per_station",
            mean_kwh="station_energy_mean_kwh", std_kwh="station_energy_std_kwh",
            shift_kwh="heterogeneity_shift_kwh", noise_kwh="noise_std_kwh", seed="seed",
            session_minutes="session_minutes", period_s="sample_period_s",
            presence="user_field_presence",
        ),
        "format": Key("csv", choices=("csv", "jsonl")),
    }),
    "dataset": (DatasetConfig, {
        **_fields(
            DatasetConfig, early_window_minutes="early_window_minutes",
            min_early_current_samples="min_early_current_samples",
            nominal_voltage_v="nominal_voltage_v",
        ),
        "strict": Key(False, help="abort on malformed rows instead of skipping them"),
    }),
    "heterogeneity": (None, {
        "bins": Key(heterogeneity.DEFAULT_BINS),
        "permutations": Key(heterogeneity.DEFAULT_PERMUTATIONS),
        "seed": Key(0),
    }),
    "fed": (_FED, _fields(
        _FED, rounds="rounds", local_epochs="local_epochs", fraction="client_fraction",
        batch_size="batch_size", lr="lr", seed="seed",
    )),
    "central": (_CENTRAL, _fields(
        _CENTRAL, epochs="epochs", batch_size="batch_size", lr="lr", seed="seed",
    )),
    "train": (None, {
        "mode": Key(choices=evaluation.MODES),
        "model": Key(choices=models.MODEL_KINDS),
        "dropout": Key(models.MlpSpec.dropout_rate,
                       help="MLP dropout rate (also active in federated local training)"),
        "seeds": Key(",".join(map(str, evaluation.DEFAULT_SEEDS)),
                     help="comma-separated seed list"),
    }),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _kind(key: Key) -> type:
    return str if key.default is None else type(key.default)


def _type_name(kind: type) -> str:
    return '"lo:hi" string' if kind is tuple else kind.__name__


def _value(where: str, key: Key, value):
    """A flag or config-file value, checked against its key and converted."""
    kind = _kind(key)
    if value is None and key.default is None:
        return None
    accepted = {float: (int, float), tuple: str}.get(kind, kind)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {_type_name(kind)}, got {json.dumps(value)}")
    if key.choices is not None and value not in key.choices:
        raise ValueError(f"{where}: expected one of {', '.join(key.choices)}, got {value!r}")
    try:
        if kind is tuple:
            lo, _, hi = value.partition(":")
            return (int(lo), int(hi or lo))
        if kind is float and not math.isfinite(value := float(value)):
            raise ValueError
        return value
    except (ValueError, OverflowError):
        raise ValueError(f"{where}: {value!r} is not a valid {_type_name(kind)}") from None


def _load_config(path: str | None) -> dict[str, dict]:
    """The config file's sections, every key known and every value checked."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must contain a JSON object")
    cfg.pop("stage", None)  # names the stage that wrote a config.json echo
    out = {}
    for section, values in cfg.items():
        if section not in SCHEMA:
            raise ValueError(f"{section}: unknown config section (known: {', '.join(SCHEMA)})")
        if not isinstance(values, dict):
            raise ValueError(f"{section}: expected a JSON object, got {json.dumps(values)}")
        keys, out[section] = SCHEMA[section][1], {}
        for name, value in values.items():
            if name not in keys:
                raise ValueError(f"{section}.{name}: unknown config key (known: {', '.join(keys)})")
            out[section][name] = _value(f"{section}.{name}", keys[name], value)
    return out


def _resolve(args: argparse.Namespace, cfg: dict[str, dict]) -> dict[str, dict]:
    """Every key the subcommand reads: its flag, else the config file, else
    the default. A bad value is named by its key, or by its flag when that
    flag sets the keys of two sections. Each section's dataclass is built
    here, so that its own checks name the key too, before any file is read."""
    reads = STAGES[args.command][1]
    shared = {name for names in reads.values() for name in names
              if sum(name in other for other in reads.values()) > 1}
    conf = {}
    for section, names in reads.items():
        keys, given = SCHEMA[section][1], cfg.get(section, {})
        where = {name: _flag(name) if name in shared and getattr(args, name) is not None
                 else f"{section}.{name}" for name in names}
        conf[section] = {}
        for name in names:
            flag = getattr(args, name)
            conf[section][name] = (
                given.get(name, keys[name].default) if flag is None
                else _value(where[name], keys[name], flag)
            )
            if name in ("seed", "seeds"):
                _parse_seeds(where[name], conf[section][name])
            elif name == "dropout" and not 0.0 <= conf[section][name] < 1.0:
                raise ValueError(f"train.dropout: {conf[section][name]!r} is outside [0, 1)")
        if SCHEMA[section][0] is not None:
            try:
                _build(conf, section)
            except ValueError as exc:  # its message starts with the field it names
                field = re.match(r"\w*", str(exc)).group()
                name = next((n for n in names if keys[n].field == field), None)
                raise ValueError(f"{where.get(name, section)}: {exc}") from None
    return conf


def _build(conf: dict[str, dict], section: str):
    cls, keys = SCHEMA[section]
    return cls(**{k.field: conf[section][name] for name, k in keys.items() if k.field})


def _required(conf: dict[str, dict], section: str, name: str):
    value = conf[section][name]
    if value is None:
        raise ValueError(f"need {_flag(name)} or {section}.{name} in --config")
    return value


def _echo_config(out_dir: Path, stage: str, conf: dict[str, dict]) -> None:
    def text(v):
        return f"{v[0]}:{v[1]}" if isinstance(v, tuple) else v

    sections = {s: {name: text(v) for name, v in values.items()} for s, values in conf.items()}
    evaluation.write_json(out_dir / "config.json", {"stage": stage, **sections})


def _outdir(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args, conf: dict) -> None:
    """generate a deterministic synthetic depot"""
    spec = _build(conf, "synth")
    sessions, series = ingest.generate_synthetic(spec)
    out = _outdir(args.out)
    ext = conf["synth"]["format"]
    ingest.write_sessions(out / f"sessions.{ext}", sessions)
    ingest.write_timeseries(out / f"timeseries.{ext}", series)
    print(f"wrote {len(sessions)} sessions across {spec.n_stations} stations to {out}")


def _resolve_inputs(paths: dict) -> tuple[Path, Path]:
    sessions, timeseries = paths["sessions"], paths["timeseries"]
    if paths["in"] is not None:
        base = Path(paths["in"])
        sessions = sessions or _find_default(base, "sessions")
        timeseries = timeseries or _find_default(base, "timeseries")
    if sessions is None or timeseries is None:
        raise ValueError("need --in DIR or both --sessions and --timeseries")
    return Path(sessions), Path(timeseries)


def _find_default(base: Path, stem: str) -> Path:
    """The one stem file under base, of any format; two of them are refused,
    since either could be the depot meant."""
    names = [stem + suffix for suffix in ingest.SUFFIXES]
    found = [name for name in names if (base / name).exists()]
    if not found:
        raise FileNotFoundError(f"no {', '.join(names[:-1])} or {names[-1]} under {base}")
    if len(found) > 1:
        raise ValueError(f"more than one {stem} file under {base} ({', '.join(found)}); "
                         f"name the one to read with {_flag(stem)}")
    return base / found[0]


def _parse_and_retain(conf: dict):
    paths, strict = conf["paths"], conf["dataset"]["strict"]
    sessions_path, series_path = _resolve_inputs(paths)
    paths["sessions"], paths["timeseries"] = str(sessions_path), str(series_path)
    cfg = _build(conf, "dataset")
    parsed_sessions = ingest.parse_sessions(sessions_path, strict=strict)
    parsed_series = ingest.parse_timeseries(series_path, strict=strict)
    retained = retain_sessions(parsed_sessions.records, parsed_series.index, cfg)
    report = {
        "sessions_path": str(sessions_path),
        "timeseries_path": str(series_path),
        "n_session_rows": len(parsed_sessions.records),
        "n_session_issues": len(parsed_sessions.issues),
        "n_series_sessions": len(parsed_series.index),
        "n_series_issues": len(parsed_series.issues),
        "n_negative_clamped": parsed_series.n_negative_clamped,
        "n_duplicates_merged": parsed_series.n_duplicates_merged,
        "n_retained": len(retained.sessions),
        "dropped": dict(retained.dropped),
        "first_issues": (parsed_sessions.issues + parsed_series.issues)[:20],
    }
    return retained, parsed_series.index, cfg, report


def _refuse_if_empty(retained, report: dict, path: Path) -> None:
    """Write the report to path and fail when retention kept no session: the
    outputs would be empty files that the later stages reject."""
    if retained.sessions:
        return
    evaluation.write_json(path, report)
    raise ValueError(f"no session retained from {report['timeseries_path']} "
                     f"({report['n_series_sessions']} sessions with readings): dropped "
                     f"{report['dropped']}; see {path}")


def _cmd_ingest(args, conf: dict) -> None:
    """parse raw files, apply retention, write the clean dataset"""
    retained, index, _, report = _parse_and_retain(conf)
    out = _outdir(args.out)
    _refuse_if_empty(retained, report, out / "ingest_report.json")
    kept_ids = {s.session_id for s in retained.sessions}
    ingest.write_sessions(out / "sessions.csv", retained.sessions)
    ingest.write_timeseries(
        out / "timeseries.csv", {k: v for k, v in index.items() if k in kept_ids}
    )
    evaluation.write_json(out / "ingest_report.json", report)
    print(f"retained {report['n_retained']} sessions (dropped: {report['dropped']})")


def _cmd_featurize(args, conf: dict) -> None:
    """build features.csv from session and time-series files"""
    retained, index, cfg, report = _parse_and_retain(conf)
    out = _outdir(args.out)
    _refuse_if_empty(retained, report, out / "featurize_report.json")
    table = build_feature_table(retained.sessions, index, cfg, retained.windows)
    write_features(out / "features.csv", table)
    report["warnings"] = dict(table.warnings)
    evaluation.write_json(out / "featurize_report.json", report)
    print(f"wrote {len(table)} feature rows ({table.X.shape[1]} features) to {out}")


def _cmd_analyze(args, conf: dict) -> None:
    """station-level heterogeneity report"""
    het = conf["heterogeneity"]
    features_path = _required(conf, "paths", "features")
    table = read_features(features_path)
    if len(table) == 0:
        raise ValueError(f"{features_path}: features file contains no rows")
    # n targets occupy at most n bins; the edges and probabilities grow with bins.
    if het["bins"] > max(len(table), heterogeneity.DEFAULT_BINS):
        raise ValueError(f"heterogeneity.bins: {het['bins']} is above both the {len(table)} "
                         f"rows of {features_path} and the default {heterogeneity.DEFAULT_BINS}")
    if het["permutations"] < 2:
        raise ValueError(f"heterogeneity.permutations: need at least 2 permutations, "
                         f"got {het['permutations']}")
    partition = partition_by_station(table.station_ids)
    if partition.n_clients < 2:  # the null over one client is identically 0
        raise ValueError(f"{features_path}: rows from {partition.n_clients} station; the "
                         f"heterogeneity analysis compares at least 2")
    report = heterogeneity.analyze_partition(
        table.y, partition,
        n_bins=het["bins"], n_permutations=het["permutations"], seed=het["seed"],
    )
    ranked = sorted(report.per_client_js.items(), key=lambda kv: (-kv[1], kv[0]))
    out = _outdir(args.out)
    evaluation.write_json(out / "heterogeneity.json", {
        **asdict(report),
        "n_clients": partition.n_clients,
        "ranked_clients": [{"client": cid, "js": value} for cid, value in ranked],
    })
    print(
        f"{report.classification}: JS_weighted={report.js_weighted:.6f} "
        f"tau={report.tau_iid:.6f} over {partition.n_clients} clients"
    )


def _training_inputs(conf: dict):
    """The features table, model kind, mode and training keywords of train
    and evaluate. A table too small for every split is refused, naming its
    file, before anything trains."""
    features_path = _required(conf, "paths", "features")
    model_kind, mode = _required(conf, "train", "model"), _required(conf, "train", "mode")
    table = read_features(features_path)
    try:
        evaluation.split(len(table)).require_nonempty()  # the sizes depend only on n
    except ValueError as exc:
        raise ValueError(f"{features_path}: {exc}") from None
    return table, model_kind, mode, {
        "fed_cfg": _build(conf, "fed"),
        "central_cfg": _build(conf, "central"),
        "dropout_rate": conf["train"]["dropout"],
    }


def _cmd_train(args, conf: dict) -> None:
    """single seeded training run"""
    table, model_kind, mode, training = _training_inputs(conf)
    seed = conf["fed" if mode == "federated" else "central"]["seed"]
    seed_result, artifacts = evaluation.run_experiment(table, model_kind, mode, seed, **training)
    out = _outdir(args.out)
    _write_rounds_csv(out / "rounds.csv", artifacts.result.logs if artifacts.result else [])
    model = artifacts.model
    models.save_checkpoint(out / "model.ckpt", models.get_params(model), model.spec_dict())
    evaluation.write_predictions(
        out / "predictions.csv",
        artifacts.prepared.test_session_ids,
        artifacts.prepared.data.y_test,
        artifacts.predictions,
    )
    evaluation.write_json(out / "summary.json",
                          {"model": model_kind, "mode": mode, **asdict(seed_result)})
    print(
        f"{model_kind}/{mode} seed={seed}: test MAE {seed_result.test_mae:.4f} "
        f"RMSE {seed_result.test_rmse:.4f}"
    )


ROUNDS_COLUMNS = ("round", "val_mae", "val_rmse", "test_mae", "test_rmse", "clients")


def _write_rounds_csv(path: Path, logs) -> None:
    columns = [[getattr(log, column) for log in logs] for column in ROUNDS_COLUMNS[:-1]]
    csvio.write(path, ROUNDS_COLUMNS, [*columns, [";".join(log.clients) for log in logs]])


def _parse_seeds(where: str, value) -> list[int]:
    """The seeds of a seed key's value: one int, or train.seeds' comma-separated
    text. Each is one of the seeding.SEEDS that rng_from tells apart, once."""
    try:
        seeds = [value] if isinstance(value, int) else [int(t) for t in value.split(",")]
    except ValueError:
        seeds = []
    if not seeds:
        raise ValueError(f"{where}: expected comma-separated integers, got {value!r}")
    for i, seed in enumerate(seeds):
        if seed not in seeding.SEEDS or seed in seeds[:i]:
            problem = "repeated" if seed in seeding.SEEDS else "outside [0, 2**64)"
            raise ValueError(f"{where}: seed {seed} is {problem}")
    return seeds


def _cmd_evaluate(args, conf: dict) -> None:
    """multi-seed experiment for one model and mode"""
    seeds = _parse_seeds("train.seeds", conf["train"]["seeds"])
    table, model_kind, mode, training = _training_inputs(conf)
    report = evaluation.multi_seed_run(table, model_kind, mode, seeds, **training)
    out = _outdir(args.out)
    evaluation.write_json(out / "run_report.json", evaluation.report_to_dict(report))
    print(
        f"{model_kind}/{mode} over {len(seeds)} seeds: "
        f"MAE {report.mae_mean:.4f} +/- {report.mae_std:.4f}"
    )


def _read_run_report(path: str) -> evaluation.RunReport:
    try:
        with open(path, encoding="utf-8") as fh:
            return evaluation.report_from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: not a run report: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a run report: {exc}") from None


def _cmd_report(args, conf: dict) -> None:
    """merge run reports into results.csv/json"""
    if not args.reports:
        raise ValueError("need at least one run_report.json path")
    reports = [_read_run_report(path) for path in args.reports]
    csv_path, json_path = evaluation.emit_report(reports, _outdir(args.out))
    print(f"wrote {csv_path} and {json_path}")


# ---------------------------------------------------------------------------
# Parser


def _all(section: str) -> tuple[str, ...]:
    return tuple(SCHEMA[section][1])


_INPUTS = {"paths": ("in", "sessions", "timeseries"), "dataset": _all("dataset")}
_TRAINING = {
    "paths": ("features",), "train": ("mode", "model", "dropout"),
    "fed": _all("fed"), "central": _all("central"),
}

# subcommand -> (its function, the keys it reads per section). Its flags are
# those keys; a key read from two sections (--batch-size, --lr, --seed) sets both.
STAGES = {
    "synth": (_cmd_synth, {"synth": _all("synth")}),
    "ingest": (_cmd_ingest, _INPUTS),
    "featurize": (_cmd_featurize, _INPUTS),
    "analyze": (_cmd_analyze, {"paths": ("features",), "heterogeneity": _all("heterogeneity")}),
    "train": (_cmd_train, _TRAINING),
    "evaluate": (_cmd_evaluate, {**_TRAINING, "train": _all("train")}),
    "report": (_cmd_report, {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: building one
    leaves hundreds of objects in reference cycles (argparse's formatters
    and actions) that only the cyclic collector frees. Parsing changes
    nothing in it."""
    parser = argparse.ArgumentParser(
        prog="fedcharge",
        description="EV charging-session energy prediction pipeline "
        "(featurization, heterogeneity analysis, centralized and federated training)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, reads) in STAGES.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", default="out", help="output directory")
        flags = {name: SCHEMA[section][1][name] for section, names in reads.items() for name in names}
        for name, key in flags.items():
            if _kind(key) is bool:
                p.add_argument(_flag(name), dest=name, action="store_true", default=None,
                               help=key.help)
            elif _kind(key) is tuple:
                p.add_argument(_flag(name), dest=name, help="inclusive range lo:hi")
            else:
                p.add_argument(_flag(name), dest=name, type=_kind(key), choices=key.choices,
                               help=key.help)
    sub.choices["report"].add_argument("--reports", nargs="+", help="run_report.json files")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        run, reads = STAGES[args.command]
        conf = _resolve(args, _load_config(args.config))
        run(args, conf)
        if reads:
            _echo_config(Path(args.out), args.command, conf)
        return 0
    except (ValueError, KeyError, RuntimeError, json.JSONDecodeError) as exc:
        # RuntimeError: multi_seed_run names the seed whose run failed.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
