"""The benchmark's workloads: the inputs each one builds in set-up and the CLI
commands one pass runs.

A workload's seed offset n (the benchmark's --seed) shifts every depot seed it
uses by n; offset 0 gives the depots named below, whose outputs are pinned in
pinned.json.

Run as a script, this module is the set-up process:
    python3 bench/workloads.py WORKLOAD SEED_OFFSET INPUT_DIR
It starts a fresh interpreter, imports fedcharge and builds the inputs, so
its wall time is what set-up costs a user.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def use_checkout_src():
    """Import fedcharge from this checkout's src/ and nowhere else."""
    init = SRC / "fedcharge" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run from the root of a fedcharge checkout")
    sys.path.insert(0, str(SRC))
    import fedcharge

    if Path(fedcharge.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported fedcharge from {fedcharge.__file__}, not {init}")
    return fedcharge


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Builds the input files under the given directory from a seed offset.
    build: Callable[[Path, int], None]
    # (metric, argv) pairs run in order by one pass: input dir, pass dir, seed offset.
    commands: Callable[[Path, Path, int], list[tuple[str, list[str]]]]
    # Data files a pass writes (relative to the pass dir) and set-up writes
    # (relative to the input dir); each must come out byte-identical every time.
    outputs: tuple[str, ...]
    inputs: tuple[str, ...] = ()


def _write_table(path: Path, spec):
    """features.csv for a synthetic depot, built the way the A5/A7 tests do."""
    from fedcharge.features import build_feature_table, write_features
    from fedcharge.ingest import generate_synthetic
    from fedcharge.sessions import DatasetConfig, retain_sessions

    cfg = DatasetConfig()
    sessions, series = generate_synthetic(spec)
    table = build_feature_table(retain_sessions(sessions, series, cfg).sessions, series, cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_features(path, table)
    return table


# ---------------------------------------------------------------------------
# depot-etl: the README walkthrough depot, enlarged to 80-100 sessions per
# station (about 1,860 sessions and 225k readings). Synth is the write path,
# featurize the read path; analyze runs with its defaults (200 permutations).

ETL_SEED = 7


def _etl_commands(inputs: Path, out: Path, offset: int):
    depot, feats = out / "depot", out / "feats"
    return [
        ("synth", ["synth", "--seed", str(ETL_SEED + offset), "--stations", "20",
                   "--sessions-per-station", "80:100", "--out", str(depot)]),
        ("featurize", ["featurize", "--in", str(depot), "--out", str(feats)]),
        ("analyze", ["analyze", "--features", str(feats / "features.csv"),
                     "--out", str(out / "het")]),
    ]


# ---------------------------------------------------------------------------
# train-mlp: the A7 depot (seed 42, 20 stations x 90-110 sessions) with the
# README training settings. Federated clients hold about 70 training rows, so
# each local epoch is one batch under 128 rows; centralized runs full batches.

TRAIN_SEED = 42
TRAIN_FLAGS = ["--model", "mlp", "--local-epochs", "3", "--fraction", "0.2",
               "--batch-size", "128", "--seed", "0"]
FED_ROUNDS = 100
CENTRAL_EPOCHS = 40


def _train_build(inputs: Path, offset: int) -> None:
    from fedcharge.ingest import SyntheticDepotSpec

    _write_table(inputs / "features.csv", SyntheticDepotSpec(
        n_stations=20, sessions_per_station=(90, 110), seed=TRAIN_SEED + offset,
    ))


def _train_commands(inputs: Path, out: Path, offset: int):
    features = str(inputs / "features.csv")
    return [
        ("train_fed", ["train", "--features", features, "--mode", "federated",
                       "--rounds", str(FED_ROUNDS), *TRAIN_FLAGS, "--out", str(out / "fed")]),
        ("train_central", ["train", "--features", features, "--mode", "centralized",
                           "--epochs", str(CENTRAL_EPOCHS), *TRAIN_FLAGS,
                           "--out", str(out / "central")]),
    ]


_TRAIN_FILES = ("rounds.csv", "model.ckpt", "predictions.csv", "summary.json")


# ---------------------------------------------------------------------------
# het-null: analyze over prebuilt tables, as the A5 test does, in two client
# shapes (80 small stations; 20 stations x 80-100 sessions), each IID and
# shifted by the IID table's target std. The permutation null's cost follows
# clients x permutations, so the 80-client tables dominate.

HET_SEED = 0
HET_SHAPES = {"k80": (80, (10, 15)), "k20": (20, (80, 100))}
HET_TABLES = tuple(f"{shape}-{kind}" for shape in HET_SHAPES for kind in ("iid", "shifted"))


def _het_build(inputs: Path, offset: int) -> None:
    import numpy as np
    from fedcharge.ingest import SyntheticDepotSpec

    seed = HET_SEED + offset
    for shape, (stations, per_station) in HET_SHAPES.items():
        base = _write_table(inputs / f"{shape}-iid" / "features.csv", SyntheticDepotSpec(
            n_stations=stations, sessions_per_station=per_station, seed=seed,
        ))
        _write_table(inputs / f"{shape}-shifted" / "features.csv", SyntheticDepotSpec(
            n_stations=stations, sessions_per_station=per_station, seed=seed,
            heterogeneity_shift_kwh=float(np.std(base.y)),
        ))


def _het_commands(inputs: Path, out: Path, offset: int):
    return [
        ("analyze", ["analyze", "--features", str(inputs / table / "features.csv"),
                     "--seed", str(HET_SEED + offset), "--out", str(out / table)])
        for table in HET_TABLES
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="depot-etl",
            why="synth, featurize, analyze on the walkthrough depot: ingest, sessions "
                "and features do the work",
            build=lambda inputs, offset: None,
            commands=_etl_commands,
            outputs=("depot/sessions.csv", "depot/timeseries.csv", "feats/features.csv",
                     "feats/featurize_report.json", "het/heterogeneity.json"),
        ),
        Workload(
            name="train-mlp",
            why="federated and centralized MLP training on the A7 depot: models and "
                "federation do the work, ingest none",
            build=_train_build,
            commands=_train_commands,
            outputs=tuple(f"{mode}/{f}" for mode in ("fed", "central") for f in _TRAIN_FILES),
            inputs=("features.csv",),
        ),
        Workload(
            name="het-null",
            why="analyze on IID and shifted tables, 80 and 20 clients: the permutation "
                "null does the work",
            build=_het_build,
            commands=_het_commands,
            outputs=tuple(f"{t}/heterogeneity.json" for t in HET_TABLES),
            inputs=tuple(f"{t}/features.csv" for t in HET_TABLES),
        ),
    )
}


def main(argv: list[str]) -> int:
    name, offset, inputs = argv
    use_checkout_src()
    inputs_dir = Path(inputs)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].build(inputs_dir, int(offset))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
