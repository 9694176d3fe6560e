"""Output checks run on every pass.

Each pass must write every data file of its workload byte-identical to the
first pass of the run. At seed offset 0 the outputs must also match the
values pinned in pinned.json, which were taken from the program before any
performance work: file digests, and selected fields of JSON outputs.
rounds.csv and model.ckpt are compared pass to pass but never pinned, because
planned changes add diagnostic columns and alter the architecture hash.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")


def digest(path: Path) -> str | None:
    """sha256 of a file's bytes; None when it does not exist."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def digests(root: Path, names) -> dict[str, str | None]:
    return {name: digest(root / name) for name in names}


def load_pins(workload: str, offset: int) -> dict:
    """Pinned expectations for a workload; empty away from the default seed."""
    if offset != 0:
        return {}
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def problems(root: Path, found: dict, reference: dict | None, pins: dict,
             section: str = "outputs") -> list[str]:
    """Every way the files under root fall short; empty when they pass.

    found maps file names to the digests just taken, reference holds the
    digests of the run's first pass (None while that pass is being checked),
    and pins[section] holds pinned digests (str) or pinned JSON fields (dict)
    per file.
    """
    out = [f"{name}: missing" for name, d in found.items() if d is None]
    if reference is not None:
        out += [f"{name}: differs from the first pass" for name, d in found.items()
                if d is not None and d != reference.get(name)]
    for name, want in pins.get(section, {}).items():
        if isinstance(want, str):
            if (found.get(name) or digest(root / name)) != want:
                out.append(f"{name}: digest differs from the pinned one")
            continue
        try:
            with open(root / name, encoding="utf-8") as fh:
                got = json.load(fh)
        except (OSError, ValueError) as exc:
            out.append(f"{name}: unreadable ({exc})")
            continue
        out += [f"{name}: {key} is {got.get(key)!r}, pinned {value!r}"
                for key, value in want.items() if got.get(key) != value]
    return out
