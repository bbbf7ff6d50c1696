"""Config checks and artifact plumbing shared by the command-line tools.

CSV output is deterministic by construction: comma-separated, one header
row, LF line endings, floats printed at 12 significant digits.  Replaying a
manifest must reproduce every CSV byte for byte, so anything that varies
between runs (wall-clock timings, timestamps) is kept out of CSV files and
lands in JSON sidecars instead.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from numbers import Integral, Real

import numpy as np
import scipy

from . import __version__

__all__ = [
    "check_config",
    "fmt_cell",
    "csv_body",
    "write_csv",
    "write_json",
    "read_json",
    "trial_seed",
    "utc_now",
    "write_manifest",
    "is_manifest",
]

MANIFEST_KEY = "gibbslearn_manifest"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REQUIRED = object()  # the default of a key that must be given
ANY = (lambda v: True, "any value")  # for a value that its consumer checks
OBJECT = (lambda v: isinstance(v, dict), "object")  # the kind of a nested key table
POSITIVE_INT = (lambda v: type(v) is int and v >= 1, "int >= 1")  # not bool
# numpy scalars pass, bool and NaN do not
POSITIVE = (lambda v: isinstance(v, Real) and not isinstance(v, bool) and v > 0, "float > 0")
COUNT = (lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= 0, "int >= 0")


def nonempty_list_of(item):
    """The predicate of a nonempty list whose every entry passes `item`."""
    return lambda v: isinstance(v, list) and len(v) >= 1 and all(map(item, v))


FLOATS = (nonempty_list_of(lambda x: type(x) in (int, float)), "list of floats")  # not bool


def check_config(where: str, config, keys: dict, extra=()) -> dict:
    """config's values for `keys`, with the defaults of absent keys filled in.

    `keys` maps each key to (kind, default).  A kind is a (predicate, hint)
    pair, or the key table of a nested object, whose keys are named
    `outer.inner`; the default is REQUIRED for a key that must be given.  One
    ValueError lists every offender: an unknown key, a missing required key,
    a value of the wrong kind, then the caller's `extra` ones.
    """
    if not isinstance(config, dict):
        raise ValueError(f"invalid {where}: expected a JSON object, got {type(config).__name__}")
    bad = []
    values = _read(config, keys, "", bad)
    bad += extra
    if bad:
        raise ValueError(f"invalid {where}: " + "; ".join(bad))
    return values


def _read(config: dict, keys: dict, prefix: str, bad: list) -> dict:
    """config's values for keys, defaults filled in; appends each offender to bad."""
    names = ", ".join(keys)
    bad += [f"{prefix}{k} (unknown, expected one of {names})" for k in config if k not in keys]
    values = {}
    for key, (kind, default) in keys.items():
        name, value = prefix + key, config.get(key, default)
        check, hint = OBJECT if isinstance(kind, dict) else kind
        if key not in config:
            if default is REQUIRED:
                bad.append(f"{name} (missing, expected {hint})")
        elif not check(value):
            bad.append(f"{name} (expected {hint}, got {value!r})")
        elif isinstance(kind, dict):
            value = _read(value, kind, name + ".", bad)
        values[key] = value
    return values


def fmt_cell(value) -> str:
    """One CSV cell: floats at 12 significant digits, everything else as str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_body(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(fmt_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    body = csv_body(header, rows)
    with open(path, "w", newline="") as fh:  # body already uses LF only
        fh.write(body)


def write_json(path, obj) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def trial_seed(master_seed: int, index: int) -> int:
    """Substream seed for one trial, independent of execution order."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _numerical_environment() -> dict:
    """Library versions, BLAS build and thread settings behind a run's floats."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def write_manifest(
    out, command: str, config: dict, master_seed: int, outputs, trial_seeds=()
) -> None:
    """Write the run's manifest to `<command>_manifest.json` in directory out.

    Replay reads only `config` and `master_seed`; `environment` records what
    produced the floats, since results move in the last digits with BLAS.
    """
    manifest = {
        MANIFEST_KEY: 1,
        "command": command,
        "config": config,
        "master_seed": int(master_seed),
        "tool_version": __version__,
        "created_utc": utc_now(),
        "environment": _numerical_environment(),
        "outputs": list(outputs),
        "trial_seeds": list(trial_seeds),
    }
    write_json(os.path.join(out, f"{command}_manifest.json"), manifest)


def is_manifest(obj: dict) -> bool:
    return isinstance(obj, dict) and MANIFEST_KEY in obj
