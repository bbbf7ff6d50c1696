import json
import math

import numpy as np
import pytest

from gibbslearn import __version__
from gibbslearn.reporting import (
    MANIFEST_KEY,
    POSITIVE_INT,
    REQUIRED,
    check_config,
    csv_body,
    fmt_cell,
    is_manifest,
    nonempty_list_of,
    read_json,
    trial_seed,
    utc_now,
    write_csv,
    write_json,
    write_manifest,
)


def test_fmt_cell_floats_are_12_digit():
    assert fmt_cell(1 / 3) == "0.333333333333"
    assert fmt_cell(1e-15) == "1e-15"
    assert fmt_cell(np.float64(2.5)) == "2.5"


def test_fmt_cell_non_floats():
    assert fmt_cell(True) == "true"
    assert fmt_cell(False) == "false"
    assert fmt_cell(7) == "7"
    assert fmt_cell(np.int64(7)) == "7"
    assert fmt_cell("text") == "text"


def test_csv_body_layout():
    body = csv_body(("a", "b"), [(1, 0.5), (2, True)])
    assert body == "a,b\n1,0.5\n2,true\n"
    assert "\r" not in body


def test_write_csv_bytes_are_lf_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x",), [(0.1,), (0.2,)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == csv_body(("x",), [(0.1,), (0.2,)])


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": np.float64(1.5), "a": np.arange(3), "c": np.int32(2)})
    text = path.read_text()
    # sorted keys, 2-space indent, LF endings
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "\r" not in text
    assert json.loads(text) == {"a": [0, 1, 2], "b": 1.5, "c": 2}
    assert read_json(path) == {"a": [0, 1, 2], "b": 1.5, "c": 2}


def test_write_json_writes_nan_and_infinity_as_null(tmp_path):
    path = tmp_path / "t.json"
    obj = {
        "nan": math.nan,
        "inf": (-math.inf, 1.0),
        "numpy": [np.float64(np.nan), np.float32(np.inf), np.array([1.5, np.nan])],
        "nested": {"ints": np.arange(2), "flags": np.array([True, False])},
    }
    write_json(path, obj)

    def refuse(constant):
        raise AssertionError(f"{constant} in strict JSON")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "nan": None,
        "inf": [None, 1.0],
        "numpy": [None, None, [1.5, None]],
        "nested": {"ints": [0, 1], "flags": [True, False]},
    }
    with pytest.raises(TypeError):
        write_json(path, {"z": 1j})


def test_trial_seed_determinism():
    assert trial_seed(0, 5) == trial_seed(0, 5)
    seeds = [trial_seed(42, k) for k in range(50)]
    assert len(set(seeds)) == 50
    # evaluation order cannot matter: each seed depends only on (master, k)
    reversed_seeds = [trial_seed(42, k) for k in reversed(range(50))]
    assert seeds == list(reversed(reversed_seeds))
    assert all(0 <= s < 2**64 for s in seeds)


def test_trial_seed_master_separation():
    assert trial_seed(0, 1) != trial_seed(1, 0)


def test_manifest_round_trip(tmp_path):
    write_manifest(tmp_path, "gen", {"kappa": 2}, 7, ["model.json"])
    manifest = read_json(tmp_path / "gen_manifest.json")
    assert is_manifest(manifest)
    assert manifest[MANIFEST_KEY] == 1
    assert manifest["command"] == "gen"
    assert manifest["config"] == {"kappa": 2}
    assert manifest["master_seed"] == 7
    assert manifest["tool_version"] == __version__
    assert manifest["outputs"] == ["model.json"]
    assert manifest["trial_seeds"] == []
    assert not is_manifest({"command": "gen"})
    assert not is_manifest([1, 2])


def test_utc_now_shape():
    stamp = utc_now()
    assert stamp.endswith("+00:00") or stamp.endswith("Z")
    assert "T" in stamp


KEYS = {
    "size": (POSITIVE_INT, REQUIRED),
    "count": (POSITIVE_INT, 3),
    "box": (
        {"side": (POSITIVE_INT, REQUIRED), "open": ((lambda v: type(v) is bool, "bool"), True)},
        {},
    ),
}


def test_check_config_fills_in_the_defaults():
    assert check_config("toy config", {"size": 2}, KEYS) == {"size": 2, "count": 3, "box": {}}
    given = {"size": 2, "box": {"side": 4}}
    assert check_config("toy config", given, KEYS) == {
        "size": 2,
        "count": 3,
        "box": {"side": 4, "open": True},
    }
    assert given == {"size": 2, "box": {"side": 4}}  # what a manifest records


def test_a_list_kind_is_built_from_its_item_kind():
    check, hint = nonempty_list_of(POSITIVE_INT)
    assert hint == "nonempty list, each int >= 1"
    assert check([1, 2]) and check([3])
    for bad in ([], [1, 0], [True], (1, 2), 1, "12"):
        assert not check(bad)
    keys = {"sizes": ((check, hint), REQUIRED)}
    with pytest.raises(ValueError) as info:
        check_config("toy config", {"sizes": [2, 0]}, keys)
    assert str(info.value) == (
        "invalid toy config: sizes (expected nonempty list, each int >= 1, got [2, 0])"
    )


def test_check_config_lists_every_offender_in_one_error():
    config = {"count": 0, "colour": "red", "box": {"open": "no", "sid": 1}}
    with pytest.raises(ValueError) as info:
        check_config("toy config", config, KEYS)
    assert str(info.value) == (
        "invalid toy config: colour (unknown, expected one of size, count, box); "
        "size (missing, expected int >= 1); count (expected int >= 1, got 0); "
        "box.sid (unknown, expected one of side, open); box.side (missing, expected int >= 1); "
        "box.open (expected bool, got 'no')"
    )
    with pytest.raises(ValueError, match=r"box \(expected object, got 5\)"):
        check_config("toy config", {"size": 1, "box": 5}, KEYS)
    with pytest.raises(ValueError, match="invalid toy config: expected a JSON object, got list"):
        check_config("toy config", [], KEYS)
