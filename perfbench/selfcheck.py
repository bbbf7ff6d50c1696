"""Fast self-check of the benchmark harness at toy sizes.

Usage (from the repository root): python3 perfbench/selfcheck.py

Runs every workload at a toy size, untraced and traced, and asserts that:
- every metric BENCHMARK.json names appears with its unit, and no other;
- the toy runs pass their correctness checks;
- traced self times plus unattributed_s add up to the traced wall time;
- the checks trip on a deliberately wrong learned mu: the solver is confined
  to a box of radius 0.01 around zero, far from the true coefficients.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import run

# On the sampled scheme the only check is the error bound, which is loose at
# the real workload's N; the toy N is large enough that a wrong mu leaves it.
TOY = {
    "learn-chain7": dict(sides=(3,), N=10**9),
    "learn-grid2x3-exact": dict(sides=(2, 2)),
}
WRONG_RADIUS = 0.01


def spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_metrics(result: dict, expected: dict, label: str) -> None:
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, f"{label}: metrics {sorted(got)} != {sorted(expected)}"
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (label, name, value)


def check_accounting(result: dict, label: str) -> None:
    values = {name: m["value"] for name, m in result["metrics"].items()}
    attributed = sum(values[name] for name in run.SELF_METRICS.values())
    total = attributed + values["unattributed_s"]
    assert abs(total - values["traced_wall_s"]) < 1e-9, (label, total, values["traced_wall_s"])
    assert values["linalg.eigh_calls"] > 0, label


def wrong_mu_trips(workload: run.Workload, work) -> None:
    """Learn with the solver confined near zero; the checks must fail."""
    _, model = run.setup(workload, 1, work)
    cfg_path, op_seed = run.op_config(workload, 1, 0, work, model)
    config = json.loads(cfg_path.read_text())
    config["solver"] = {"radius": WRONG_RADIUS}
    cfg_path.write_text(json.dumps(config))
    op = run.run_op(workload, cfg_path, op_seed, work / "wrong", traced=False)
    assert op["failed"] >= 1 and op["problems"], (workload.name, op)


def main() -> int:
    if not __debug__:
        print("selfcheck relies on assert; run it without -O", file=sys.stderr)
        return 2
    bench = spec()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, changes in TOY.items():
            toy = dataclasses.replace(run.WORKLOADS[name], **changes)
            for trace, expected in ((False, e2e), (True, layers)):
                label = f"{name} trace={int(trace)}"
                result = run.run_workload(toy, 1, 0.0, trace, work / label.replace(" ", "-"))
                check_metrics(result, expected, label)
                assert result["correct"] and result["failed"] == 0, (label, result["details"])
                assert result["attempted"] == (2 if trace else 1), label
                if trace:
                    check_accounting(result, label)
            wrong_mu_trips(toy, work / f"{name}-wrong-mu")
            print(f"ok {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
