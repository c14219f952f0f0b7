"""Check that the traced run's work counters are deterministic.

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) this makes three short traced runs:
two with one seed, whose counters (every per-layer metric counted in
``count``, ``bytes`` or ``ratio``) must be byte-identical, and one with
another seed, whose inputs must differ while the known totals stay the same.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

KNOWN = {
    "centered-sweep": {
        "catalog.graphs_out": wl.CENTERED_CORPUS,
        "sparsity.tree_depth.calls": wl.CENTERED_CORPUS + sum(k for *_, k in wl.CENTERED_RANDOM),
    },
    "dual-subcubic": {
        "duality.truncated_power.order": wl.DUAL_ORDER,
        "duality.verify_duality.calls": wl.DUAL_BATCHES,
    },
    "small-invariants": {
        "sparsity.expansion_profile.calls": wl.SMALL_CORPUS + sum(k for *_, k in wl.SMALL_RANDOM),
    },
    "graph6-io": {"formats.parse_graph6.calls": sum(k for *_, k in wl.G6_GRID)},
}
COUNTED = {"count", "bytes", "ratio"}


def traced_run(workload: str, seed: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout
    lines = out.splitlines()
    stamp = json.loads(lines[0])["stamp"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    counters = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNTED}
    return stamp["inputs_sha256"], counters


def main(names: list[str]) -> int:
    for name in names or list(KNOWN):
        inputs_a, first = traced_run(name, 1)
        _, again = traced_run(name, 1)
        inputs_b, other = traced_run(name, 2)
        if json.dumps(first, sort_keys=True) != json.dumps(again, sort_keys=True):
            diff = sorted(k for k in first if first[k] != again.get(k))
            print(f"FAIL {name}: counters differ between two runs of seed 1: {diff}")
            return 1
        if inputs_a == inputs_b:
            print(f"FAIL {name}: seeds 1 and 2 gave the same inputs")
            return 1
        for key, want in KNOWN[name].items():
            if first.get(key) != want or other.get(key) != want:
                print(f"FAIL {name}: {key} = {first.get(key)} / {other.get(key)}, expected {want}")
                return 1
        print(f"ok {name}: {len(first)} counters identical for seed 1, "
              f"seed 2 changes the inputs but not {sorted(KNOWN[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
