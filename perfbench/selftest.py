"""Self-test of the benchmark's input generation and correctness gate.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that equal workload seeds give equal inputs and different seeds
different ones, runs each workload's job once on the default seed and
requires its outputs to pass every check, and requires that a corrupted
output (one flipped byte in ``runs.jsonl``, an off-by-one q*, a
cascade result that is not an equilibrium) is counted as a failed operation.
Exits nonzero if any of these does not hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def failed_ops(ops) -> int:
    return sum(not ok for _, ok, _ in ops)


def main() -> int:
    root = Path.cwd()
    nc = run.import_package(root)
    expected = json.loads(run.EXPECTED_PATH.read_text())
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    results = []

    def expect(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    try:
        for name, wl in WORKLOADS.items():
            prints = [wl.input_fingerprint(nc, wl.setup(nc, seed, work / f"{name}-{tag}"))
                      for tag, seed in (("a", 1), ("b", 2), ("c", 1))]
            expect(f"{name}: seed 1 and seed 2 give different inputs", prints[0] != prints[1])
            expect(f"{name}: seed 1 twice gives equal inputs", prints[0] == prints[2])

        sweep = WORKLOADS["sweep"]
        inputs = sweep.setup(nc, DEFAULT_SEED, work / "sweep")
        _, _, _, summary, ops = run.run_ops(sweep, nc, inputs, DEFAULT_SEED, expected["sweep"])
        expect("sweep: default seed passes", failed_ops(ops) == 0,
               f"{failed_ops(ops)} of {len(ops)} failed")
        jsonl = inputs.out / "runs.jsonl"
        data = bytearray(jsonl.read_bytes())
        data[len(data) // 2] ^= 0x01
        jsonl.write_bytes(bytes(data))
        corrupted = sweep.summarize(nc, (0, summary["stdout"], ""), inputs)
        ops = sweep.check(nc, corrupted, inputs, DEFAULT_SEED, expected["sweep"])
        expect("sweep: one flipped byte in runs.jsonl fails", failed_ops(ops) > 0,
               f"{failed_ops(ops)} of {len(ops)} failed")

        large = WORKLOADS["large"]
        inputs = large.setup(nc, DEFAULT_SEED, work / "large")
        _, _, _, good, ops = run.run_ops(large, nc, inputs, DEFAULT_SEED, expected["large"])
        expect("large: default seed passes", failed_ops(ops) == 0,
               f"{failed_ops(ops)} of {len(ops)} failed")
        for idx in range(len(good["queries"])):
            bad = copy.deepcopy(good)
            bad["queries"][idx]["q_star"][0] += 1
            ops = large.check(nc, bad, inputs, DEFAULT_SEED, expected["large"])
            expect(f"large: off-by-one q* in query {idx} fails", failed_ops(ops) > 0)

        general = WORKLOADS["general"]
        inputs = general.setup(nc, DEFAULT_SEED, work / "general")
        _, _, _, good, ops = run.run_ops(general, nc, inputs, DEFAULT_SEED,
                                         expected["general"])
        expect("general: default seed passes", failed_ops(ops) == 0,
               f"{failed_ops(ops)} of {len(ops)} failed")
        bad = copy.deepcopy(good)
        bad["sets"][0]["weighted"]["q_star"][0] += 1
        ops = general.check(nc, bad, inputs, DEFAULT_SEED, expected["general"])
        expect("general: off-by-one q* fails", failed_ops(ops) > 0)
        bad = copy.deepcopy(good)
        bad["sets"][0]["cascade"]["is_nash"] = False
        ops = general.check(nc, bad, inputs, 7, None)
        expect("general: a non-equilibrium cascade fails on any seed", failed_ops(ops) > 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
