"""Every benchmark workload keeps its recorded output digests at every seed.

``perfbench/golden.json`` holds, per seed, the sha256 digests of each
workload's outputs (the desk sweep's CSV, the sparse run's report, the dense
social runs' reports and event logs).  Each workload runs here through the
benchmark's own ``execute``, ``check`` and ``digests`` (``perfbench/
workloads.py``, loaded from its file, with nothing in ``perfbench/``
changed), at every seed the file records.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
CASES = [
    (name, int(seed))
    for seed in sorted(GOLDEN, key=int)
    for name in sorted(GOLDEN[seed])
]


def test_every_workload_has_golden_digests_at_seeds_1_to_10():
    assert sorted(int(seed) for seed in GOLDEN) == list(range(1, 11))
    assert all(sorted(GOLDEN[seed]) == sorted(WORKLOADS) for seed in GOLDEN)


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_workload_digests_match_golden(name, seed):
    _, execute, digests, check = WORKLOADS[name]
    outputs = execute(seed)
    check(outputs)
    assert digests(outputs) == GOLDEN[str(seed)][name]
