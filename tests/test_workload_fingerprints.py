"""The benchmark workloads' outputs against their recorded digests.

For each workload and seed 1-3, the first cases of `workloads.make_cases`
run through `workloads.execute`, and the SHA-256 over their
`workloads.fingerprint`s (the canonical `result` bytes and exit code of
each case) must equal the digest in workload_fingerprints.json.  A change
that keeps every answer keeps every digest.  witness_scale stops at 40
cases, before the first 2I case, to keep the check short.

The digests were taken with one BLAS thread, and the thread count is
fixed when numpy is first imported, so the check runs in a fresh
interpreter.  `python tests/test_workload_fingerprints.py` prints the
digests of the current tree in the file's format.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("workload_fingerprints.json")
CASES = {"fixed_point": 60, "certify": 60, "witness": 60, "witness_scale": 40}
SEEDS = (1, 2, 3)

DIGESTS = """
import hashlib, json, sys
from workloads import execute, fingerprint, make_cases
cases, seeds = json.loads(sys.argv[1]), json.loads(sys.argv[2])
digests = {}
for workload, count in cases.items():
    for seed in seeds:
        h = hashlib.sha256()
        for case in make_cases(workload, seed, count):
            h.update(fingerprint(*execute(case)).encode())
        digests[f"{workload}:{seed}"] = h.hexdigest()
print(json.dumps(digests))
"""


def workload_digests() -> dict[str, str]:
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", DIGESTS, json.dumps(CASES), json.dumps(SEEDS)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_outputs_match_the_recorded_digests():
    assert workload_digests() == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    print(json.dumps(workload_digests(), indent=2))
