"""The benchmark workloads' outputs against their recorded digests.

For each workload and seed 1-3, the first cases of `workloads.make_cases`
run through `workloads.execute`, and the SHA-256 over their
`workloads.fingerprint`s (the canonical `result` bytes and exit code of
each case) must equal the digest in workload_fingerprints.json.  A change
that keeps every answer keeps every digest.  witness_scale stops at 40
cases, before the first 2I case, to keep the check short.

The digests were taken with one BLAS thread, and the thread count is
fixed when numpy is first imported, so the check runs in a fresh
interpreter.  Last-ulp floats in `result` depend on the host's numeric
kernels, so the file also records the environment its digests were taken
on: the numpy version, the OpenBLAS core numpy's OpenBLAS picked (read
through `scipy_openblas_get_corename64_` in `numpy.libs`, "unknown" where
that symbol is missing) and numpy's highest dispatched SIMD target.  The
comparison stays exact; a mismatch names both environments.
`python tests/test_workload_fingerprints.py` prints the environment and
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
import ctypes, glob, hashlib, json, os, sys
import numpy as np
from workloads import execute, fingerprint, make_cases

def openblas_core():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"

simd = np.show_config(mode="dicts")["SIMD Extensions"]
environment = {"numpy": np.__version__, "openblas_core": openblas_core(),
               "simd": (simd.get("found") or simd["baseline"])[-1]}
cases, seeds = json.loads(sys.argv[1]), json.loads(sys.argv[2])
digests = {}
for workload, count in cases.items():
    for seed in seeds:
        h = hashlib.sha256()
        for case in make_cases(workload, seed, count):
            h.update(fingerprint(*execute(case)).encode())
        digests[f"{workload}:{seed}"] = h.hexdigest()
print(json.dumps({"environment": environment, "digests": digests}))
"""


def workload_digests() -> dict:
    """{"environment": {...}, "digests": {"<workload>:<seed>": sha256}} of this tree."""
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
    recorded, run = json.loads(RECORDED.read_text()), workload_digests()
    assert run["digests"] == recorded["digests"], (
        f"digests recorded on {recorded['environment']}, run on {run['environment']}")


if __name__ == "__main__":
    print(json.dumps(workload_digests(), indent=2))
