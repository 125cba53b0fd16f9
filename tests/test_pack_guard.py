"""The acceptance pack against its recorded exit codes and result digests.

`perfbench/guard.py` reruns every entry of scenarios/acceptance and
compares the SHA-256 of each report's `result` bytes with the digest
recorded in perfbench/acceptance_digests.json.  The digests were taken
with one BLAS thread, and the thread count is fixed when numpy is first
imported, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import json, sys
from pathlib import Path
from guard import check_pack
print(json.dumps(check_pack(Path(sys.argv[1]))))
"""


def test_acceptance_pack_matches_the_recorded_digests():
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "scenarios" / "acceptance")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    checked, problems = json.loads(proc.stdout.splitlines()[-1])
    assert (checked, problems) == (13, [])
