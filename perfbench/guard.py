"""Acceptance-pack guard: the pack's exit codes and result bytes must not move.

Runs every entry of scenarios/acceptance/manifest.json through
`run_scenario`, compares the exit code with the manifest and the SHA-256
of `canonical_result_bytes` with the digest in acceptance_digests.json.
Those digests are the SHA-256 of `canonical_result_bytes` of each manifest
entry's report, computed by `pack_results` with one BLAS thread at the
commit that added this benchmark.  A change that alters the pack's result
bytes on purpose regenerates them the same way.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("acceptance_digests.json")


def pack_results(pack_dir: Path):
    """Yield (file, expected exit, exit, result digest) for each manifest entry."""
    from supfix.runner import canonical_result_bytes, run_scenario

    manifest = json.loads((pack_dir / "manifest.json").read_text())
    for entry in manifest["entries"]:
        raw = json.loads((pack_dir / entry["file"]).read_text())
        report, code = run_scenario(raw)
        digest = hashlib.sha256(canonical_result_bytes(report)).hexdigest()
        yield entry["file"], entry["expect_exit"], code, digest


def check_pack(pack_dir: Path) -> tuple[int, list[str]]:
    """Returns (entries checked, one message per mismatch)."""
    recorded = json.loads(DIGESTS.read_text())
    seen, problems = set(), []
    for name, expect_exit, code, digest in pack_results(pack_dir):
        seen.add(name)
        if code != expect_exit:
            problems.append(f"{name}: exit {code}, manifest expects {expect_exit}")
        elif recorded.get(name) != digest:
            problems.append(f"{name}: result bytes differ from the recorded digest")
    problems.extend(f"{name}: recorded but not in the manifest"
                    for name in sorted(set(recorded) - seen))
    return len(seen), problems
