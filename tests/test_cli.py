"""Command line interface behavior, in process and through a real process."""

import json
import shutil
import subprocess
import sys

from supfix.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


class TestMainInProcess:
    def test_run_ok(self, tmp_path, capsys):
        sc = write_json(tmp_path / "s.json", {"kind": "urns_certificate", "seed": 1, "samples": 5})
        code = main(["run", str(sc)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["status"] == "ok"

    def test_quiet_and_json_out(self, tmp_path, capsys):
        sc = write_json(tmp_path / "s.json", {"kind": "box_fixed_point", "seed": 2})
        dest = tmp_path / "report.json"
        code = main(["run", str(sc), "--quiet", "--json-out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["result"]["halving_exact"] is True

    def test_trace_dir_created(self, tmp_path):
        sc = write_json(tmp_path / "s.json", {"kind": "box_fixed_point", "seed": 5})
        traces = tmp_path / "traces" / "deep"
        assert main(["run", str(sc), "--quiet", "--trace-dir", str(traces)]) == 0
        assert list(traces.glob("*.csv"))

    def test_exit_codes_propagate(self, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad.json",
            {"kind": "matrix_derivation", "seed": 1, "group": "q8", "corrupt": True},
        )
        assert main(["run", str(bad), "--quiet"]) == 3
        malformed = write_json(tmp_path / "m.json", {"kind": "box_fixed_point"})
        assert main(["run", str(malformed), "--quiet"]) == 4

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 4
        assert "not valid JSON" in capsys.readouterr().err

    def test_suite_command(self, tmp_path, capsys):
        suite = write_json(
            tmp_path / "suite.json",
            {
                "scenarios": [
                    {"kind": "box_fixed_point", "seed": 0},
                    {"kind": "group_algebra_derivation", "seed": 0, "group": "cyclic:6"},
                ]
            },
        )
        code = main(["suite", str(suite)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["summary"]["count"] == 2


class TestRealProcess:
    def test_console_script_round_trip(self, tmp_path):
        sc = write_json(tmp_path / "s.json", {"kind": "urns_certificate", "seed": 4, "samples": 5})
        exe = shutil.which("supfix")
        if exe is not None:
            cmd = [exe, "run", str(sc)]
        else:
            cmd = [sys.executable, "-m", "supfix.cli", "run", str(sc)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "ok"
