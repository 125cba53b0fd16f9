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

    def test_trace_dir_that_is_a_file(self, tmp_path, capsys):
        sc = write_json(tmp_path / "s.json", {"kind": "box_fixed_point", "seed": 5})
        taken = tmp_path / "traces"
        taken.write_text("")
        suite = write_json(tmp_path / "suite.json", [{"kind": "box_fixed_point", "seed": 5}])
        for command, path in (("run", sc), ("suite", suite)):
            assert main([command, str(path), "--quiet", "--trace-dir", str(taken)]) == 4
            err = capsys.readouterr().err
            assert f"cannot write {taken}" in err and len(err.splitlines()) == 1

    def test_trace_file_that_cannot_be_written(self, tmp_path, capsys):
        sc = write_json(tmp_path / "s.json", {"kind": "box_fixed_point", "seed": 5})
        traces = tmp_path / "traces"
        (traces / "box_fixed_point_5.csv").mkdir(parents=True)
        assert main(["run", str(sc), "--quiet", "--trace-dir", str(traces)]) == 4
        err = capsys.readouterr().err
        assert f"cannot write {traces}" in err and len(err.splitlines()) == 1

    def test_json_out_in_a_missing_directory(self, tmp_path, capsys):
        scenario = {"kind": "urns_certificate", "seed": 1, "samples": 5}
        sc = write_json(tmp_path / "s.json", scenario)
        suite = write_json(tmp_path / "suite.json", [scenario])
        dest = tmp_path / "missing" / "out.json"
        for command, path in (("run", sc), ("suite", suite)):
            assert main([command, str(path), "--quiet", "--json-out", str(dest)]) == 4
            err = capsys.readouterr().err
            assert f"cannot write {dest}" in err and len(err.splitlines()) == 1
        assert not dest.parent.exists()

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 4
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b'\xff\xfe{"kind": "box_fixed_point"}')
        for command in ("run", "suite"):
            assert main([command, str(p)]) == 4
            err = capsys.readouterr().err
            assert "not valid JSON" in err and len(err.splitlines()) == 1

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000)
        for command in ("run", "suite"):
            assert main([command, str(p)]) == 4
            err = capsys.readouterr().err
            assert "not valid JSON" in err and len(err.splitlines()) == 1

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
