"""CLI serving verbs: process workers, chaos battery, graceful drain."""

import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXIT_DEGRADED, main

pytestmark = pytest.mark.slow


class TestServeProcessMode:
    def test_serve_process_mode_loopback(self, capsys):
        code = main([
            "serve", "@loopback", "--worker-mode", "process",
            "--backends", "orpheus", "--workers", "2", "--batch", "2",
            "--rps", "40", "--duration", "0.5", "--json"])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert code == 0, document
        assert document["healthy"]
        assert document["health"]["worker_mode"] == "process"
        assert document["health"]["supervisor"]["alive"] == 2
        assert document["load"]["silent_drops"] == 0
        # Rows, not just requests: the workers' buckets reach the health
        # document and every executed row is a request or a zero.
        health, stats = document["health"], document["health"]["stats"]
        assert health["buckets"] == [1, 2]
        assert {int(w) for w in stats["runs_by_width"]} <= {1, 2}
        assert sum(int(w) * n for w, n in stats["runs_by_width"].items()) \
            == stats["batched_requests"] + stats["padded_rows"]
        # The robustness keys are the stats document, re-read: one ledger.
        breakers = stats["breakers"]
        assert document["robustness"] == {
            "sheds": stats["rejected"],
            "breaker_trips": sum(b["trips"] for b in breakers),
            "breaker_recoveries": sum(b["recoveries"] for b in breakers),
            "reroutes": stats["reroutes"],
            "deadline_misses": stats["deadline_misses"],
            "failed_requests": stats["failed"],
        }


def test_serve_text_summary_counts_rows(capsys):
    code = main(["serve", "@loopback", "--backends", "orpheus",
                 "--workers", "1", "--batch", "4", "--rps", "40",
                 "--duration", "0.3"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "  batches by width 1x" in out
    assert ", padded rows " in out
    assert "  robustness: " in out and " breaker trip(s), " in out


class TestServeChaosVerb:
    def test_serve_chaos_writes_the_document(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.json")
        code = main([
            "serve-chaos", "@loopback", "--workers", "2", "--kill", "1",
            "--duration", "1.0", "--clients", "2", "--seed", "3",
            "--save", path, "--json"])
        stdout_doc = json.loads(capsys.readouterr().out)
        assert code == 0, stdout_doc
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
        assert saved["schema"] == "repro/serve-chaos@1"
        assert saved["passed"]
        assert {s["scenario"] for s in saved["scenarios"]} == {
            "worker-kill", "poison-quarantine", "hang-heartbeat"}

    def test_serve_chaos_rejects_bad_kill_count(self, capsys):
        code = main(["serve-chaos", "@loopback", "--workers", "2",
                     "--kill", "5", "--json"])
        assert code == 1
        assert "kill" in json.loads(capsys.readouterr().out)[
            "error"]["message"]


class TestGracefulDrain:
    @pytest.mark.parametrize("signum,name", [
        (signal.SIGTERM, "SIGTERM"),
        (signal.SIGINT, "SIGINT"),
    ])
    def test_signal_drains_and_exits_zero(self, signum, name):
        src_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli import main; import sys; sys.exit(main("
             "['serve', '@loopback', '--backends', 'orpheus',"
             " '--workers', '2', '--rps', '20', '--duration', '60',"
             " '--json']))"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            # Wait for the readiness marker so the signal cannot land
            # before the graceful handler is installed (racy under load).
            stderr_buf = b""
            deadline = time.monotonic() + 60.0
            while b"ready" not in stderr_buf:
                assert time.monotonic() < deadline, stderr_buf
                ready, _, _ = select.select([proc.stderr], [], [], 0.5)
                if ready:
                    chunk = os.read(proc.stderr.fileno(), 4096)
                    assert chunk, (proc.poll(), stderr_buf)
                    stderr_buf += chunk
            time.sleep(0.3)  # take a little load first
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=30.0)
        except Exception:
            proc.kill()
            raise
        assert proc.returncode == 0, (proc.returncode, out, err)
        document = json.loads(out)
        assert document["signal"] == name
        assert document["drained"] is True
        assert document["outstanding"] == 0


def test_exit_degraded_constant_is_part_of_the_contract():
    assert EXIT_DEGRADED == 4
