"""End-to-end tests for the evaluation harness and its CLI."""

import pytest

from repro.evaluation import (
    format_figure,
    format_table,
    generate_figure,
    generate_table,
)
from repro.evaluation.cli import main
from repro.evaluation.model import measure_benchmark
from repro.workloads import get_benchmark


class TestMeasurementModel:
    def test_hybrid_vs_baseline_on_runtime_bench(self):
        spec = get_benchmark("wupwise")
        hybrid = measure_benchmark(spec, system="hybrid")
        base = measure_benchmark(spec, system="baseline")
        assert hybrid.norm_time(8) < base.norm_time(8)
        # The baseline runs everything sequentially here.
        assert base.norm_time(8) == pytest.approx(1.0, abs=0.05)

    def test_norm_time_bounded_by_amdahl(self):
        spec = get_benchmark("mgrid")
        m = measure_benchmark(spec, system="hybrid")
        # Cannot beat perfect speedup of the covered fraction.
        assert m.norm_time(8) >= (1.0 - spec.sc)

    def test_speedup_inverse_of_norm(self):
        spec = get_benchmark("swim")
        m = measure_benchmark(spec, system="hybrid")
        assert m.speedup(4) == pytest.approx(1.0 / m.norm_time(4))

    def test_bad_system_rejected(self):
        with pytest.raises(ValueError):
            measure_benchmark(get_benchmark("swim"), system="magic")


class TestFormatting:
    def test_table_format_contains_rows(self):
        report = generate_table("spec92")
        text = format_table(report)
        assert "matrix300" in text and "PAPER" in text and "RTov" in text

    def test_figure_format(self):
        series = generate_figure("fig11")
        text = format_figure(series)
        assert "nasa7" in text and "baseline" in text

    def test_scalability_format(self):
        series = generate_figure("fig13")
        text = format_figure(series)
        assert "16p" in text and "paper@16" in text


class TestCli:
    def test_single_artifact(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "tomcatv" in out

    def test_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "spec92" in out

    def test_bad_artifact(self):
        with pytest.raises(SystemExit):
            main(["table9"])


class TestAnalyzeCli:
    SOURCE = (
        "program cli_stdin\n"
        "param N\n"
        "array A(50)\n"
        "\n"
        "main\n"
        "  do i = 1, N @ L1\n"
        "    A[i] = A[i] + i\n"
        "  end\n"
        "end\n"
    )

    def test_stdin_dash_reads_source(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.SOURCE))
        assert main(["analyze", "-", "--loop", "L1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "classification" in out and "L1" in out

    def test_stdin_json_document(self, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO(self.SOURCE))
        assert main(["analyze", "-", "--loop", "L1", "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analyze" and payload["loop"] == "L1"

    def test_file_and_stdin_agree(self, capsys, monkeypatch, tmp_path):
        import io

        path = tmp_path / "prog.loop"
        path.write_text(self.SOURCE)
        assert main(["analyze", str(path), "--loop", "L1", "--no-cache",
                     "--json"]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(self.SOURCE))
        assert main(["analyze", "-", "--loop", "L1", "--no-cache",
                     "--json"]) == 0
        assert capsys.readouterr().out == from_file


class TestServeLoadgenCli:
    def test_loadgen_against_hosted_server(self, capsys):
        from repro.api import EngineConfig
        from repro.server import ServerThread

        hosted = ServerThread(
            workers=2,
            engine_config=EngineConfig(use_disk_cache=False),
        ).start()
        host, port = hosted.address
        try:
            assert main([
                "loadgen", "--host", host, "--port", str(port),
                "--clients", "4", "--requests", "40",
            ]) == 0
            out = capsys.readouterr().out
            assert "40/40 ok" in out and "0 error(s)" in out
        finally:
            hosted.stop()

    def test_loadgen_json_summary(self, capsys):
        import json

        from repro.api import EngineConfig
        from repro.server import ServerThread

        hosted = ServerThread(
            workers=1,
            engine_config=EngineConfig(use_disk_cache=False),
        ).start()
        host, port = hosted.address
        try:
            assert main([
                "loadgen", "--host", host, "--port", str(port),
                "--clients", "2", "--requests", "20", "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["completed"] == 20 and payload["errors"] == 0
        finally:
            hosted.stop()

    def test_loadgen_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--clients", "0"])
        with pytest.raises(SystemExit):
            main(["loadgen", "--mode", "open"])  # open loop needs --rate

    @pytest.mark.parametrize("argv", [["bench"], ["loadgen", "--bench"]])
    def test_the_deleted_harness_is_a_usage_error(self, argv):
        # bench/run.py is the one benchmark; what is gone must fail as
        # any unknown subcommand or flag does, not be silently accepted
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2

    def test_loadgen_against_non_protocol_endpoint_reports_failure(self, capsys):
        import socket
        import threading

        # a TCP sink that answers garbage: loadgen must report transport
        # failures and exit non-zero, never crash
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(4)
        port = sink.getsockname()[1]
        stop = threading.Event()

        def serve_garbage():
            sink.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = sink.accept()
                except socket.timeout:
                    continue
                with conn:
                    try:
                        conn.recv(4096)
                        conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n")
                    except OSError:
                        pass

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        try:
            assert main([
                "loadgen", "--port", str(port), "--clients", "2",
                "--requests", "4",
            ]) == 1
            out = capsys.readouterr().out
            assert "transport failure" in out
        finally:
            stop.set()
            thread.join()
            sink.close()

    def test_serve_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--max-inflight", "0"])
