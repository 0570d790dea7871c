"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

#: ``serve`` at a scale where registration + load take about a second.
SERVE_TINY = ["serve", "--n", "600", "--order", "4", "--q", "64",
              "--duration", "0.5", "--clients", "2"]


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "laplace" in out and "stokes" in out
        assert "kraken" in out and "tesla" in out

    def test_evaluate_with_check(self, capsys):
        rc = main([
            "evaluate", "--n", "1200", "--order", "4", "--q", "50",
            "--check", "60",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spot check" in out
        assert "rel err" in out
        # extract and bound the reported error
        err = float(out.rsplit("rel err", 1)[1])
        assert err < 1e-2

    def test_evaluate_distribution_choice(self, capsys):
        rc = main(["evaluate", "--n", "800", "--order", "4",
                   "--distribution", "ellipsoid"])
        assert rc == 0
        assert "ellipsoid" in capsys.readouterr().out

    def test_evaluate_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "eval.jsonl"
        rc = main(["evaluate", "--n", "600", "--order", "4", "--trace", str(path)])
        assert rc == 0
        assert "trace:" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert lines, "no trace events written"
        assert all(json.loads(ln)["kind"] == "span" for ln in lines)

    def test_trace_subcommand(self, capsys, tmp_path):
        from repro.perf.trace import TraceRecorder

        path = tmp_path / "dist.jsonl"
        rc = main([
            "trace", "--p", "4", "--n", "1200", "--order", "4",
            "--phase", "COMM_reduce", "--out", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "Communication matrix" in out
        assert "Crit. path" in out
        assert "WARNING" not in out  # ledger/trace consistency holds
        # the JSONL round-trips and contains real message traffic
        back = TraceRecorder.read_jsonl(str(path))
        assert back.message_events(kind="send")
        assert back.per_rank_send_counts()

    def test_tune_slo_search(self, capsys, tmp_path):
        store = tmp_path / "tune_store"
        rc = main([
            "tune", "--n", "1500", "--latency-ms", "30000",
            "--rtol", "1e-2", "--orders", "4", "--leaf-sizes", "64,144",
            "--precisions", "fp64", "--batch-shapes", "4:2",
            "--sample", "600", "--store", str(store),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen: o4q" in out
        assert "SLO met" in out
        assert "stored under" in out
        # the persisted entry round-trips through the store
        from repro.tune.store import TuneStore

        assert TuneStore(str(store)).entries()

    def test_tune_no_measure_store_round_trip(self, capsys, tmp_path):
        """A cost-model-only search persists like a measured one: the
        stored entry is the config the command printed."""
        from repro.datasets import make_distribution
        from repro.tune.search import SLO
        from repro.tune.store import TuneStore, geometry_fingerprint

        store = tmp_path / "tune_store"
        rc = main(["tune", "--n", "3000", "--no-measure", "--orders", "4",
                   "--sample", "600", "--store", str(store)])
        assert rc == 0
        printed = capsys.readouterr().out.split("chosen: ", 1)[1].split()[0]
        fp = geometry_fingerprint(make_distribution("uniform", 3000, seed=0))
        slo = SLO(latency_s=0.25, percentile=95.0, precision_rtol=1e-3)
        stored = TuneStore(str(store)).get(fp, "laplace", slo)
        assert stored is not None and stored.key() == printed

    def test_serve_prints_snapshot_and_writes_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(SERVE_TINY)
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests:" in out and "0 errors" in out
        assert list(tmp_path.iterdir()) == []

    def test_serve_out_holds_the_snapshot(self, capsys, tmp_path):
        import json

        path = tmp_path / "serve.json"
        assert main(SERVE_TINY + ["--out", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert "m0" in snap["models"] and "hit_rate" in snap["plan_cache"]
        assert snap["models"]["m0"]["completed"] > 0
        assert snap["loadgen"]["errors"] == 0

    def test_serve_prints_a_model_no_client_drove(self, capsys):
        """Client ``i`` drives model ``i % models``: with three models and
        two clients, ``m2`` is registered but never sent a request."""
        assert main(SERVE_TINY + ["--models", "3"]) == 0
        out = capsys.readouterr().out
        assert "m2: 0 done, 0 failed" in out

    @pytest.mark.parametrize("argv, message", [
        (["--clients", "0"], "clients must be >= 1"),
        (["--models", "0"], "models must name"),
        (["--duration", "-1"], "duration_s must be > 0"),
    ], ids=["clients 0", "models 0", "duration -1"])
    def test_serve_without_load_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(SERVE_TINY + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--q", "0"], "max_points_per_box must be >= 1"),
        (["evaluate", "--order", "0"], "order must be >= 4"),
        (["evaluate", "--kernel", "bogus"], "unknown kernel 'bogus'"),
        (["trace", "--p", "0"], "nranks must be >= 1"),
        (["trace", "--p", "2", "--n", "0"], "rank 0 received no points"),
    ], ids=["evaluate --q 0", "evaluate --order 0", "evaluate --kernel bogus",
            "trace --p 0", "trace --n 0"])
    def test_library_value_error_is_a_usage_error(self, argv, message, capsys):
        """A ``ValueError`` the library raises on an argument, on the
        caller's thread or on a rank, exits 2 with the subcommand's usage
        and the library's message."""
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--n", "300"] + argv[1:])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"python -m repro {argv[0]}: error: {message}" in err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--steps", "2"],
        ["tune", "--gate"],
        ["tune", "--bench"],
        ["serve", "--bench"],
        ["serve", "--dist"],
        ["tune", "--q-sweep"],
        ["serve", "--autotune"],
        ["evaluate", "--repeat", "2"],
        ["chaos", "--seed", "0"],
        ["tune", "--threads", "1,2"],
    ], ids=lambda argv: " ".join(argv))
    def test_retired_drill_flags_are_rejected(self, argv, capsys):
        """Drill modes are not CLI flags: argparse rejects them."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
