"""Unit tests for the command-line interface."""

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig9"])
        assert args.id == "fig9"
        assert args.scale == "smoke"
        assert args.jobs is None
        assert args.seed is None

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--user", "2", "--pin", "3570", "--two-handed"]
        )
        assert args.user == 2
        assert args.pin == "3570"
        assert args.two_handed

    @pytest.mark.parametrize(
        "command",
        [
            ["list"],
            ["experiment", "fig9"],
            ["robustness"],
            ["demo"],
            ["simulate"],
            ["serve"],
        ],
    )
    def test_every_subcommand_accepts_jobs_and_seed(self, command):
        args = build_parser().parse_args(command + ["--jobs", "2", "--seed", "9"])
        assert args.jobs == 2
        assert args.seed == 9

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_seed_defaults_preserved(self):
        assert build_parser().parse_args(["demo"]).seed == 7
        assert build_parser().parse_args(["simulate"]).seed == 0

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "9000", "--synthetic", "3",
                "--features", "840", "--workers", "2", "--stripes", "8",
                "--sessions", "16", "--capacity", "4",
            ]
        )
        assert args.port == 9000 and args.synthetic == 3
        assert args.capacity == 4 and args.stripes == 8
        assert args.pin == "1628" and args.host == "127.0.0.1"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "tab1" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert "inter/intra ratio" in out

    def test_simulate_to_file(self, tmp_path, capsys):
        path = tmp_path / "trial.csv"
        assert main(["simulate", "--out", str(path), "--pin", "1628"]) == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time,")
        assert len(lines) > 100
        err = capsys.readouterr().err
        assert "pin=1628" in err
        assert err.count("# key") == 4

    def test_simulate_stdout(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time,")

    def test_robustness_unknown_fault(self, capsys):
        assert main(["robustness", "--faults", "bitrot"]) == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_experiment_seed_override_changes_population(self, capsys):
        assert main(["experiment", "fig9", "--seed", "11"]) == 0
        seeded = capsys.readouterr().out
        assert main(["experiment", "fig9"]) == 0
        default = capsys.readouterr().out
        assert "Fig. 9" in seeded
        assert seeded != default

    def test_robustness_markdown_table(self, capsys):
        code = main(
            [
                "robustness",
                "--faults",
                "gain_drift",
                "--intensities",
                "0,1",
                "--features",
                "840",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| fault | intensity |" in out
        assert "gain_drift" in out


@pytest.mark.usefixtures("restore_blas_threads")
class TestServeStore:
    def test_serve_runs_blas_on_one_thread(self, tmp_path):
        # The engine pool is the server's parallelism; no ridge fit
        # wakes BLAS helper threads beside it.
        from repro.blas import blas_threads
        from repro.cli import _build_service

        if blas_threads() is None:
            pytest.skip("no OpenBLAS build is loaded")
        args = build_parser().parse_args(
            ["serve", "--packed", str(tmp_path), "--features", "840"]
        )
        _build_service(args).close()
        assert blas_threads() == 1

    def test_wire_enrollments_grow_the_store_by_records_only(
        self, tmp_path, study_data
    ):
        # `serve` builds its negative bank once; every wire enrollment
        # then reuses the bank's extractors instead of fitting its own.
        import asyncio

        from repro.cli import _build_service, _gate_passing_trials
        from repro.core import ShardedPackedBackend
        from repro.core.packing import encode_extractor
        from repro.service import encode_trial, pin_proof
        from repro.service.protocol import EnrollCompleteRequest

        args = build_parser().parse_args(
            ["serve", "--packed", str(tmp_path), "--features", "840"]
        )
        service = _build_service(args)
        try:
            registry = service.registry
            users = ["w0", "w1", "w2"]
            for user, uid in enumerate(users):
                begin = service.enroll_begin(uid)
                trials = _gate_passing_trials(
                    study_data, user, begin.pin, 7,
                    registry.config, registry.options,
                )
                done = asyncio.run(
                    service.enroll_complete(
                        EnrollCompleteRequest(
                            user_id=uid,
                            nonce=begin.nonce,
                            proof=pin_proof(begin.pin, uid, begin.nonce),
                            trials=tuple(encode_trial(t) for t in trials),
                        )
                    )
                )
                assert done.enrolled
            bank = service._shared_negatives
        finally:
            service.close()
        sets = [bank.full, bank.fused, bank.key_fallback, *bank.key_sets.values()]
        bank_fps = {encode_extractor(s.extractor)[0] for s in sets if s is not None}
        assert len(bank_fps) <= 6
        stored = {p.stem for p in (tmp_path / "extractors").glob("*.p2x")}
        assert stored and stored <= bank_fps
        assert sorted(ShardedPackedBackend(tmp_path).user_ids()) == users
