"""Tests for the process-pool fan-out layer."""

import pytest

from repro.blas import blas_threads
from repro.errors import ConfigurationError
from repro.eval.parallel import (
    N_JOBS_ENV,
    parallel_map,
    resolve_n_jobs,
    run_tasks,
)


def _square(x):
    return x * x


def _worker_blas_threads(_):
    return blas_threads()


class TestResolveNJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(N_JOBS_ENV, raising=False)
        assert resolve_n_jobs() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "8")
        assert resolve_n_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "5")
        assert resolve_n_jobs() == 5

    def test_env_var_must_be_int(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_n_jobs()

    def test_zero_means_all_cores(self):
        import os

        assert resolve_n_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            resolve_n_jobs(-1)
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(-8)

    def test_env_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv(N_JOBS_ENV, "0")
        assert resolve_n_jobs() == (os.cpu_count() or 1)

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "-2")
        with pytest.raises(ConfigurationError, match=N_JOBS_ENV):
            resolve_n_jobs()

    def test_env_whitespace_is_default(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "   ")
        assert resolve_n_jobs() == 1

    def test_env_float_rejected(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, "2.5")
        with pytest.raises(ConfigurationError):
            resolve_n_jobs()

    def test_explicit_zero_beats_env(self, monkeypatch):
        import os

        monkeypatch.setenv(N_JOBS_ENV, "3")
        assert resolve_n_jobs(0) == (os.cpu_count() or 1)

    def test_env_padded_integer_parses(self, monkeypatch):
        monkeypatch.setenv(N_JOBS_ENV, " 4 ")
        assert resolve_n_jobs() == 4


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(_square, [1, 2, 3], n_jobs=1) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        assert parallel_map(_square, items, n_jobs=2) == [
            _square(i) for i in items
        ]

    def test_empty(self):
        assert parallel_map(_square, [], n_jobs=4) == []

    @pytest.mark.skipif(blas_threads() is None, reason="no OpenBLAS loaded")
    def test_workers_run_blas_on_one_thread(self):
        # The workers fill the cores; their BLAS helpers would only spin.
        assert parallel_map(_worker_blas_threads, [0, 1], n_jobs=2) == [1, 1]

    def test_unpicklable_falls_back_to_serial(self):
        """Lambdas cannot cross process boundaries; the pool demotes to
        an in-process loop instead of failing."""
        assert parallel_map(lambda x: x + 1, [1, 2, 3], n_jobs=2) == [2, 3, 4]


class TestRunTasks:
    def test_order_preserved(self):
        from functools import partial

        tasks = [partial(_square, i) for i in (4, 2, 7)]
        assert run_tasks(tasks, n_jobs=2) == [16, 4, 49]

    def test_serial_tasks(self):
        assert run_tasks([lambda: "a", lambda: "b"], n_jobs=1) == ["a", "b"]
