"""Unit tests for the streaming keystroke detector."""

import numpy as np
import pytest

from repro.core import StreamingKeystrokeDetector
from repro.errors import ConfigurationError, SignalError


def _run(detector, samples, chunk=25):
    events = []
    for start in range(0, samples.shape[1], chunk):
        events.extend(detector.push(samples[:, start : start + chunk]))
    events.extend(detector.flush())
    return events


class TestConstruction:
    def test_invalid_fs(self):
        with pytest.raises(ConfigurationError):
            StreamingKeystrokeDetector(fs=0.0)

    def test_invalid_time_constants(self):
        with pytest.raises(ConfigurationError):
            StreamingKeystrokeDetector(fs=100.0, refractory=0.0)

    def test_window_scales_with_rate(self):
        full = StreamingKeystrokeDetector(fs=100.0)
        half = StreamingKeystrokeDetector(fs=50.0)
        assert half.window == full.window // 2


class TestDetection:
    def test_detects_most_keystrokes(self, population, synthesizer):
        rng = np.random.default_rng(31)
        matched_total, true_total, false_total = 0, 0, 0
        for rep in range(8):
            trial = synthesizer.synthesize_trial(
                population[rep % 4], "1628", rng
            )
            detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
            events = _run(detector, trial.recording.samples)
            true_times = [e.true_time for e in trial.events]
            matched_total += sum(
                1
                for t in true_times
                if any(abs(ev.time - t) < 0.35 for ev in events)
            )
            false_total += sum(
                1
                for ev in events
                if not any(abs(ev.time - t) < 0.35 for t in true_times)
            )
            true_total += len(true_times)
        assert matched_total / true_total >= 0.8
        assert false_total / 8 <= 3.0

    def test_quiet_stream_emits_nothing_catastrophic(self, rng):
        detector = StreamingKeystrokeDetector(fs=100.0)
        noise = rng.normal(0.0, 0.1, size=(4, 1000))
        events = _run(detector, noise)
        # Noise-only: no more than sporadic false alarms.
        assert len(events) <= 4

    def test_events_are_ordered_and_spaced(self, population, synthesizer):
        rng = np.random.default_rng(8)
        trial = synthesizer.synthesize_trial(population[0], "1628", rng)
        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        events = _run(detector, trial.recording.samples)
        indices = [e.index for e in events]
        assert indices == sorted(indices)

    def test_chunk_size_does_not_change_events(self, population, synthesizer):
        rng = np.random.default_rng(9)
        trial = synthesizer.synthesize_trial(population[1], "1628", rng)
        samples = trial.recording.samples
        by_chunk = {}
        for chunk in (1, 7, 50, samples.shape[1]):
            detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
            by_chunk[chunk] = [e.index for e in _run(detector, samples, chunk)]
        reference = by_chunk[1]
        for chunk, indices in by_chunk.items():
            assert indices == reference, f"chunk={chunk}"

    def test_reset_forgets_state(self, population, synthesizer):
        rng = np.random.default_rng(10)
        trial = synthesizer.synthesize_trial(population[0], "1628", rng)
        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        first = _run(detector, trial.recording.samples)
        detector.reset()
        assert detector.samples_seen == 0
        second = _run(detector, trial.recording.samples)
        assert [e.index for e in first] == [e.index for e in second]

    def test_channel_count_change_rejected(self, rng):
        detector = StreamingKeystrokeDetector(fs=100.0)
        detector.push(rng.normal(size=(4, 10)))
        with pytest.raises(SignalError):
            detector.push(rng.normal(size=(2, 10)))

    def test_3d_chunk_rejected(self, rng):
        detector = StreamingKeystrokeDetector(fs=100.0)
        with pytest.raises(SignalError):
            detector.push(rng.normal(size=(2, 3, 4)))

    def test_flush_idempotent(self, rng):
        detector = StreamingKeystrokeDetector(fs=100.0)
        detector.push(rng.normal(size=(1, 100)))
        detector.flush()
        assert detector.flush() == []


class TestEdgeCases:
    def test_empty_chunk_is_noop(self, rng):
        detector = StreamingKeystrokeDetector(fs=100.0)
        assert detector.push(np.empty((4, 0))) == []
        assert detector.samples_seen == 0
        # The stream continues normally afterwards.
        detector.push(rng.normal(size=(4, 50)))
        assert detector.samples_seen == 50

    def test_empty_chunks_do_not_change_events(self, population, synthesizer):
        rng = np.random.default_rng(13)
        trial = synthesizer.synthesize_trial(population[0], "1628", rng)
        samples = trial.recording.samples

        plain = StreamingKeystrokeDetector(fs=trial.recording.fs)
        reference = [e.index for e in _run(plain, samples)]

        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        events = []
        for start in range(0, samples.shape[1], 25):
            events.extend(detector.push(np.empty((samples.shape[0], 0))))
            events.extend(detector.push(samples[:, start:start + 25]))
        events.extend(detector.flush())
        assert [e.index for e in events] == reference

    def test_chunk_larger_than_window(self, population, synthesizer):
        rng = np.random.default_rng(14)
        trial = synthesizer.synthesize_trial(population[1], "1628", rng)
        samples = trial.recording.samples
        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        assert samples.shape[1] > detector.window
        one_shot = [e.index for e in _run(detector, samples, samples.shape[1])]
        reference_detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        reference = [e.index for e in _run(reference_detector, samples, 25)]
        assert one_shot == reference

    def test_flush_after_flush_after_events(self, population, synthesizer):
        rng = np.random.default_rng(15)
        trial = synthesizer.synthesize_trial(population[0], "1628", rng)
        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        detector.push(trial.recording.samples)
        detector.flush()
        assert detector.flush() == []
        assert detector.flush() == []

    def test_reset_restores_bit_identical_sequence(
        self, population, synthesizer
    ):
        rng = np.random.default_rng(16)
        trial = synthesizer.synthesize_trial(population[2], "1628", rng)
        detector = StreamingKeystrokeDetector(fs=trial.recording.fs)
        first = _run(detector, trial.recording.samples)
        detector.reset()
        second = _run(detector, trial.recording.samples)
        # Full dataclass equality: index, time, energy, and threshold.
        assert first == second
