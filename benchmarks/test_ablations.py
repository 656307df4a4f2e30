"""Ablation benches for the design choices Section IV motivates.

Not paper artifacts, but each isolates one pipeline stage the paper
argues for:

- fine-grained keystroke calibration (Eq. 1) vs raw phone timestamps;
- smoothness-priors detrending before short-time energy detection;
- the energy threshold ratio (the paper picks 1/2 of the mean);
- the privacy-boost fusion depth K (Eq. 4).
"""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.core import WaveformModel, fuse_waveforms, preprocess_trial
from repro.core import extract_segments
from repro.data import StudyData, ThirdPartyStore
from repro.eval.reporting import format_table
from repro.signal import segment_around, short_time_energy

PIN = "1628"
FEATURES = 1260


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=8, seed=21)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


def _key_segments(data, config, uid, count, centers="calibrated"):
    """Per-key segments using calibrated or raw reported centers."""
    by_key = {}
    for trial in data.trials(uid, PIN, "one_handed", count):
        pre = preprocess_trial(trial, config)
        for position, key in enumerate(trial.pin):
            if centers == "calibrated":
                center = pre.keystroke_indices[position]
            else:
                center = int(
                    round(trial.events[position].reported_time * trial.recording.fs)
                )
                center = int(np.clip(center, 0, trial.recording.n_samples - 1))
            seg = segment_around(pre.detrended, center, config.segment_window)
            by_key.setdefault(key, []).append(seg)
    return by_key


def test_ablation_calibration(benchmark, data, config):
    """Calibrated segment centers must beat raw reported timestamps."""

    def run():
        rows = []
        for centers in ("calibrated", "reported"):
            legit = _key_segments(data, config, 0, 14, centers)
            third = {}
            for uid in (1, 2, 3):
                for key, segs in _key_segments(data, config, uid, 5, centers).items():
                    third.setdefault(key, []).extend(segs)
            imposter = _key_segments(data, config, 7, 5, centers)

            accept, reject = [], []
            for key in PIN:
                model = WaveformModel(
                    num_features=FEATURES, balanced=True
                ).fit(np.stack(legit[key][:9]), np.stack(third[key]))
                accept.extend(
                    model.decision_function(np.stack(legit[key][9:])) > 0
                )
                reject.extend(
                    model.decision_function(np.stack(imposter[key])) <= 0
                )
            rows.append((centers, float(np.mean(accept)), float(np.mean(reject))))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(format_table(("centers", "accuracy", "trr"), rows,
                       title="Ablation — keystroke time calibration"))
    calibrated, reported = rows[0], rows[1]
    # Combined usability+security must not get better without calibration.
    assert calibrated[1] + calibrated[2] >= reported[1] + reported[2] - 0.05


def test_ablation_detrending(benchmark, data, config):
    """Detection over detrended vs merely filtered signals.

    Baseline wander inflates the mean short-time energy, so without
    detrending the 1/2-mean threshold misses keystrokes.
    """

    def run():
        hits = {"detrended": [], "filtered": []}
        for uid in range(4):
            for trial in data.trials(uid, PIN, "one_handed", 6):
                pre = preprocess_trial(trial, config)
                for label, signal in (
                    ("detrended", pre.reference),
                    ("filtered", pre.filtered.mean(axis=0)),
                ):
                    energy = short_time_energy(signal, config.energy_window)
                    threshold = config.energy_threshold_ratio * energy.mean()
                    detected = sum(
                        energy[i] > threshold for i in pre.keystroke_indices
                    )
                    hits[label].append(detected / len(trial.pin))
        return {k: float(np.mean(v)) for k, v in hits.items()}

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(format_table(
        ("signal", "keystroke detection rate"),
        [(k, v) for k, v in result.items()],
        title="Ablation — smoothness-priors detrending before detection",
    ))
    assert result["detrended"] >= result["filtered"] - 0.02
    assert result["detrended"] >= 0.9


def test_ablation_energy_threshold(benchmark, data, config):
    """Sweep of the detection threshold ratio around the paper's 1/2."""

    def run():
        rows = []
        for ratio in (0.25, 0.5, 0.75, 1.0):
            exact = []
            for uid in range(4):
                for trial in data.trials(uid, PIN, "one_handed", 6):
                    pre = preprocess_trial(trial, config)
                    energy = short_time_energy(pre.reference, config.energy_window)
                    threshold = ratio * energy.mean()
                    detected = sum(
                        energy[i] > threshold for i in pre.keystroke_indices
                    )
                    exact.append(detected == len(trial.pin))
            rows.append((ratio, float(np.mean(exact))))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(format_table(
        ("threshold ratio", "all-4-detected rate"),
        rows,
        title="Ablation — short-time energy threshold",
    ))
    by_ratio = dict(rows)
    # The paper's 1/2 setting is (near-)optimal in this sweep.
    assert by_ratio[0.5] >= max(by_ratio.values()) - 0.05


def test_ablation_fusion_depth(benchmark, data, config):
    """Privacy-boost fusion depth K (Eq. 4): K = 2..4."""

    def run():
        third_store = ThirdPartyStore(data, [1, 2, 3, 4], PIN)
        rows = []
        for depth in (2, 3, 4):
            def fused(trial):
                pre = preprocess_trial(trial, config)
                segments = extract_segments(pre, config)[:depth]
                return fuse_waveforms(segments)

            legit = [fused(t) for t in data.trials(0, PIN, "one_handed", 14)]
            third = [fused(t) for t in third_store.sample(30)]
            imposter = [fused(t) for t in data.trials(7, PIN, "one_handed", 6)]
            model = WaveformModel(num_features=FEATURES).fit(
                np.stack(legit[:9]), np.stack(third)
            )
            accuracy = float(np.mean(
                model.decision_function(np.stack(legit[9:])) > 0
            ))
            trr = float(np.mean(
                model.decision_function(np.stack(imposter)) <= 0
            ))
            rows.append((depth, accuracy, trr))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(format_table(
        ("fusion depth K", "accuracy", "trr"),
        rows,
        title="Ablation — waveform fusion depth",
    ))
    # Fusion keeps working at every depth (usable accuracy + security).
    for _depth, accuracy, trr in rows:
        assert accuracy + trr >= 1.0
