"""Graceful degradation: decide on damaged input instead of crashing.

The batch pipeline assumes clean 100 Hz PPG and trustworthy keystroke
timestamps. Field sessions (BLE loss, channel death, motion — see
:mod:`repro.faults`) violate that, and the pre-policy behaviour was
binary: score the trial as-is or raise deep inside the stack. This
module inserts a principled ladder between the raw trial and the
pipeline::

    gap repair ──► channel fallback ──► quality gate ──► preprocess

- **Gap repair** — samples the receiver marked missing (``NaN``) are
  reconstructed by linear interpolation, but only within a documented
  per-gap budget (``max_gap_s``); a longer gap raises a typed
  :class:`~repro.errors.QualityError` rather than inventing signal.
- **Channel fallback** — dead/saturated/mostly-missing channels are
  imputed from the average of the surviving channels (keystroke
  artifacts are coherent across channels), preserving the channel
  layout the enrolled models were trained on; authentication then
  effectively runs on the surviving channels alone.
- **Quality gate** — the repaired recording must still pass
  :func:`repro.signal.quality.assess_recording` (usable channels,
  visible keystroke artifacts) before any biometric decision is made.

Every rung taken is recorded as a :class:`DegradationEvent`;
:class:`~repro.core.session.SessionManager` copies them into its audit
log, and :class:`~repro.core.artifacts.AuthDecision` carries them
to callers.

On a clean trial the ladder is a no-op: ``apply_policy`` returns the
input trial object itself, so enabling a policy changes nothing until
something is actually wrong.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import PipelineConfig
from ..errors import QualityError
from ..signal.quality import ChannelQuality, assess_recording, channel_quality
from ..types import PinEntryTrial


@dataclass(frozen=True)
class DegradationEvent:
    """One rung of the degradation ladder, taken or refused.

    Attributes:
        stage: "gap_repair", "channel_fallback", or "quality_gate".
        action: what happened — "repaired", "imputed", "passed",
            "rejected".
        detail: human-readable specifics.
    """

    stage: str
    action: str
    detail: str


@dataclass(frozen=True)
class DegradationPolicy:
    """Knobs of the graceful-degradation ladder.

    Attributes:
        repair_gaps: reconstruct known-missing (NaN) samples by linear
            interpolation within the budget.
        max_gap_s: per-gap repair budget in seconds; a single missing
            run longer than this raises :class:`QualityError`.
        channel_fallback: impute unusable channels from the surviving
            ones instead of failing or scoring poisoned rows.
        min_usable_channels: surviving channels required for a decision.
        min_artifact_ratio: keystroke-artifact visibility threshold
            forwarded to the quality gate.
        gate: run the final quality gate (disable only in evaluation
            harnesses measuring the gate's own contribution).
    """

    repair_gaps: bool = True
    max_gap_s: float = 0.25
    channel_fallback: bool = True
    min_usable_channels: int = 1
    min_artifact_ratio: float = 3.0
    gate: bool = True


def _gap_runs(finite: np.ndarray) -> List[Tuple[int, int]]:
    """Return (start, length) of every non-finite run in a 1-D mask."""
    missing = ~finite
    if not missing.any():
        return []
    edges = np.flatnonzero(np.diff(missing.astype(np.int8)))
    starts = [0] if missing[0] else []
    starts.extend(int(e) + 1 for e in edges if missing[int(e) + 1])
    runs = []
    for start in starts:
        end = start
        while end < missing.size and missing[end]:
            end += 1
        runs.append((start, end - start))
    return runs


def _repair_channel(
    row: np.ndarray, max_gap: int
) -> Tuple[np.ndarray, int, int]:
    """Linearly interpolate NaN gaps in one channel within the budget.

    Returns:
        (repaired row, gaps repaired, samples filled).

    Raises:
        QualityError: when any single gap exceeds ``max_gap`` samples.
    """
    finite = np.isfinite(row)
    runs = _gap_runs(finite)
    if not runs:
        return row, 0, 0
    longest = max(length for _, length in runs)
    if longest > max_gap:
        raise QualityError(
            f"missing-sample gap of {longest} samples exceeds the repair "
            f"budget of {max_gap}"
        )
    idx = np.arange(row.size)
    repaired = row.copy()
    # np.interp edge-holds before the first / after the last finite
    # sample, which is the right call for head/tail gaps.
    repaired[~finite] = np.interp(idx[~finite], idx[finite], row[finite])
    return repaired, len(runs), int((~finite).sum())


def apply_policy(
    trial: PinEntryTrial,
    config: Optional[PipelineConfig] = None,
    policy: Optional[DegradationPolicy] = None,
) -> Tuple[PinEntryTrial, Tuple[DegradationEvent, ...]]:
    """Run the degradation ladder over one trial.

    Args:
        trial: the raw trial, possibly damaged.
        config: pipeline constants (for the quality gate's energy
            analysis).
        policy: the ladder's knobs; defaults to :class:`DegradationPolicy`.

    Returns:
        ``(prepared_trial, events)`` — the repaired trial (the input
        object itself when nothing needed doing) and the ladder's audit
        trail.

    Raises:
        QualityError: when the trial is too damaged to score — a gap
            beyond the repair budget, fewer usable channels than the
            policy requires, or a failed final quality gate.
    """
    if config is None:
        config = PipelineConfig()
    if policy is None:
        policy = DegradationPolicy()

    recording = trial.recording
    samples = recording.samples
    events: List[DegradationEvent] = []
    changed = False

    quality: List[ChannelQuality] = [channel_quality(row) for row in samples]
    usable = [q.usable for q in quality]
    n_usable = sum(usable)
    if n_usable < policy.min_usable_channels:
        raise QualityError(
            f"only {n_usable} usable channel(s); the policy requires "
            f"{policy.min_usable_channels}"
        )

    # Rung 1: bounded repair of known-missing samples on usable channels.
    if policy.repair_gaps:
        max_gap = max(1, int(round(policy.max_gap_s * recording.fs)))
        repaired = samples.copy()
        total_gaps = 0
        total_filled = 0
        demoted: List[str] = []
        for i, row in enumerate(samples):
            if not usable[i]:
                continue  # unusable channels are the fallback rung's job
            try:
                repaired[i], gaps, filled = _repair_channel(row, max_gap)
            except QualityError:
                # A gap beyond the budget is not worth inventing signal
                # for — but with channel fallback available, losing one
                # channel's tail should cost that channel, not the
                # whole trial. Demote it to the fallback rung.
                if not policy.channel_fallback:
                    raise
                usable[i] = False
                n_usable -= 1
                if n_usable < policy.min_usable_channels:
                    raise QualityError(
                        f"only {n_usable} usable channel(s) after gap-"
                        "budget demotions; the policy requires "
                        f"{policy.min_usable_channels}"
                    )
                demoted.append(recording.channels[i].label)
                continue
            total_gaps += gaps
            total_filled += filled
        if demoted:
            events.append(
                DegradationEvent(
                    stage="gap_repair",
                    action="demoted",
                    detail=(
                        f"channel(s) {', '.join(demoted)} exceeded the "
                        f"{max_gap}-sample gap budget; deferred to "
                        "channel fallback"
                    ),
                )
            )
        if total_filled:
            samples = repaired
            changed = True
            events.append(
                DegradationEvent(
                    stage="gap_repair",
                    action="repaired",
                    detail=(
                        f"interpolated {total_gaps} gap(s), "
                        f"{total_filled} sample(s), budget "
                        f"{max_gap} samples/gap"
                    ),
                )
            )

    # Rung 2: impute unusable channels from the surviving ones so the
    # enrolled models keep their channel layout.
    if policy.channel_fallback and n_usable < len(usable):
        surviving = np.array([samples[i] for i in range(len(usable)) if usable[i]])
        fallback = surviving.mean(axis=0)
        samples = samples.copy() if not changed else samples
        labels = []
        for i, ok in enumerate(usable):
            if not ok:
                samples[i] = fallback
                labels.append(recording.channels[i].label)
        changed = True
        events.append(
            DegradationEvent(
                stage="channel_fallback",
                action="imputed",
                detail=(
                    f"channel(s) {', '.join(labels)} imputed from "
                    f"{n_usable} surviving channel(s)"
                ),
            )
        )

    prepared = trial
    if changed:
        prepared = dataclasses.replace(
            trial, recording=recording.with_samples(samples)
        )

    # Rung 3: the final gate — refuse to decide on what is still garbage.
    if policy.gate:
        report = assess_recording(
            prepared.recording,
            prepared.events,
            config,
            min_usable_channels=policy.min_usable_channels,
            min_artifact_ratio=policy.min_artifact_ratio,
        )
        if not report.ok:
            ratio = (
                f"{report.artifact_ratio:.2f}"
                if report.artifact_ratio is not None
                else "n/a"
            )
            events.append(
                DegradationEvent(
                    stage="quality_gate",
                    action="rejected",
                    detail=(
                        f"{report.usable_channels} usable channel(s), "
                        f"artifact ratio {ratio} < "
                        f"{policy.min_artifact_ratio:.2f}"
                    ),
                )
            )
            raise QualityError(
                "quality gate rejected the trial: "
                f"{report.usable_channels} usable channel(s), "
                f"artifact ratio {ratio}"
            )
        if changed:
            events.append(
                DegradationEvent(
                    stage="quality_gate",
                    action="passed",
                    detail=(
                        f"repaired recording usable "
                        f"({report.usable_channels} channel(s), artifact "
                        f"ratio "
                        + (
                            f"{report.artifact_ratio:.2f}"
                            if report.artifact_ratio is not None
                            else "n/a"
                        )
                        + ")"
                    ),
                )
            )

    return prepared, tuple(events)
