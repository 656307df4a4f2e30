"""Online (streaming) keystroke detection.

The preprocessing pipeline (:mod:`repro.core.pipeline`) assumes the
whole PIN entry is buffered before processing. A wearable, however,
sees PPG samples arrive continuously, and the paper's real-time
requirement (Section I) means keystroke events should be detected as
the stream flows. This module provides a causal counterpart of the
detection stages:

- baseline removal by an exponential moving average (the causal stand-in
  for smoothness-priors detrending);
- short-time energy over a sliding window;
- an adaptive threshold tracking the running mean energy (the paper's
  "1/2 of the mean" rule, applied to the past instead of the whole
  recording);
- burst detection with a refractory period, emitting one event per
  keystroke at the energy apex.

The streaming detector feeds the same downstream machinery: its event
indices can be used directly as segment centers, and
:class:`StreamingAuthenticator` hands the assembled entry to
``P2Auth.authenticate``, the engine every probe runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..config import PipelineConfig
from ..errors import AuthenticationError, ConfigurationError, SignalError
from ..types import ChannelInfo, KeystrokeEvent, PinEntryTrial, PPGRecording

if TYPE_CHECKING:
    from .artifacts import AuthDecision
    from .authenticator import P2Auth


@dataclass(frozen=True)
class DetectedKeystroke:
    """One keystroke found in the stream.

    Attributes:
        index: sample index of the energy apex (stream coordinates).
        time: apex time in seconds from stream start.
        energy: short-time energy at the apex.
        threshold: the adaptive threshold at emission time.
    """

    index: int
    time: float
    energy: float
    threshold: float


class StreamingKeystrokeDetector:  # concurrency: thread-hostile
    """Causal keystroke detector over a PPG sample stream.

    One detector serves one stream: it carries running EMA baselines
    and energy statistics that a second feeding thread would corrupt.
    Use one instance per stream (thread); never share.

    Args:
        fs: stream sampling rate, Hz.
        config: pipeline constants (energy window and threshold ratio
            are reused; defaults follow the paper).
        baseline_tau: time constant of the EMA baseline remover, s.
        refractory: minimum spacing between emitted events, s; set
            below the paper's ~1.1 s inter-key interval.
        warmup: seconds of stream used to seed the energy statistics
            before any event may be emitted.
        min_peak_ratio: a burst apex must exceed this multiple of the
            running mean energy to be emitted. Keystroke artifacts run
            one to two orders of magnitude above the quiescent mean
            while noise fluctuations stay within a factor of ~2, so
            this guard suppresses noise-only false alarms without
            costing keystroke recall.

    Usage::

        detector = StreamingKeystrokeDetector(fs=100.0)
        for chunk in stream:              # (channels, n) arrays
            for event in detector.push(chunk):
                handle(event)
    """

    def __init__(
        self,
        fs: float,
        config: Optional[PipelineConfig] = None,
        baseline_tau: float = 1.5,
        refractory: float = 0.45,
        warmup: float = 0.5,
        min_peak_ratio: float = 3.0,
    ) -> None:
        if fs <= 0:
            raise ConfigurationError("sampling rate must be positive")
        if baseline_tau <= 0 or refractory <= 0 or warmup < 0:
            raise ConfigurationError("time constants must be positive")
        if min_peak_ratio < 1.0:
            raise ConfigurationError("min_peak_ratio must be >= 1")
        self._min_peak_ratio = min_peak_ratio
        self._fs = fs
        self._config = config if config is not None else PipelineConfig()
        self._alpha = 1.0 - np.exp(-1.0 / (baseline_tau * fs))
        self._energy_alpha = 1.0 - np.exp(-1.0 / (4.0 * fs))
        self._refractory = int(round(refractory * fs))
        self._warmup = int(round(warmup * fs))
        self._window = max(2, int(round(self._config.energy_window * fs
                                        / self._config.fs)))
        self.reset()

    def reset(self) -> None:
        """Forget all stream state."""
        self._n_channels: Optional[int] = None
        self._baseline: Optional[np.ndarray] = None
        self._mean_energy = 0.0
        self._mean_seeded = False
        self._samples_seen = 0
        self._recent = np.zeros(self._window)
        self._recent_fill = 0
        self._in_burst = False
        self._burst_peak = -np.inf
        self._burst_peak_index = -1
        self._last_emit = -(10 ** 9)

    @property
    def samples_seen(self) -> int:
        """Total samples consumed so far."""
        return self._samples_seen

    @property
    def window(self) -> int:
        """Sliding energy window length in samples."""
        return self._window

    def push(self, chunk: np.ndarray) -> List[DetectedKeystroke]:
        """Consume a chunk and return keystrokes confirmed within it.

        Args:
            chunk: array of shape ``(n_channels, n)`` or ``(n,)``.

        Returns:
            Zero or more :class:`DetectedKeystroke`, in stream order.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1:
            chunk = chunk[np.newaxis, :]
        if chunk.ndim != 2:
            raise SignalError(f"expected 1-D or 2-D chunk, got {chunk.shape}")
        if self._n_channels is None:
            self._n_channels = chunk.shape[0]
            self._baseline = chunk[:, :1].copy() if chunk.shape[1] else None
        if chunk.shape[0] != self._n_channels:
            raise SignalError(
                f"stream has {self._n_channels} channels, chunk has "
                f"{chunk.shape[0]}"
            )

        events: List[DetectedKeystroke] = []
        config = self._config
        ratio = config.energy_threshold_ratio
        for column in chunk.T:
            if self._baseline is None:
                self._baseline = column[:, np.newaxis].copy()
            # Causal baseline removal per channel.
            self._baseline[:, 0] += self._alpha * (column - self._baseline[:, 0])
            detrended = float(np.mean(column - self._baseline[:, 0]))

            # Sliding-window energy via a ring buffer of squares.
            slot = self._samples_seen % self._window
            self._recent[slot] = detrended ** 2
            self._recent_fill = min(self._recent_fill + 1, self._window)
            energy = float(np.sum(self._recent[: self._recent_fill]))

            # Running mean energy (the adaptive "mean" of the rule).
            if not self._mean_seeded:
                self._mean_energy = energy
                self._mean_seeded = True
            else:
                self._mean_energy += self._energy_alpha * (
                    energy - self._mean_energy
                )
            threshold = ratio * self._mean_energy

            index = self._samples_seen
            self._samples_seen += 1
            if index < self._warmup:
                continue

            above = energy > threshold
            if above and not self._in_burst and (
                index - self._last_emit > self._refractory
            ):
                self._in_burst = True
                self._burst_peak = energy
                self._burst_peak_index = index
            elif self._in_burst:
                if above and energy > self._burst_peak:
                    self._burst_peak = energy
                    self._burst_peak_index = index
                # Emit when the burst ends — or when the apex has gone
                # stale: during fast typing the energy may never dip
                # below the adaptive threshold between keystrokes, so a
                # refractory-old apex is confirmed as its own event and
                # apex tracking restarts for the next keystroke.
                stale = index - self._burst_peak_index >= self._refractory
                if not above or stale:
                    strong = self._burst_peak > (
                        self._min_peak_ratio * self._mean_energy
                    )
                    if strong:
                        events.append(
                            DetectedKeystroke(
                                index=self._burst_peak_index,
                                time=self._burst_peak_index / self._fs,
                                energy=self._burst_peak,
                                threshold=threshold,
                            )
                        )
                        self._last_emit = self._burst_peak_index
                    if not above:
                        self._in_burst = False
                    else:
                        # Restart apex tracking within the ongoing burst.
                        self._burst_peak = energy
                        self._burst_peak_index = index
        return events

    def flush(self) -> List[DetectedKeystroke]:
        """Emit a pending burst apex at end of stream, if any."""
        if not self._in_burst:
            return []
        if self._burst_peak <= self._min_peak_ratio * self._mean_energy:
            self._in_burst = False
            return []
        event = DetectedKeystroke(
            index=self._burst_peak_index,
            time=self._burst_peak_index / self._fs,
            energy=self._burst_peak,
            threshold=self._config.energy_threshold_ratio * self._mean_energy,
        )
        self._last_emit = self._burst_peak_index
        self._in_burst = False
        return [event]


class StreamingAuthenticator:  # concurrency: thread-hostile
    """Online front-end over the authentication engine.

    Like its detector, an instance belongs to one stream and must not
    be shared across threads (the shared ``P2Auth`` it wraps is safe;
    the per-stream assembly state here is not).

    Consumes PPG chunks as they arrive, detects keystrokes causally
    with :class:`StreamingKeystrokeDetector`, and — once the PIN entry
    is complete — assembles a :class:`~repro.types.PinEntryTrial` and
    runs it through ``auth.authenticate`` like any other single probe,
    degradation ladder included. There is no streaming-specific
    scoring logic to drift out of sync.

    Args:
        auth: an enrolled :class:`~repro.core.authenticator.P2Auth`.
        fs: stream sampling rate, Hz.
        channels: per-channel metadata for the assembled recording;
            defaults to the prototype's four channels.
        detector: a configured detector; defaults to
            ``StreamingKeystrokeDetector(fs, auth.config)``.

    Usage::

        stream = StreamingAuthenticator(auth, fs=100.0)
        for chunk in device:          # (channels, n) arrays
            stream.push(chunk)
        decision = stream.finalize(pin="1628")
    """

    def __init__(
        self,
        auth: "P2Auth",
        fs: float,
        channels: Optional[Tuple[ChannelInfo, ...]] = None,
        detector: Optional[StreamingKeystrokeDetector] = None,
    ) -> None:
        if not auth.enrolled:
            raise AuthenticationError(
                "enroll a user before streaming authentication"
            )
        self._auth = auth
        self._fs = fs
        self._channels = channels
        self._detector = (
            detector
            if detector is not None
            else StreamingKeystrokeDetector(fs, auth.config)
        )
        self._chunks: List[np.ndarray] = []
        self._events: List[DetectedKeystroke] = []

    @property
    def detected(self) -> Tuple[DetectedKeystroke, ...]:
        """Keystrokes confirmed so far (pending apex not included)."""
        return tuple(self._events)

    def push(self, chunk: np.ndarray) -> List[DetectedKeystroke]:
        """Consume a chunk; returns keystrokes confirmed within it."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim == 1:
            chunk = chunk[np.newaxis, :]
        events = self._detector.push(chunk)
        self._chunks.append(chunk)
        self._events.extend(events)
        return events

    def reset(self) -> None:
        """Discard the buffered entry and all detector state."""
        self._detector.reset()
        self._chunks = []
        self._events = []

    def finalize(
        self,
        pin: str,
        claimed_pin: Optional[str] = None,
        user_id: int = -1,
        reported_times: Optional[Sequence[float]] = None,
        one_handed: bool = True,
    ) -> "AuthDecision":
        """End the entry and authenticate it through :meth:`P2Auth.authenticate`.

        Args:
            pin: the digits the typist entered on the phone.
            claimed_pin: the PIN claim forwarded to the authenticator;
                defaults to ``pin``.
            user_id: typist identity for evaluation bookkeeping.
            reported_times: phone-reported keystroke timestamps (one
                per digit). When omitted, the detector's apex times
                stand in — which requires the detector to have found
                exactly one keystroke per digit.
            one_handed: whether the entry was typed one-handed.

        Returns:
            The :class:`~repro.core.artifacts.AuthDecision`.

        Raises:
            AuthenticationError: when nothing was streamed, or the
                detected keystroke count does not match the PIN length
                and no ``reported_times`` were given.
        """
        self._events.extend(self._detector.flush())
        if not self._chunks:
            raise AuthenticationError("no samples were streamed")
        if reported_times is None:
            if len(self._events) != len(pin):
                raise AuthenticationError(
                    f"detected {len(self._events)} keystroke(s) for a "
                    f"{len(pin)}-digit PIN; pass reported_times to "
                    "authenticate anyway"
                )
            times: List[float] = [e.time for e in self._events]
        else:
            if len(reported_times) != len(pin):
                raise AuthenticationError(
                    f"{len(reported_times)} reported times for a "
                    f"{len(pin)}-digit PIN"
                )
            times = [float(t) for t in reported_times]
        samples = np.concatenate(self._chunks, axis=1)
        recording = (
            PPGRecording(samples=samples, fs=self._fs)
            if self._channels is None
            else PPGRecording(
                samples=samples, fs=self._fs, channels=self._channels
            )
        )
        events = tuple(
            KeystrokeEvent(key=digit, true_time=t, reported_time=t)
            for digit, t in zip(pin, times)
        )
        trial = PinEntryTrial(
            recording=recording,
            events=events,
            pin=pin,
            user_id=user_id,
            one_handed=one_handed,
        )
        entered = claimed_pin if claimed_pin is not None else pin
        return self._auth.authenticate(trial, claimed_pin=entered)
