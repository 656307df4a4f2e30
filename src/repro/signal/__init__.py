"""Signal-processing primitives used by the P2Auth pipeline.

Implements the Section IV modules: median-filter noise removal,
Savitzky-Golay smoothing, smoothness-priors detrending (Tarvainen et
al.), short-time energy, fine-grained keystroke time calibration via
extreme-point search (Eq. 1), waveform segmentation, and sampling-rate
decimation for the rate-sweep experiments.
"""

from .calibration import calibrate_keystroke_index, calibrate_trial_indices
from .detrend import smoothness_priors_detrend
from .energy import short_time_energy, window_energy
from .filters import median_filter, median_filter_multi, moving_average, savitzky_golay
from .peaks import local_extrema
from .quality import ChannelQuality, QualityReport, assess_recording, channel_quality
from .resample import decimate_recording, decimate_signal
from .segmentation import segment_around

__all__ = [
    "ChannelQuality",
    "QualityReport",
    "assess_recording",
    "calibrate_keystroke_index",
    "calibrate_trial_indices",
    "channel_quality",
    "decimate_recording",
    "decimate_signal",
    "local_extrema",
    "median_filter",
    "median_filter_multi",
    "moving_average",
    "savitzky_golay",
    "segment_around",
    "short_time_energy",
    "smoothness_priors_detrend",
    "window_energy",
]
