"""Feature extraction: MiniRocket and the manual baseline.

`minirocket` implements the transform of Dempster, Schmidt & Webb
(KDD 2021) that the paper adopts (Eq. 5-6): 84 fixed convolution
kernels, exponential dilations, and proportion-of-positive-values
pooling. `manual` implements the hand-crafted statistical + DTW
template features used as the comparison baseline (Fig. 11, Table I),
and `dtw` the banded dynamic-time-warping distance they rely on.
"""

from .dtw import dtw_distance
from .manual import ManualFeatureExtractor, manual_feature_names
from .minirocket import MiniRocket, c_kernel_available, warm_engine

__all__ = [
    "MiniRocket",
    "ManualFeatureExtractor",
    "manual_feature_names",
    "dtw_distance",
    "c_kernel_available",
    "warm_engine",
]
