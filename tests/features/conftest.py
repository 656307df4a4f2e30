"""Shared helpers for the feature-extraction tests."""

from __future__ import annotations

import numpy as np

from repro.features import minirocket as mr

#: The MiniRocket engines this host can run: the NumPy engine always
#: (by simulating a host without a C compiler), the C kernel where it
#: builds and loads.
ENGINES = ["vectorized"] + (["c"] if mr._ckernel.available() else [])


def simulate_host(engine, monkeypatch):
    """Make MiniRocket pick ``engine`` the way it picks on a real host.

    ``"vectorized"`` simulates a host without a C compiler: the kernel
    never loads, so every transform takes the NumPy engine. ``"c"``
    leaves this host as it is.
    """
    if engine == "vectorized":
        monkeypatch.setattr(mr._ckernel, "_load", lambda: None)


def flat_biases(biases):
    """Every bias of a fit, channel-major then dilation, as one vector."""
    return np.concatenate([b.ravel() for channel in biases for b in channel])
