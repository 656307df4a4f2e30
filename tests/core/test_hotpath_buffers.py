"""The fused engine's per-thread buffers are shared across users.

Scratch buffers and feature rows live in one ``threading.local`` per
thread, shared by every pipeline that runs on it: a thread serving K
users holds one feature-row pair per distinct feature width, not K
pairs. ``P2Auth.warmup`` allocates no rows; a thread's first
authenticate call for a width does.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import PAPER_PINS
from repro.core import EnrollmentOptions, P2Auth, hotpath
from repro.data import StudyData, ThirdPartyStore

PIN = PAPER_PINS[0]
#: Two feature budgets, so the users span two feature widths.
BUDGETS = (840, 1680)
N_USERS = 8


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=N_USERS + 2, seed=7)


@pytest.fixture(scope="module")
def negatives(data):
    return ThirdPartyStore(data, [N_USERS, N_USERS + 1], PIN).sample(20)


def enroll(data, negatives, user: int, budget: int) -> P2Auth:
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=budget))
    auth.enroll(data.trials(user, PIN, "one_handed", 8)[:6], negatives)
    return auth


def width_of(auth: P2Auth) -> int:
    """The feature width shared by every model of one user."""
    models = auth.models
    (width,) = {
        m._rocket.n_features_out
        for m in [models.full_model, *models.key_models.values()]
    }
    return width


def probe_of(data, user: int):
    return data.trials(user, PIN, "one_handed", 8)[6]


def on_fresh_thread(fn):
    """Run ``fn`` on a new thread, whose buffers start empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def row_widths():
    """Width of every feature-row pair the calling thread holds."""
    widths = []
    for width, (raw, standardized) in hotpath._BUFFERS.rows.items():
        assert raw.shape == standardized.shape == (1, width)
        widths.append(width)
    return sorted(widths)


def test_one_row_pair_per_width_not_per_user(data, negatives):
    users = [
        (enroll(data, negatives, u, BUDGETS[u % len(BUDGETS)]), probe_of(data, u))
        for u in range(N_USERS)
    ]
    widths = sorted({width_of(auth) for auth, _ in users})
    assert len(widths) == len(BUDGETS) < N_USERS

    def serve():
        for auth, probe in users:
            auth.authenticate(probe)
        return row_widths()

    assert on_fresh_thread(serve) == widths


def test_warmup_allocates_no_feature_rows(data, negatives):
    users = [
        (enroll(data, negatives, u, budget), probe_of(data, u))
        for u, budget in enumerate(BUDGETS)
    ]

    def warm_then_serve():
        warmed = [
            auth.warmup((probe.recording.n_samples,)) for auth, probe in users
        ]
        after_warmup = row_widths()
        users[0][0].authenticate(users[0][1])
        return warmed, after_warmup, row_widths()

    warmed, after_warmup, after_auth = on_fresh_thread(warm_then_serve)
    assert warmed == [True] * len(users), "warmup did no cold work"
    assert after_warmup == []
    assert after_auth == [width_of(users[0][0])]


def test_clear_thread_buffers_empties_this_thread_only(data, negatives):
    auth = enroll(data, negatives, 0, BUDGETS[0])
    probe = probe_of(data, 0)
    auth.authenticate(probe)
    held_here = len(hotpath._BUFFERS.scratch)

    def clear_elsewhere():
        auth.authenticate(probe)
        hotpath.clear_thread_buffers()
        return len(hotpath._BUFFERS.scratch), row_widths()

    assert on_fresh_thread(clear_elsewhere) == (0, [])
    assert held_here >= 1
    assert len(hotpath._BUFFERS.scratch) == held_here
