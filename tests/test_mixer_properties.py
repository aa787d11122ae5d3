"""Property tests: mixer updates keep the policy on the simplex, and ODM keeps
every entry at or above its exploration floor."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from dataflex import DoremiParams, MixtureWeights, OdmParams, doremi_update, odm_init, odm_update


@st.composite
def policies(draw, k, low=0.0):
    raw = np.array(draw(st.lists(st.floats(low, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0)))
    return MixtureWeights(raw / raw.sum())


def on_simplex(w: MixtureWeights) -> bool:
    return bool(np.all(w.weights >= 0.0)) and abs(math.fsum(w.weights) - 1.0) <= 1e-9


@settings(deadline=None)
@given(st.data())
def test_doremi_update_stays_on_simplex(data):
    k = data.draw(st.integers(1, 8))
    alpha = data.draw(policies(k))
    params = DoremiParams(eta=data.draw(st.floats(1e-3, 1.0)), epsilon=data.draw(st.floats(0.0, 0.99)))
    for _ in range(data.draw(st.integers(1, 6))):
        lam = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=k, max_size=k)))
        alpha = doremi_update(alpha, lam, params)
        assert on_simplex(alpha)


@settings(deadline=None)
@given(st.data())
def test_odm_update_stays_on_simplex_above_floor(data):
    k = data.draw(st.integers(1, 8))
    params = OdmParams(
        ema_decay=data.draw(st.floats(0.0, 0.99)),
        reward_scale=data.draw(st.floats(1.0, 30.0)),
        eps_min=data.draw(st.floats(1e-3, 1.0 / k)),
    )
    # A domain a run can observe has sampling mass, so the initial policy is positive.
    state = odm_init(data.draw(policies(k, low=0.01)), params)
    loss = st.floats(0.0, 10.0) | st.just(float("nan"))  # NaN: a domain the window did not see
    for _ in range(data.draw(st.integers(1, 8))):
        state = odm_update(state, np.array(data.draw(st.lists(loss, min_size=k, max_size=k))), params)
        assert on_simplex(state.policy)
        assert np.all(state.policy.weights >= params.eps_min)
