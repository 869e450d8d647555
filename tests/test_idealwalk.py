import itertools
import math

import numpy as np
import pytest
from conftest import brute_force_walk as _brute_force
from hypothesis import given, settings
from hypothesis import strategies as st

from cqwalk.idealwalk import (CoinState, coin_matrix, coin_preset, run_ideal,
                              site_probabilities, walk)


def test_coin_matrix_is_orthogonal_involution():
    c = coin_matrix(0.9)
    assert np.allclose(c @ c, np.eye(2), atol=1e-15)
    assert np.allclose(c, c.T)


def test_coin_presets():
    z, o, p = coin_preset("zero"), coin_preset("one"), coin_preset("plus-i")
    assert z.as_vector()[0] == 1.0 and z.as_vector()[1] == 0.0
    assert o.as_vector()[1] == 1.0
    assert p.as_vector()[1] == pytest.approx(1j / math.sqrt(2))
    with pytest.raises(ValueError):
        coin_preset("minus")
    with pytest.raises(ValueError):
        CoinState(1.0, 1.0)


def test_two_step_hadamard_point():
    p = run_ideal(2, math.pi / 4, coin_preset("one"))
    assert np.allclose(p, [0.25, 0.5, 0.25], atol=1e-12)


def test_zero_steps_is_initial_site():
    p = run_ideal(0, 1.0, coin_preset("plus-i"))
    assert p.shape == (1,)
    assert p[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="n_steps"):
        run_ideal(-1, 1.0, coin_preset("one"))


def test_walk_amplitudes_shape_and_start():
    [amps] = walk(0, 1.0, coin_preset("one"))
    assert amps.shape == (1, 2)
    assert amps[0, 0] == 0.0 and amps[0, 1] == 1.0
    with pytest.raises(ValueError, match="n_steps"):
        next(walk(-1, 1.0, coin_preset("one")))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), theta=st.floats(0.05, 1.5),
       re0=st.floats(-1, 1), im0=st.floats(-1, 1),
       re1=st.floats(-1, 1), im1=st.floats(-1, 1))
def test_matches_dense_brute_force(n, theta, re0, im0, re1, im1):
    v = np.array([re0 + 1j * im0, re1 + 1j * im1])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([1.0, 0.0])
        norm = 1.0
    coin = CoinState(v[0] / norm, v[1] / norm)
    assert np.allclose(run_ideal(n, theta, coin), _brute_force(n, theta, coin),
                       atol=1e-12)


def _symmetric_walk(n, theta, coin):
    """Standard +/-1 walk (coin 0 left, coin 1 right) from the origin."""
    npos = 2 * n + 1
    amps = np.zeros((npos, 2), dtype=complex)
    amps[n] = coin.as_vector()
    c = coin_matrix(theta)
    for _ in range(n):
        mixed = amps @ c.T
        out = np.zeros_like(mixed)
        out[:-1, 0] = mixed[1:, 0]
        out[1:, 1] = mixed[:-1, 1]
        amps = out
    return np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_relabeling_onto_symmetric_walk(n):
    # Site j of the stay/step walk carries the weight the symmetric
    # walk puts on displacement 2(j-1) - n: both positions depend on a
    # path only through its number of coin-1 moves.
    theta = 0.9
    coin = coin_preset("plus-i")
    p_stay = run_ideal(n, theta, coin)
    p_sym = _symmetric_walk(n, theta, coin)
    for j in range(1, n + 2):
        d = 2 * (j - 1) - n
        assert p_stay[j - 1] == pytest.approx(p_sym[d + n], abs=1e-12)
    # odd displacements never populated after n steps
    for d in range(-n, n + 1):
        if (d + n) % 2 == 1:
            assert p_sym[d + n] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 12), theta=st.floats(0.05, 1.5))
def test_distribution_normalized(n, theta):
    p = run_ideal(n, theta, coin_preset("plus-i"))
    assert p.shape == (n + 1,)
    assert np.all(p >= -1e-15)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_step_preserves_norm():
    for amps in walk(4, 1.2, coin_preset("plus-i")):
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def _full_array_walk(n_steps, theta, coin):
    """The walk as a recurrence on all n_steps + 1 sites from the start:
    coin into every site, then the shift into a fresh full-length array;
    yields the first n + 1 sites after step n."""
    amps = np.zeros((n_steps + 1, 2), dtype=complex)
    amps[0] = coin.as_vector()
    c = coin_matrix(theta)
    yield amps[:1]
    for n in range(1, n_steps + 1):
        mixed = amps @ c.T
        amps = np.zeros_like(mixed)
        amps[:, 0] = mixed[:, 0]
        amps[1:, 1] = mixed[:-1, 1]
        yield amps[:n + 1]


@pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1.2],
                         ids=["pi/4", "0.3", "1.2"])
@pytest.mark.parametrize("coin", ["zero", "one", "plus-i"])
def test_walk_equals_the_full_array_recurrence(coin, theta):
    # the walk stores only the sites it has reached; at every step its
    # amplitudes equal those of the recurrence on every site, and its
    # site probabilities are the same bytes
    n_steps = 400
    pairs = zip(walk(n_steps, theta, coin_preset(coin)),
                _full_array_walk(n_steps, theta, coin_preset(coin)),
                strict=True)
    for n, (amps, full) in enumerate(pairs):
        assert np.array_equal(amps, full), n
        assert (site_probabilities(amps).tobytes()
                == site_probabilities(full).tobytes()), n


def test_earlier_steps_are_left_as_they_were():
    # a step's array is its own: the walk going on does not write it
    steps = walk(12, 0.7, coin_preset("plus-i"))
    kept = [(amps, amps.copy()) for amps in itertools.islice(steps, 6)]
    for _ in steps:
        pass
    for amps, copy in kept:
        assert amps.tobytes() == copy.tobytes()


@pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1.2],
                         ids=["pi/4", "0.3", "1.2"])
@pytest.mark.parametrize("coin", ["zero", "one", "plus-i"])
def test_walk_prefixes_are_the_shorter_walks(coin, theta):
    # after step n, the first n+1 sites of one N-step walk are, bit for
    # bit, the n-step walk (checked at every eighth step): a sweep scores
    # every row from one walk
    n_steps = 160
    for n, amps in enumerate(walk(n_steps, theta, coin_preset(coin))):
        assert amps.shape == (n + 1, 2)
        if n % 8 == 0:
            assert (site_probabilities(amps).tobytes()
                    == run_ideal(n, theta, coin_preset(coin)).tobytes()), n
    assert n == n_steps


def test_coin_matrix_domain():
    for bad in (0.0, math.pi / 2, 2.0, -0.3):
        with pytest.raises(ValueError):
            coin_matrix(bad)
