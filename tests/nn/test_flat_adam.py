"""The flat Adam step against the per-parameter loop it replaced.

``PerParameterAdam`` keeps the replaced step: moments in ``id``-keyed dicts
and the elementwise sequence run once per parameter.  The flat step must
leave every parameter with the same bytes after every step, for the
GridWorld Q-network's and the drone CNN's tensor shapes, with and without
weight decay, and for gradients holding NaNs of both signs with many
payloads, infinities, signed zeros, subnormals and magnitudes up to 1e300.

The moments match too, except for the payload of a NaN moment: numpy's add
returns either operand's NaN for NaN + NaN, depending on where the element
falls in the SIMD loop, and an element sits elsewhere in the flat array
than in its own tensor.  A moment is NaN only after a step that made its
parameter NaN, and a NaN parameter minus a NaN update keeps its own payload
(subtraction and division always return the first operand's NaN), so the
difference never reaches a parameter that Adam alone updates.
"""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, build_drone_policy_network, build_gridworld_q_network

STEPS = 120


class PerParameterAdam:
    def __init__(self, parameters, learning_rate, weight_decay, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.parameters = list(parameters)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = {id(p): np.zeros_like(p.value) for p in self.parameters}
        self._second_moment = {id(p): np.zeros_like(p.value) for p in self.parameters}

    def step(self):
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        for parameter in self.parameters:
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.value
            first = self._first_moment[id(parameter)]
            second = self._second_moment[id(parameter)]
            first *= self.beta1
            first += (1.0 - self.beta1) * grad
            second *= self.beta2
            second += (1.0 - self.beta2) * grad**2
            corrected_first = first / bias_correction1
            corrected_second = second / bias_correction2
            parameter.value -= (
                self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)
            )


SHAPES = {
    "q-network": [p.shape for p in build_gridworld_q_network(6, 4, (16, 16), rng=0).parameters()],
    "drone-cnn": [p.shape for p in build_drone_policy_network(rng=0).parameters()],
}

FINITE_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 1e300, -1e300])


def nan_values(rng, count):
    """Quiet and signalling NaNs of both signs with random nonzero payloads."""
    payload = rng.integers(1, 1 << 51, size=count, dtype=np.uint64)
    quiet = rng.integers(0, 2, size=count, dtype=np.uint64) << np.uint64(51)
    sign = rng.integers(0, 2, size=count, dtype=np.uint64) << np.uint64(63)
    return (np.uint64(0x7FF0000000000000) | quiet | payload | sign).view(np.float64)


def gradient(rng, shape, nonfinite):
    grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 4, size=shape)
    special = rng.random(shape) < 0.1
    grad[special] = rng.choice(FINITE_SPECIALS, size=int(special.sum()))
    if nonfinite:
        nan = rng.random(shape) < 0.01
        grad[nan] = nan_values(rng, int(nan.sum()))
        inf = rng.random(shape) < 0.005
        grad[inf] = rng.choice([np.inf, -np.inf], size=int(inf.sum()))
    return grad


def parameters_of(shapes, seed):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape)) for shape in shapes]


@pytest.mark.parametrize("nonfinite", [False, True], ids=["finite", "nonfinite"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("network", sorted(SHAPES))
def test_flat_step_keeps_every_byte(network, weight_decay, nonfinite):
    shapes = SHAPES[network]
    flat_parameters = parameters_of(shapes, seed=7)
    reference_parameters = parameters_of(shapes, seed=7)
    flat = Adam(flat_parameters, learning_rate=0.01, weight_decay=weight_decay)
    reference = PerParameterAdam(reference_parameters, 0.01, weight_decay)
    rng = np.random.default_rng(11)
    with np.errstate(all="ignore"):
        for _ in range(STEPS):
            for flat_parameter, reference_parameter in zip(flat_parameters, reference_parameters):
                grad = gradient(rng, flat_parameter.shape, nonfinite)
                flat_parameter.grad[...] = grad
                reference_parameter.grad[...] = grad
            flat.step()
            reference.step()
            for flat_parameter, reference_parameter in zip(flat_parameters, reference_parameters):
                assert flat_parameter.value.tobytes() == reference_parameter.value.tobytes()
    for flat_moment, reference_moments in ((flat._first_moment, reference._first_moment),
                                           (flat._second_moment, reference._second_moment)):
        expected = np.concatenate(
            [reference_moments[id(p)] for p in reference_parameters], axis=None
        )
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(flat_moment), nan)
        assert flat_moment[~nan].tobytes() == expected[~nan].tobytes()
    if nonfinite:
        values = np.concatenate([p.value for p in flat_parameters], axis=None)
        payloads = np.unique(values[np.isnan(values)].view(np.uint64))
        assert payloads.size >= 8, "the NaN payloads should reach the parameters"


def test_steps_parameters_in_place():
    parameters = parameters_of(SHAPES["q-network"], seed=3)
    arrays = [p.value for p in parameters]
    optimizer = Adam(parameters, learning_rate=0.01)
    for parameter in parameters:
        parameter.grad[...] = 1.0
    optimizer.step()
    assert all(p.value is array for p, array in zip(parameters, arrays))
    assert optimizer._first_moment.shape == (sum(p.size for p in parameters),)


def test_an_optimizer_that_never_steps_holds_no_moments():
    parameters = parameters_of(SHAPES["q-network"], seed=3)
    optimizer = Adam(parameters, learning_rate=0.01)
    assert optimizer._first_moment is None and optimizer._second_moment is None
    assert optimizer._update is None and optimizer._update_views == []
