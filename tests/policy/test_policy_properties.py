"""Property-style checks for the policy zoo.

Every registered policy — fed randomized-but-seeded sample streams,
interleaved with guard trips, forgets, and resets — must produce windows
that, after :func:`finalize_window`, respect the ``[c_min, c_max]`` clamp
and the post-clamp advisory scaling.
"""

import pytest

from repro.core.combiners import Observation
from repro.core.config import RiptideConfig
from repro.net import Prefix
from repro.policy import finalize_window, make_policy, policy_names
from repro.sim.rand import RandomStreams

CONFIGS = [
    RiptideConfig(),
    RiptideConfig(c_min=4, c_max=32),
    RiptideConfig(c_min=10, c_max=300, alpha=0.5),
]

DESTINATIONS = [
    Prefix.parse("10.0.0.0/16"),
    Prefix.parse("10.1.0.0/16"),
    Prefix.parse("10.7.0.0/16"),
    Prefix.parse("192.168.0.0/16"),
]


def _sample_stream(rng, ticks):
    """Yield ``(destination, samples, advisory_scale)`` tuples."""
    for _ in range(ticks):
        destination = DESTINATIONS[rng.randrange(len(DESTINATIONS))]
        samples = [
            Observation(
                cwnd=rng.randint(1, 400),
                srtt=rng.uniform(0.001, 0.4) if rng.random() < 0.5 else None,
            )
            for _ in range(rng.randint(1, 6))
        ]
        advisory_scale = rng.choice([1.0, 1.0, 0.75, 0.5, 0.25])
        yield destination, samples, advisory_scale


@pytest.mark.parametrize("policy_name", policy_names())
@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_policy_respects_clamp_and_advisory(policy_name, config_index):
    config = CONFIGS[config_index]
    policy = make_policy(policy_name, config)
    rng = RandomStreams(1234 + config_index).stream(f"policy:{policy_name}")
    now = 0.0
    for destination, samples, advisory_scale in _sample_stream(rng, 200):
        now += 1.0
        raw = policy.decide(destination, samples, now)
        assert raw > 0.0, f"{policy_name} produced non-positive raw window"
        window, bound = finalize_window(config, raw, advisory_scale)
        assert config.c_min <= window <= config.c_max
        if advisory_scale >= 1.0:
            # Without an advisory the window is exactly the clamped raw value.
            assert window == config.clamp(raw)
            if bound == "c_max":
                assert window == config.c_max
            elif bound == "c_min":
                assert window == config.c_min
        else:
            assert window == max(
                config.c_min, round(config.clamp(raw) * advisory_scale)
            )
        # Lifecycle hooks must never corrupt subsequent decisions.
        roll = rng.random()
        if roll < 0.05:
            policy.on_guard_trip(destination, "loss_spike", now)
        elif roll < 0.08:
            policy.forget(destination)
        elif roll < 0.09:
            policy.reset()


@pytest.mark.parametrize("policy_name", policy_names())
def test_policy_is_deterministic_for_identical_streams(policy_name):
    config = RiptideConfig()

    def run():
        policy = make_policy(policy_name, config)
        rng = RandomStreams(99).stream("replay")
        outputs = []
        now = 0.0
        for destination, samples, _scale in _sample_stream(rng, 100):
            now += 1.0
            outputs.append(policy.decide(destination, samples, now))
        return outputs

    assert run() == run()
