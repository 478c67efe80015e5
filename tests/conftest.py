import pytest
from hypothesis import settings

from isacsim import channel as chan
from isacsim import downlink as dl

# Property tests draw the same examples on every run, so the suite's result
# does not depend on the run; no example database is written.
settings.register_profile("repeatable", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repeatable")


@pytest.fixture
def drawn(monkeypatch):
    """(block, stream, trials) of every channel block drawn, in order, from
    a cold mean-covariance cache."""
    keys = []
    sample = chan.sample_channel_block

    def counting(root, columns, seed, block, stream, trials=None):
        keys.append((block, stream, trials))
        return sample(root, columns, seed, block, stream, trials)

    monkeypatch.setattr(chan, "sample_channel_block", counting)
    monkeypatch.setattr(dl, "_sigma_cache", {})
    return keys
