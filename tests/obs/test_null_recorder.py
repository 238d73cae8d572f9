"""The shared no-op recorder stays shared across a pickle round trip,
so a swept or cached result carries ``NULL_RECORDER`` itself."""

import pickle

from repro.obs.recorder import NULL_RECORDER


def test_null_recorder_unpickles_as_the_shared_instance():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(NULL_RECORDER, protocol))
        assert restored is NULL_RECORDER
