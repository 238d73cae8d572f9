# repro: module-path=core/fake_component.py
"""GOOD: telemetry flows through the obs.Recorder facade."""

from repro.obs import Recorder
from repro.sim import Simulator


class FakeComponent:
    def __init__(self, sim: Simulator, obs: Recorder) -> None:
        self.sim = sim
        self.obs = obs

    def burst(self, client: str, sent: int) -> None:
        self.obs.event(self.sim.now, "proxy.burst", client=client, sent=sent)
        self.obs.counter("proxy.bursts", client=client).inc()
