"""Queueing-theory validation of the channel model.

A `Channel` is a single server with deterministic service time
(`hop_overhead + word_time * size_words`) and FIFO discipline.  Driving
it with a Poisson arrival stream makes it an **M/D/1 queue**, whose mean
waiting time in queue is the Pollaczek-Khinchine formula

    Wq = rho * S / (2 * (1 - rho)),      rho = lambda * S

for service time S and arrival rate lambda.  These tests generate
Poisson traffic onto one simulated channel and check the measured mean
wait against the formula — if the contention substrate is wrong,
every result in the repository is wrong, so it gets its own analytic
cross-check (the ORACLE paper-trail equivalent of calibrating the
instrument).
"""

from __future__ import annotations

import random

import pytest

from repro.oracle.channel import Channel
from repro.oracle.config import CostModel
from repro.oracle.engine import Engine
from repro.oracle.message import Message


def drive_md1(rho: float, n_messages: int = 4000, seed: int = 1):
    """One channel under Poisson arrivals at utilization ``rho``.

    Returns (measured mean wait in queue, service time S).
    """
    costs = CostModel(word_time=1.0, hop_overhead=0.0)
    service = costs.transfer_time(1)  # size_words=1 -> S = 1.0
    lam = rho / service
    engine = Engine()
    channel = Channel(engine, 0, (0, 1), costs)
    rng = random.Random(seed)

    submit_times: list[float] = []
    start_times: dict[int, float] = {}

    # Channel starts service immediately when idle, so wait-in-queue is
    # (service start - submission).  Service start of message k is its
    # delivery time minus S.  Index messages explicitly — ids of
    # garbage-collected messages get reused.  The source is a chain of
    # arrival events, each drawing the gap to the next.
    def arrive(k):
        submit_times.append(engine.now)
        channel.send(
            Message(0, 1, size_words=1),
            lambda _m, k=k: start_times.__setitem__(k, engine.now - service),
        )
        if k + 1 < n_messages:
            engine.schedule(rng.expovariate(lam), arrive, k + 1)

    engine.schedule(rng.expovariate(lam), arrive, 0)
    engine.run()

    waits = [start_times[k] - submit_times[k] for k in range(n_messages)]
    assert len(waits) == n_messages
    return sum(waits) / len(waits), service


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_md1_mean_wait_matches_pollaczek_khinchine(rho):
    measured, service = drive_md1(rho)
    expected = rho * service / (2 * (1 - rho))
    # Finite-sample tolerance: the wait distribution is skewed, so allow
    # a generous band; systematic model errors (e.g. double-charging
    # service) would blow far past it.
    assert measured == pytest.approx(expected, rel=0.25), (rho, measured, expected)


def test_md1_wait_grows_superlinearly_with_rho():
    w3, _ = drive_md1(0.3)
    w6, _ = drive_md1(0.6)
    w9, _ = drive_md1(0.9, n_messages=8000)
    assert w3 < w6 < w9
    # P-K: w9/w3 = (0.9/0.1) / (0.3/0.7) = 21; allow wide sampling slack.
    assert w9 / max(w3, 1e-9) > 8


def test_empty_channel_no_wait():
    measured, _ = drive_md1(0.05, n_messages=500)
    assert measured < 0.1


def test_channel_never_idles_with_backlog():
    """Work conservation at the channel: busy_time equals
    n_messages * S when all messages eventually transfer."""
    costs = CostModel(word_time=2.0, hop_overhead=1.0)
    engine = Engine()
    channel = Channel(engine, 0, (0, 1), costs)
    n = 200
    delivered = []

    def arrive(k):
        channel.send(Message(0, 1, size_words=3), delivered.append)
        if k + 1 < n:
            engine.schedule(0.5, arrive, k + 1)

    engine.schedule(0.5, arrive, 0)
    engine.run()
    assert len(delivered) == n
    assert channel.busy_time == pytest.approx(n * costs.transfer_time(3))
    assert channel.messages_carried == n


def test_deterministic_service_order_is_fifo():
    """Messages delivered in submission order under contention."""
    costs = CostModel(word_time=1.0, hop_overhead=0.0)
    engine = Engine()
    channel = Channel(engine, 0, (0, 1), costs)
    order = []

    def flood(_payload):
        for i in range(50):
            channel.send(Message(0, 1, size_words=1), lambda m, k=i: order.append(k))

    engine.schedule(0.0, flood)
    engine.run()
    assert order == list(range(50))
