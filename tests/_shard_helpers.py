"""Importable worker entry points for the sharding protocol tests.

Spawned shard workers resolve their entry by ``module:function``
import in a fresh interpreter, so these must live in a real module —
a function defined inside a test class would not be importable there.
(The tests directory rides along on ``sys.path``, which multiprocessing
forwards to spawn children.)
"""


def echo_worker(spec, channel):
    """One exchange: return the peers' payloads."""
    return channel.exchange(spec)


def failing_worker(spec, channel):
    raise RuntimeError("deliberate test failure")


def thread_count_worker(spec, channel):
    """One exchange, then the number of threads alive in this worker."""
    import threading

    channel.exchange(spec)
    return threading.active_count()


def crashable_worker(spec, channel):
    """Multi-round worker that can hard-crash mid-protocol.

    ``spec`` is a dict: ``rounds`` barrier exchanges to run; when
    ``crash_before_round`` matches the upcoming round the process dies
    via ``os._exit`` — no exception message, no close frame, exactly
    like an OOM-kill — which is the failure mode supervised
    ``run_sharded`` must recover from.  Optional ``sleep_s`` wedges the
    worker before its first exchange: alive but silent, so only the
    coordinator's ``timeout_s`` catches it.
    """
    import os
    import time

    if spec.get("sleep_s"):
        time.sleep(spec["sleep_s"])
    peers = []
    for r in range(spec["rounds"]):
        if spec.get("crash_before_round") == r:
            os._exit(23)
        peers.append(channel.exchange(f"{spec['tag']}:r{r}"))
    return {"tag": spec["tag"], "rounds_done": spec["rounds"], "peers": peers}
