"""Khameleon reproduction: continuous prefetch for interactive data applications.

This package reproduces the Khameleon system from *Continuous Prefetch
for Interactive Data Applications* (Mohammed, Wei, Wu, Netravali —
VLDB/SIGMOD 2020, arXiv:2007.07858): a prefetching framework that
jointly optimizes server-side push scheduling and progressive response
encoding to trade response quality for consistently low latency.

Layout, in import-layer order — each package imports only from those
above it in this list (see DESIGN.md for the full inventory):

- :mod:`repro.clock` — the ``Clock`` seam and the asyncio ``WallClock``.
- :mod:`repro.sim` — discrete-event network substrate (links, traces,
  bandwidth estimation) replacing the paper's netem/Mahimahi testbed.
- :mod:`repro.core` — greedy scheduler, ring-buffer cache, cache
  manager, predictor manager, sender and §5.4 throttle, client/server
  assembly; the offline ILP reference is :mod:`repro.core.ilp`.
- :mod:`repro.encoding` / :mod:`repro.predictors` /
  :mod:`repro.metrics` — progressive encoders; Kalman, oracle, Markov,
  point, uniform and hover predictors behind the §4 API; the §6.1
  metrics.
- :mod:`repro.backends` — filesystem and mini column-store database
  backends, retries and fault injection.
- :mod:`repro.baselines` / :mod:`repro.workloads` / :mod:`repro.chaos` —
  Baseline, Progressive and ACC-<acc>-<hor>; trace generators and the
  two evaluation applications (image exploration, Falcon); the seeded
  fault grammar.
- :mod:`repro.fleet` — multi-tenant serving: N concurrent sessions over
  one backend (cross-session fetch dedup, shared §5.4 throttle budget)
  and one weighted fair-shared downlink, optionally sharded.
- :mod:`repro.experiments` — environments and the per-figure drivers.
- :mod:`repro.serve` — the fleet behind a live WebSocket port.
- :mod:`repro.cli` — ``python -m repro``.
"""

__version__ = "1.0.0"
