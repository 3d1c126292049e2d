"""Discrete-event simulation substrate.

Replaces the paper's netem/Mahimahi testbed with a deterministic
virtual-time simulator: an event engine (:mod:`.engine`), FIFO rate-
limited links (:mod:`.link`), Mahimahi-format traces (:mod:`.traces`),
LTE-like trace generation (:mod:`.cellular`), and the harmonic-mean
bandwidth estimator of §5.4 (:mod:`.bandwidth`).
"""

from .bandwidth import HarmonicMeanEstimator, ReceiveRateMonitor
from .failures import OutageLink
from .cellular import ATT_LTE, VERIZON_LTE, CellularProfile, CellularTraceGenerator
from .engine import EventHandle, SimulationError, Simulator
from .fairshare import FairSharePort, SharedDownlink
from .link import ControlChannel, FixedRateLink, Link, TraceDrivenLink
from .traces import MTU_BYTES, MahimahiTrace

__all__ = [
    "Simulator",
    "EventHandle",
    "SimulationError",
    "Link",
    "FixedRateLink",
    "TraceDrivenLink",
    "ControlChannel",
    "SharedDownlink",
    "FairSharePort",
    "MahimahiTrace",
    "MTU_BYTES",
    "CellularProfile",
    "CellularTraceGenerator",
    "VERIZON_LTE",
    "ATT_LTE",
    "HarmonicMeanEstimator",
    "ReceiveRateMonitor",
    "OutageLink",
]
