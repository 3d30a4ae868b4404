"""sdedge: deterministic simulator of a distributed SDN edge cluster.

Controllers form a consistent-hashing overlay providing distributed
mobility management, Personal-AP handover, fault tolerance, greedy flow
scheduling over partition views, and location-group access gating; a
scenario-driven event engine reproduces the associated experiments at
desk scale.
"""

from .engine import EventEngine
from .mobility import MobilityManager
from .report import MetricsReport, emit
from .ring import OverlayRing, RingView, hash_id
from .scenario import Scenario, apply_overrides, bundled_scenario_path, parse_scenario
from .simnet import World

__version__ = "0.1.0"

__all__ = [
    "EventEngine",
    "MetricsReport",
    "MobilityManager",
    "OverlayRing",
    "RingView",
    "Scenario",
    "World",
    "apply_overrides",
    "bundled_scenario_path",
    "emit",
    "hash_id",
    "parse_scenario",
    "__version__",
]
