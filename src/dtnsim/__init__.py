"""Sociality-aware routing simulator for delay-tolerant networks."""

from dtnsim.contacts import MAX_WEIGHT, ContactWindow
from dtnsim.engine import (
    MetricsReport,
    ReplicateReport,
    SimConfig,
    Simulation,
    replicate,
    run,
    schedule_messages,
)
from dtnsim.graph import (
    SocialGraph,
    betweenness,
    endpoint_betweenness,
    expanded_ego_betweenness,
    extract_expanded_ego,
)
from dtnsim.mobility import (
    Arena,
    Trace,
    WaypointParams,
    generate_trace,
    load_trace,
    save_trace,
)
from dtnsim.routing import Message, Protocol
from dtnsim.social import HelloPayload, SocialNetworkView

__version__ = "0.1.0"

__all__ = [
    "Arena",
    "ContactWindow",
    "HelloPayload",
    "MAX_WEIGHT",
    "Message",
    "MetricsReport",
    "Protocol",
    "ReplicateReport",
    "SimConfig",
    "Simulation",
    "SocialGraph",
    "SocialNetworkView",
    "Trace",
    "WaypointParams",
    "betweenness",
    "endpoint_betweenness",
    "expanded_ego_betweenness",
    "extract_expanded_ego",
    "generate_trace",
    "load_trace",
    "replicate",
    "run",
    "save_trace",
    "schedule_messages",
]
