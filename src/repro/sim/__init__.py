"""Discrete-event simulation substrate.

This subpackage provides the virtual-time kernel (:mod:`repro.sim.kernel`),
queues (:mod:`repro.sim.stores`), resources (:mod:`repro.sim.resources`), the
byte mover every disk and link is made of (:mod:`repro.sim.links`), the
workload specifications matching the paper's Table 1/Table 2
(:mod:`repro.sim.workloads`), the four loader pipeline models
(:mod:`repro.sim.loaders`) and the experiment runner (:mod:`repro.sim.runner`).
"""

from .checkpoint import CheckpointPolicy
from .cluster import Cluster, ClusterMembership, MembershipEvent, PartitionEvent
from .fabric import RingFabric
from .kernel import AllOf, Environment, Event, Interrupt, Process, Timeout
from .links import BandwidthPipe, SharedLink, Stream
from .resources import Request, Resource
from .scenarios import PRESETS, JobMix, JobSpec, MixResult, run_preset
from .stores import PriorityStore, Store
from .topology import FlatRing, Hierarchical, Topology

__all__ = [
    "CheckpointPolicy",
    "Cluster",
    "ClusterMembership",
    "MembershipEvent",
    "PartitionEvent",
    "JobMix",
    "JobSpec",
    "MixResult",
    "PRESETS",
    "run_preset",
    "RingFabric",
    "Topology",
    "FlatRing",
    "Hierarchical",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "Store",
    "PriorityStore",
    "Resource",
    "Request",
    "BandwidthPipe",
    "SharedLink",
    "Stream",
]
