"""Finite dynamic-graph traces.

:class:`GraphTrace` — the library's one dynamic-network container, an
explicit sequence of per-round
:class:`~repro.sim.topology.SnapshotArrays` plus an ``extend`` policy for
rounds past its horizon — lives in :mod:`repro.sim.topology`, next to the
snapshots it sequences, and is re-exported here, where every generator in
:mod:`repro.graphs.generators` and every property checker in
:mod:`repro.graphs.properties` imports it from.
"""

from ..sim.topology import GraphTrace

__all__ = ["GraphTrace"]
