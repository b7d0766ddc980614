"""Clean fixture: the sanctioned deferred (function-scope) discovery
import of the topology layer."""


def shared_snapshot(network):
    from repro.pdms.discovery import TopologySnapshot

    return TopologySnapshot.of(network)
