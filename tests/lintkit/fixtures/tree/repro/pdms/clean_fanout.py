"""Clean fixture: module-level worker entry, registered wire payload, and
the sanctioned deferred (function-scope) discovery import."""


def probe_entry(snapshot):
    return snapshot


def fan_out(pool, network):
    from repro.pdms.discovery import TopologySnapshot

    return pool.apply_async(
        probe_entry,
        args=(TopologySnapshot(network.peer_names, network.mappings),),
    )
