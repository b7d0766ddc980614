"""Violating fixture: an engine enumerating structures with raw walkers."""

from repro.pdms.probing import find_cycles_through


def probe(network, origin, ttl):
    return find_cycles_through(network, origin, ttl)
