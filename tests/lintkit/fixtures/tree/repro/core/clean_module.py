"""Clean fixture: an engine reaching its dependencies the sanctioned way."""

from repro.factorgraph.plan import segment_products
from repro.pdms.discovery import TopologySnapshot


def lower(batch):
    return segment_products(batch.values, batch.segments), TopologySnapshot
