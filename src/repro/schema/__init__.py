"""Schema substrate: attributes, schemas and instance data."""

from .attribute import Attribute, AttributeType, tokenize_identifier
from .schema import DataModel, Schema
from .instances import InstanceStore, Record

__all__ = [
    "Attribute",
    "AttributeType",
    "tokenize_identifier",
    "DataModel",
    "Schema",
    "InstanceStore",
    "Record",
]
