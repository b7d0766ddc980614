"""Violating fixture: an engine editing a registered mapping in place."""


def retarget(mapping, correspondence):
    mapping._by_source[correspondence.source_attribute] = correspondence
