"""Clean fixture: the mapping package owns the correspondence store, and
everyone else edits through a versioned copy."""


def copy_with(mapping, correspondence):
    copy = type(mapping)(mapping.source, mapping.target, label=mapping.label)
    copy._by_source = dict(mapping._by_source)
    copy._by_source[correspondence.source_attribute] = correspondence
    return copy
