"""A generic registry object in the ABFT009 fixtures."""


class Registry:
    def __init__(self):
        self._entries = {}

    def register(self, entry, name):
        self._entries[name] = entry


SCHEME_REGISTRY = Registry()
