"""Scheme-registry fixture: shape, constructor and override-key breakage."""


class FrontendConfig:
    l1i_size: int = 32 * 1024
    block_size: int = 64


class LocalPrefetcher:
    def __init__(self, entries=16):
        self.entries = entries


SCHEMES = {
    "good": ("reg_violations.LocalPrefetcher", {"entries": 32},
             {"block_size": 32}),
    "bad_shape": "not even a tuple",                       # REG003 (line 17)
    "old_lambda": lambda: (LocalPrefetcher(entries=32), {}, {}),  # REG003
    "bad_factory": ("reg_violations.LocalPrefetcher", {"nope": 1},  # REG001
                    {}),
    "bad_override": (None, {}, {"not_a_field": 1}),        # REG002
    "bad_path": ("reg_violations.MissingPrefetcher", {}, {}),  # REG001
}
