"""DET002 through a function-local numpy import.

The package imports numpy inside the functions that make arrays, so
the rule must resolve ``np.random.*`` through an import it finds in a
function body as well as at module level.
"""


def unseeded_local_rng():
    import numpy as np

    return np.random.default_rng()     # DET002 (line 12): no seed


def seeded_local_rng(seed):
    import numpy as np

    return np.random.default_rng(seed)
