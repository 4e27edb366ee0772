"""Path and result stores built from hand-written lists of items, for the tests."""
from __future__ import annotations

from itertools import chain

import numpy as np

from spatial_link.paths import PathStore
from spatial_link.significance import Results


def path_store(paths) -> PathStore:
    """The store of these ``LinkagePath`` items, in this order, with their own scores."""
    paths = list(paths)
    return PathStore(
        np.cumsum([0] + [len(p.nodes) for p in paths]),
        np.fromiter(chain.from_iterable(p.nodes for p in paths), np.int64),
        np.fromiter(chain.from_iterable(p.edge_weights for p in paths), np.int8),
        np.asarray([p.score for p in paths], dtype=np.float64),
    )


def results_store(results) -> Results:
    """The ``Results`` of these ``SignificanceResult`` items, in this order."""
    results = list(results)
    columns = (("observed", float), ("p_value", float), ("significant", bool), ("alpha", float))
    return Results(path_store(r.path for r in results), *(
        np.asarray([getattr(r, name) for r in results], dtype=dtype) for name, dtype in columns
    ))
