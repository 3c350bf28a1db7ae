"""Bitmap join index advisor for star-schema warehouses.

Selects mono-attribute bitmap join index configurations from a SQL workload
by enumerating the smallest minimal transversals of the query-attribute
hypergraph, with closed-itemset baselines and an I/O cost model.
"""

__version__ = "0.1.0"


def data_path(name: str):
    """Path to a bundled sample catalog or workload file."""
    from importlib import resources
    return resources.files(__name__) / "data" / name
