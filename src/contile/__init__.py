"""Contiguous-tile Boolean matrix factorization.

Factors a binary matrix into a union of rank-1 tiles whose row and column
sets can be ordered so every tile is contiguous (optionally wrapping, and
optionally sharing one node order for symmetric matrices), then renders the
result as circular or linear edge-bundle layouts.

Each public name loads its module on first use, so `from contile import
bitmat, synth` compiles those two modules and none of the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {  # public name -> the module that defines it
    name: module
    for module, names in {
        "bitmat": "BinaryMatrix FormatError dump_dense dump_sparse hamming_error is_cyclic_under "
        "is_unimodal_under load_dense load_sparse reconstruct",
        "factorizer": "Factorization factorize format_report parse_report seeds_sample",
        "pqtree": "PQTree",
        "render": "RenderSpec render_circular render_heatmap render_linear",
        "synth": "BlockSpec flip_noise gen_blocks gen_random",
    }.items()
    for name in names.split()
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
