"""Zero-sum partitions of finite Abelian groups and their applications:
triple bijections, group and integer Kotzig arrays, group distance magic
labelings of graph blow-ups, and exhaustive-search oracles for all of
them at small scale.

The exports of ``errors``, ``groups`` and ``zsp`` are bound on import; those
of ``graphs``, ``kotzig`` and ``oracle`` are bound on first access (PEP 562),
so a process loads only the modules it uses."""

from .errors import (
    ArityError,
    DivisibilityError,
    GroupSpecError,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
    ZsmagicError,
)
from .groups import (
    GroupSpec,
    abelian_groups_up_to,
    abelian_isomorphism_classes,
    canonical_factors,
    format_element,
    in_class_g,
    involution_count,
    involutions,
    parse_element,
    parse_group_spec,
    sum_all,
    two_part_split,
    two_torsion_rank,
)

# bound after the submodule import, so the package's ``zsp`` stays the function
from .zsp import (
    TripleBijection,
    ZeroSumPartition,
    base_tables,
    bijection_from_text,
    bijection_to_text,
    involution_quadruples,
    partition_from_text,
    partition_to_text,
    triple_bijection,
    verify_triple_bijection,
    verify_zsp,
    zsp,
    zsp_even,
    zsp_odd,
)

__version__ = "0.1.0"

# the exports bound on first access, by the submodule that defines them
_LAZY_EXPORTS = {
    "graphs": (
        "OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4", "OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION", "Graph", "Labeling",
        "Verdict", "bipartite_blowup_exists", "blowup_even_label", "blowup_label", "complete_bipartite_graph",
        "complete_graph", "cycle_graph", "empty_graph", "eulerian_bipartite_label", "graph_from_text",
        "graph_to_text", "labeling_from_text", "labeling_to_text", "lex_product", "obstruction_check",
        "path_graph", "verify_labeling",
    ),
    "kotzig": (
        "GroupKotzigArray", "IntKotzigArray", "array_from_text", "array_to_text", "build_group_kotzig",
        "build_int_kotzig", "verify_kotzig",
    ),
    "oracle": (
        "SearchReport", "conjecture_scan", "report_from_text", "report_to_text", "scan_conjecture",
        "search_kotzig", "search_labeling", "search_triple_bijection", "search_zsp", "verify_sized_partition",
    ),
}
# name -> submodule: the one table ``__getattr__`` reads; a submodule's own name maps to itself
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)}

# the eager exports and submodules bound above, then the lazy ones
__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
