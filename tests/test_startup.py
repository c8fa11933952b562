"""Start-up pays only for the verb that runs: each verb, in a fresh interpreter,
loads only the package modules it uses, and the package's exports stay the
same whether they are bound on import or on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zsmagic
from zsmagic import partition_to_text, parse_group_spec, zsp

SRC = str(Path(zsmagic.__file__).parent.parent)
K4_GRAPH = "p 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"

# ``from zsmagic import *`` in a fresh interpreter, before the exports became lazy
EXPORTS = [
    "ArityError", "DivisibilityError", "Graph", "GroupKotzigArray", "GroupSpec", "GroupSpecError",
    "ImpossibilityError", "IntKotzigArray", "Labeling", "NonexistenceError",
    "OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4", "OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION", "ParameterError",
    "SearchReport", "TripleBijection", "Verdict", "ZeroSumPartition", "ZsmagicError", "abelian_groups_up_to",
    "abelian_isomorphism_classes", "array_from_text", "array_to_text", "base_tables", "bijection_from_text",
    "bijection_to_text", "bipartite_blowup_exists", "blowup_even_label", "blowup_label", "build_group_kotzig",
    "build_int_kotzig", "canonical_factors", "complete_bipartite_graph", "complete_graph", "conjecture_scan",
    "cycle_graph", "empty_graph", "errors", "eulerian_bipartite_label", "format_element", "graph_from_text",
    "graph_to_text", "graphs", "groups", "in_class_g", "involution_count", "involution_quadruples",
    "involutions", "kotzig", "labeling_from_text", "labeling_to_text", "lex_product", "obstruction_check",
    "oracle", "parse_element", "parse_group_spec", "partition_from_text", "partition_to_text", "path_graph",
    "report_from_text", "report_to_text", "scan_conjecture", "search_kotzig", "search_labeling",
    "search_triple_bijection", "search_zsp", "sum_all", "triple_bijection", "two_part_split",
    "two_torsion_rank", "verify_kotzig", "verify_labeling", "verify_sized_partition",
    "verify_triple_bijection", "verify_zsp", "zsp", "zsp_even", "zsp_odd",
]

BASE = {"zsmagic", "zsmagic.cli", "zsmagic.errors", "zsmagic.groups", "zsmagic.zsp"}
EVERY = BASE | {"zsmagic.graphs", "zsmagic.kotzig", "zsmagic.oracle"}


def fresh(probe: str, *args: str) -> str:
    """Run ``probe`` in a new interpreter that imports ``zsmagic`` from this
    checkout; return its standard output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


@pytest.fixture
def verb_argv(tmp_path):
    """Every verb's argv, keyed by a name; the files they read are in ``tmp_path``."""
    graph = tmp_path / "k4.graph"
    graph.write_text(K4_GRAPH)
    cert = tmp_path / "cert.txt"
    cert.write_text(partition_to_text(zsp(parse_group_spec("Z2xZ6"), 4)))
    return {
        "info": ["info", "Z2xZ2xZ4"],
        "zsp": ["zsp", "Z2xZ2xZ3", "4"],
        "bijection": ["bijection", "Z2xZ2xZ8"],
        "kotzig": ["kotzig", "Z2xZ2xZ3", "5"],
        "kotzig-int": ["kotzig", "7", "3", "--int"],
        "label": ["label", "blowup", str(graph), "3", "Z2xZ2xZ3"],
        "verify": ["verify", str(cert)],
        "search": ["search", "zsp", "Z2xZ2xZ3", "3"],
        "scan": ["scan", "8"],
    }


# each verb runs alone in its interpreter; stdout is swallowed so only the verdict line is printed
MODULES_PROBE = """
import contextlib, io, json, sys
from zsmagic.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "zsmagic")]))
"""


@pytest.mark.parametrize(
    "verb, modules",
    [
        ("info", BASE),
        ("zsp", BASE),
        ("bijection", BASE),
        ("kotzig", BASE | {"zsmagic.kotzig"}),
        ("kotzig-int", BASE | {"zsmagic.kotzig"}),
        ("label", BASE | {"zsmagic.graphs"}),
        ("verify", EVERY),
        ("search", EVERY),
        ("scan", EVERY),
    ],
)
def test_each_verb_loads_only_its_modules(verb_argv, verb, modules):
    code, loaded = json.loads(fresh(MODULES_PROBE, json.dumps(verb_argv[verb])))
    assert code == 0
    assert set(loaded) == modules


EXPORTS_PROBE = """
import json, zsmagic
listed = sorted(set(zsmagic.__all__) & set(dir(zsmagic)))
star = {}
exec("from zsmagic import *", star)
del star["__builtins__"]
unresolved = [name for name in zsmagic.__all__ if getattr(zsmagic, name, None) is None]
print(json.dumps([sorted(zsmagic.__all__), sorted(star), listed, unresolved]))
"""


def test_exports_are_unchanged_and_resolve():
    every, star, listed, unresolved = json.loads(fresh(EXPORTS_PROBE))
    assert every == star == listed == EXPORTS
    assert unresolved == []


# ``zsmagic.zsp`` is checked after the submodule import and after every verb, in one interpreter
ZSP_PROBE = """
import contextlib, io, json, sys, types
import zsmagic
import zsmagic.zsp
from zsmagic.cli import main
kinds = [isinstance(zsmagic.zsp, types.FunctionType)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    kinds.append(isinstance(zsmagic.zsp, types.FunctionType))
print(json.dumps(kinds))
"""


def test_package_zsp_stays_the_function(verb_argv):
    kinds = json.loads(fresh(ZSP_PROBE, json.dumps(list(verb_argv.values()))))
    assert kinds == [True] * (1 + len(verb_argv))
