"""Each built artifact is verified exactly once: by its constructor, not again
by the constructor it calls nor by the CLI handler that prints it."""

import importlib

import pytest

from zsmagic import build_group_kotzig, build_int_kotzig, parse_group_spec, zsp
from zsmagic.cli import main
from zsmagic.groups import Check

zsp_module = importlib.import_module("zsmagic.zsp")  # the package's ``zsp`` is the function
kotzig_module = importlib.import_module("zsmagic.kotzig")
oracle_module = importlib.import_module("zsmagic.oracle")
cli_module = importlib.import_module("zsmagic.cli")


@pytest.fixture
def zsp_calls(monkeypatch):
    """Group orders of every ``verify_zsp`` call, through any import of it
    (``verify`` finds it through the oracle's kind table)."""
    orders = []
    original = zsp_module.verify_zsp

    def counting(spec, partition, m, universe=None):
        orders.append(spec.order)
        return original(spec, partition, m, universe)

    monkeypatch.setattr(zsp_module, "verify_zsp", counting)
    monkeypatch.setattr(oracle_module, "verify_zsp", counting)
    return orders


@pytest.fixture
def kotzig_calls(monkeypatch):
    calls = []
    original = kotzig_module.verify_kotzig

    def counting(array):
        calls.append((array.j, array.k))
        return original(array)

    monkeypatch.setattr(kotzig_module, "verify_kotzig", counting)
    return calls


def test_zsp_odd_lift_verifies_once(zsp_calls):
    zsp(parse_group_spec("Z2xZ2xZ4xZ4xZ15"), 3)
    assert zsp_calls == [960]


@pytest.mark.parametrize("group, m", [("Z3xZ15", 5), ("Z2xZ6xZ48", 6), ("Z2xZ2xZ4xZ4", 4)])
def test_zsp_verifies_once(zsp_calls, group, m):
    spec = parse_group_spec(group)
    zsp(spec, m)
    assert zsp_calls == [spec.order]


def test_group_kotzig_verifies_once(kotzig_calls):
    build_group_kotzig(parse_group_spec("Z2xZ6xZ24"), 7)
    assert kotzig_calls == [(7, 288)]


@pytest.mark.parametrize(
    "argv, counter, expected",
    [
        (["zsp", "Z2xZ2xZ4xZ4xZ15", "3"], "zsp", [960]),
        (["--json", "zsp", "Z3xZ15", "5"], "zsp", [45]),
        (["kotzig", "Z2xZ6xZ24", "7"], "kotzig", [(7, 288)]),
        (["--json", "kotzig", "15", "3", "--int"], "kotzig", [(3, 15)]),
    ],
)
def test_cli_adds_no_verification(capsys, zsp_calls, kotzig_calls, argv, counter, expected):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert ('"verified":true' in out) if argv[0] == "--json" else out.endswith("# verified: accept\n")
    assert (zsp_calls if counter == "zsp" else kotzig_calls) == expected


def test_int_kotzig_verifies_once(kotzig_calls):
    build_int_kotzig(5, 21)
    assert kotzig_calls == [(5, 21)]


@pytest.mark.parametrize(
    "module, verifier, build",
    [
        (zsp_module, "verify_zsp", lambda: zsp(parse_group_spec("Z2xZ2xZ3"), 6)),
        (zsp_module, "verify_zsp", lambda: zsp(parse_group_spec("Z3xZ15"), 5)),
        (zsp_module, "verify_zsp", lambda: zsp(parse_group_spec("Z2xZ2xZ3"), 3)),
        (kotzig_module, "verify_kotzig", lambda: build_group_kotzig(parse_group_spec("Z2xZ6"), 3)),
        (kotzig_module, "verify_kotzig", lambda: build_int_kotzig(3, 5)),
        (cli_module, "verify_triple_bijection", lambda: main(["bijection", "Z2xZ2"])),
    ],
    ids=["zsp-even", "zsp-odd", "zsp-odd-lift", "kotzig", "kotzig-int", "cli-bijection"],
)
def test_built_artifact_failing_its_check_raises(monkeypatch, capsys, module, verifier, build):
    """A constructor whose output fails its own verifier has a bug: it raises
    with the verifier's reason, and the CLI prints no certificate."""
    monkeypatch.setattr(module, verifier, lambda *args: Check(False, row=0, reason="planted rejection"))
    with pytest.raises(AssertionError, match="failed verification: planted rejection"):
        build()
    assert capsys.readouterr().out == ""


def test_found_report_parses_its_witness_once(monkeypatch, capsys, tmp_path):
    """``verify`` on a found report parses the partition it carries once:
    each parse ends in one ``ZeroSumPartition._sorted``."""
    assert main(["search", "zsp", "Z9", "3"]) == 0
    report = tmp_path / "r.cert"
    report.write_text(capsys.readouterr().out)
    built = []
    original = zsp_module.ZeroSumPartition._sorted.__func__

    def counting(cls, spec, m, blocks):
        built.append(spec)
        return original(cls, spec, m, blocks)

    monkeypatch.setattr(zsp_module.ZeroSumPartition, "_sorted", classmethod(counting))
    assert main(["verify", str(report)]) == 0
    assert capsys.readouterr().out == "accept: partition\n"
    assert len(built) == 1
