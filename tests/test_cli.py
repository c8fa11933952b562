import json
import tracemalloc

import pytest

from zsmagic import array_to_text, build_group_kotzig, parse_group_spec, partition_to_text, zsp
from zsmagic.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NONEXISTENT,
    EXIT_OK,
    EXIT_REJECT,
    main,
)
from zsmagic.oracle import SearchReport, conjecture_scan, report_to_text, sized_partition_to_text

K4_GRAPH = "p 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
P3_GRAPH = "p 3\ne 0 1\ne 1 2\n"
C4_GRAPH = "p 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
C6_GRAPH = "p 6\n" + "".join(f"e {v} {(v + 1) % 6}\n" for v in range(6))
Z2Z6_ARRAY = array_to_text(build_group_kotzig(parse_group_spec("Z2xZ6"), 3))
Z2Z6_PARTITION = partition_to_text(zsp(parse_group_spec("Z2xZ6"), 4))
SIZED_REPORT = conjecture_scan(parse_group_spec("Z2xZ2xZ2"), (3, 4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_info_z2z2z4(self, capsys):
        code, out, _ = run(capsys, "info", "Z2xZ2xZ4")
        assert code == EXIT_OK
        assert "order: 16" in out
        assert "involutions: 7" in out
        assert "in class G: yes" in out

    def test_factor_above_bound_refused_before_factoring(self, capsys):
        code, out, err = run(capsys, "info", "Z2xZ2305843009213693951")
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error (invalid-input)") and "exceeds the bound" in err

    def test_order_above_bound_with_factors_within(self, capsys):
        code, out, _ = run(capsys, "info", "Z1048576xZ1048576")
        assert code == EXIT_OK
        assert "order: 1099511627776" in out
        assert "canonical: Z1048576xZ1048576" in out

    def test_sum_all_from_the_rank_alone(self, capsys):
        # Z2^30 has 2^30 - 1 involutions; the sum is decided without listing them
        code, out, _ = run(capsys, "info", "x".join(["Z2"] * 30))
        assert code == EXIT_OK
        assert f"sum of all elements: ({','.join(['0'] * 30)})" in out

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "info", "Z2xQ8")
        assert code == EXIT_INVALID
        assert "Q8" in err

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate", "Z4")[0] == EXIT_INVALID


class TestZsp:
    def test_nonexistent(self, capsys):
        code, _, err = run(capsys, "zsp", "Z6", "3")
        assert code == EXIT_NONEXISTENT
        assert "involution" in err

    def test_success_and_verify_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "zsp", "Z2xZ2xZ3", "4")
        assert code == EXIT_OK
        cert = tmp_path / "p.cert"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == EXIT_OK
        assert out.startswith("accept")

    def test_divisibility_is_invalid_input(self, capsys):
        assert run(capsys, "zsp", "Z9", "6")[0] == EXIT_INVALID

    def test_m2_is_nonexistent(self, capsys):
        assert run(capsys, "zsp", "Z9", "2")[0] == EXIT_NONEXISTENT


class TestKotzigAndBijection:
    def test_bijection_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bijection", "Z2xZ2xZ2")
        assert code == EXIT_OK
        cert = tmp_path / "b.cert"
        cert.write_text(out)
        assert run(capsys, "verify", str(cert))[0] == EXIT_OK

    def test_kotzig_group_and_int(self, capsys, tmp_path):
        code, out, _ = run(capsys, "kotzig", "Z2xZ2xZ3", "5")
        assert code == EXIT_OK
        cert = tmp_path / "a.cert"
        cert.write_text(out)
        assert run(capsys, "verify", str(cert))[0] == EXIT_OK
        code, out, _ = run(capsys, "kotzig", "7", "3", "--int")
        assert code == EXIT_OK
        cert.write_text(out)
        assert run(capsys, "verify", str(cert))[0] == EXIT_OK

    def test_kotzig_nonexistent(self, capsys):
        assert run(capsys, "kotzig", "Z4", "3")[0] == EXIT_NONEXISTENT
        assert run(capsys, "kotzig", "4", "3", "--int")[0] == EXIT_NONEXISTENT
        assert run(capsys, "kotzig", "Z2", "1")[0] == EXIT_NONEXISTENT
        assert run(capsys, "kotzig", "2", "1", "--int")[0] == EXIT_NONEXISTENT

    @pytest.mark.parametrize(
        "argv, kind",
        [(("kotzig", "Z1", "1"), "kotzig"), (("kotzig", "1", "1", "--int"), "kotzig-int")],
        ids=["group", "int"],
    )
    def test_single_cell_array_roundtrip(self, capsys, tmp_path, argv, kind):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.endswith("# verified: accept\n")
        cert = tmp_path / "a.cert"
        cert.write_text(out)
        assert run(capsys, "verify", str(cert))[:2] == (EXIT_OK, f"accept: {kind}\n")


class TestLabel:
    def test_blowup_flagship(self, capsys, tmp_path):
        graph = tmp_path / "k4.graph"
        graph.write_text(K4_GRAPH)
        product = tmp_path / "k3333.graph"
        code, out, _ = run(
            capsys,
            "label", "blowup", str(graph), "3", "Z2xZ2xZ3",
            "--emit-graph", str(product),
        )
        assert code == EXIT_OK
        assert "# magic constant: (0,0,0)" in out
        cert = tmp_path / "l.cert"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert), "--graph", str(product))
        assert code == EXIT_OK

    def test_label_not_admissible(self, capsys, tmp_path):
        graph = tmp_path / "k4.graph"
        graph.write_text(K4_GRAPH)
        assert run(capsys, "label", "blowup", str(graph), "3", "Z12")[0] == EXIT_NONEXISTENT

    def test_rejected_labeling(self, capsys, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_text("labeling Z3\n0\t0\n1\t1\n2\t2\n")
        graph = tmp_path / "p3.graph"
        graph.write_text("p 3\ne 0 1\ne 1 2\n")
        code, out, _ = run(capsys, "verify", str(cert), "--graph", str(graph))
        assert code == EXIT_REJECT
        assert out.startswith("reject")

    @pytest.mark.parametrize(
        "kind, graph, n, group",
        [
            pytest.param("even", K4_GRAPH, "2", "Z8", id="even-K4"),
            pytest.param("eulerian", C6_GRAPH, "3", "Z3xZ6", id="eulerian-C6"),
        ],
    )
    def test_other_labelers_end_to_end(self, capsys, tmp_path, kind, graph, n, group):
        base = tmp_path / "base.graph"
        base.write_text(graph)
        product = tmp_path / "product.graph"
        code, out, _ = run(capsys, "label", kind, str(base), n, group, "--emit-graph", str(product))
        assert code == EXIT_OK
        assert "# status: magic" in out
        cert = tmp_path / "l.cert"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert), "--graph", str(product))
        assert code == EXIT_OK
        assert out == "accept: labeling\n"

    def test_blowup_memory_is_linear_in_the_order(self, capsys, tmp_path):
        # C4 o K̄_1024 has 2,097,152 edges; the label path holds one neighbourhood per fibre instead
        graph = tmp_path / "c4.graph"
        graph.write_text(C4_GRAPH)
        tracemalloc.start()
        try:
            code = main(["label", "blowup", str(graph), "1024", "Z2xZ2xZ1024"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and capsys.readouterr().out.endswith("# status: magic\n# magic constant: (0,0,0)\n")
        assert peak <= 16 * 2**20


class TestSearchAndScan:
    def test_search_found(self, capsys):
        code, out, _ = run(capsys, "search", "zsp", "Z9", "3")
        assert code == EXIT_OK
        assert "found=true" in out

    def test_search_nonexistent(self, capsys):
        assert run(capsys, "search", "zsp", "Z6", "3")[0] == EXIT_NONEXISTENT
        assert run(capsys, "search", "bijection", "Z4")[0] == EXIT_NONEXISTENT
        assert run(capsys, "search", "kotzig", "4", "3", "--int")[0] == EXIT_NONEXISTENT

    def test_search_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "search", "zsp", "Z2xZ2xZ3", "3", "--budget", "3")
        assert code == EXIT_BUDGET
        assert "exhausted=false" in out

    def test_search_labeling(self, capsys, tmp_path):
        graph = tmp_path / "k33.graph"
        lines = ["p 6"] + [f"e {u} {v + 3}" for u in range(3) for v in range(3)]
        graph.write_text("\n".join(lines) + "\n")
        assert run(capsys, "search", "labeling", str(graph), "Z6")[0] == EXIT_NONEXISTENT

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            pytest.param(("search", "zsp", "Z9", "3"), EXIT_OK, None, id="zsp"),
            pytest.param(("search", "kotzig", "3", "3", "--int"), EXIT_OK, None, id="int-kotzig"),
            pytest.param(("search", "zsp", "Z8"), EXIT_INVALID, "expects", id="zsp-without-m"),
            pytest.param(
                ("search", "zsp", "Z9", "3", "4"), EXIT_INVALID, "expects", id="zsp-extra-argument"
            ),
            pytest.param(("search", "kotzig", "Z8"), EXIT_INVALID, "expects", id="kotzig-without-j"),
            pytest.param(
                ("search", "kotzig", "8", "--int"), EXIT_INVALID, "expects", id="int-kotzig-without-j"
            ),
            pytest.param(
                ("search", "labeling", "g.graph"), EXIT_INVALID, "expects", id="labeling-without-group"
            ),
            pytest.param(
                ("search", "bijection", "Z8", "extra"),
                EXIT_INVALID,
                "expects",
                id="bijection-extra-argument",
            ),
            pytest.param(
                ("search", "zsp", "Z9", "3", "--budget", "0"), EXIT_INVALID, "--budget", id="zero-budget"
            ),
            pytest.param(
                ("search", "zsp", "Z9", "3", "--budget", "-5"),
                EXIT_INVALID,
                "--budget",
                id="negative-budget",
            ),
            pytest.param(("scan", "8", "--budget", "0"), EXIT_INVALID, "--budget", id="scan-zero-budget"),
            pytest.param(("search", "zsp", "Z9", "3", "--int"), EXIT_INVALID, "--int", id="int-zsp"),
            pytest.param(("search", "bijection", "Z3", "--int"), EXIT_INVALID, "--int", id="int-bijection"),
            pytest.param(
                ("search", "labeling", "g.graph", "Z3", "--int"), EXIT_INVALID, "--int", id="int-labeling"
            ),
            # refused before the blocks are built, the factor is factored or the rows allocated
            pytest.param(("zsp", "Z1594323", "3"), EXIT_INVALID, "exceeds the bound", id="zsp-above-bound"),
            pytest.param(
                ("bijection", "Z2xZ2xZ2305843009213693951"),
                EXIT_INVALID,
                "exceeds the bound",
                id="bijection-above-bound",
            ),
            pytest.param(
                ("kotzig", "200000000", "2", "--int"),
                EXIT_INVALID,
                "exceeds the bound",
                id="int-kotzig-above-bound",
            ),
            pytest.param(
                ("kotzig", "abc", "3", "--int"),
                EXIT_INVALID,
                "--int expects an integer column count, got 'abc'",
                id="int-kotzig-column-count-not-integer",
            ),
        ],
    )
    def test_argument_table(self, capsys, argv, code, message):
        got, out, err = run(capsys, *argv)
        assert got == code
        if code == EXIT_INVALID:
            assert err.startswith("error (invalid-input)") and message in err
            assert out == ""
            got, out, _ = run(capsys, "--json", *argv)
            assert got == code
            assert json.loads(out)["error_kind"] == "invalid-input"
        else:
            assert "found=true" in out

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "8")
        assert code == EXIT_OK
        assert "counterexamples: 0" in out

    def test_scan_budget_spent(self, capsys):
        # an instance cut by its budget is no counterexample, but the scan is not a proof
        code, out, _ = run(capsys, "scan", "16", "--budget", "1")
        assert code == EXIT_BUDGET
        assert "counterexamples: 0" in out
        _, out, _ = run(capsys, "--json", "scan", "16", "--budget", "1")
        rows = json.loads(out)["instances"]
        assert rows and all(row["nodes"] <= 2 for row in rows)
        assert any(not row["exhausted"] for row in rows)

    def test_scan_rows_tell_a_cut_from_a_proof(self, capsys):
        # a row reads NOT FOUND only when its search ran out, so a budget cut never looks like a counterexample
        code, out, _ = run(capsys, "scan", "16", "--budget", "1")
        _, doc, _ = run(capsys, "--json", "scan", "16", "--budget", "1")
        rows = json.loads(doc)["instances"]
        words = [line.split(": ", 1)[1].rsplit(" nodes=", 1)[0] for line in out.splitlines() if line.startswith("# ")]
        assert code == EXIT_BUDGET and "budget spent" in words and "NOT FOUND" not in words
        assert words == ["found" if r["found"] else "NOT FOUND" if r["exhausted"] else "budget spent" for r in rows]

    def test_scan_counterexample_row(self, capsys, monkeypatch):
        spec = parse_group_spec("Z2xZ2xZ2")
        reports = [SearchReport(True, True, 3), SearchReport(False, True, 9)]
        monkeypatch.setattr("zsmagic.oracle.scan_conjecture", lambda *_: [(spec, (3, 4), r) for r in reports])
        code, out, _ = run(capsys, "scan", "8")
        assert code == EXIT_REJECT
        assert out == (
            "# Z2xZ2xZ2 sizes=3,4: found nodes=3\n"
            "# Z2xZ2xZ2 sizes=3,4: NOT FOUND nodes=9\n"
            "scanned 2 instances up to order 8; counterexamples: 1\n"
        )

    @pytest.mark.parametrize("cut_first", [True, False], ids=["cut-first", "counterexample-first"])
    def test_scan_counterexample_outranks_a_cut(self, capsys, monkeypatch, cut_first):
        # a counterexample exits 1 whether a budget-cut row comes before or after it
        spec = parse_group_spec("Z2xZ2xZ2")
        reports = [SearchReport(False, False, 2), SearchReport(False, True, 9)]
        rows = [(spec, (3, 4), r) for r in (reports if cut_first else reports[::-1])]
        monkeypatch.setattr("zsmagic.oracle.scan_conjecture", lambda *_: rows)
        code, out, _ = run(capsys, "scan", "8")
        assert code == EXIT_REJECT
        assert sorted(out.splitlines()[:2]) == [
            "# Z2xZ2xZ2 sizes=3,4: NOT FOUND nodes=9",
            "# Z2xZ2xZ2 sizes=3,4: budget spent nodes=2",
        ]
        assert run(capsys, "--json", "scan", "8")[0] == EXIT_REJECT

    @pytest.mark.parametrize(
        "max_order, code, rows",
        [
            pytest.param("27", EXIT_OK, 294, id="order-27"),
            # Z2xZ2xZ7 (order 28) is past the cap: refused before any instance runs
            pytest.param("30", EXIT_INVALID, 0, id="order-30"),
        ],
    )
    def test_scan_cap(self, capsys, max_order, code, rows):
        got, out, err = run(capsys, "scan", max_order)
        assert got == code
        assert sum(line.startswith("# ") for line in out.splitlines()) == rows
        if code == EXIT_OK:
            assert "counterexamples: 0" in out
        else:
            assert out == "" and err.startswith("error (invalid-input)")


class TestJsonMode:
    def test_byte_identical_documents(self, capsys):
        _, out1, _ = run(capsys, "--json", "zsp", "Z2xZ2xZ3", "4")
        _, out2, _ = run(capsys, "--json", "zsp", "Z2xZ2xZ3", "4")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["verified"] is True
        assert doc["m"] == 4

    def test_error_document(self, capsys):
        code, out, _ = run(capsys, "--json", "zsp", "Z6", "3")
        assert code == EXIT_NONEXISTENT
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["error_kind"] == "nonexistence"

    def test_info_document(self, capsys):
        _, out, _ = run(capsys, "--json", "info", "Z6")
        doc = json.loads(out)
        assert doc == {
            "canonical": "Z2xZ3",
            "class_g": False,
            "command": "info",
            "group": "Z6",
            "involutions": 1,
            "order": 6,
            "sum_all": "3",
        }


class TestVerifyExitCodes:
    @pytest.mark.parametrize(
        "text, code",
        [
            pytest.param(Z2Z6_ARRAY, EXIT_OK, id="valid-array"),
            pytest.param(Z2Z6_PARTITION, EXIT_OK, id="valid-partition"),
            # every header is split on whitespace, as the other certificate kinds always were
            pytest.param("partition\tZ9 m=3\n0 1 8\n2 3 4\n5 6 7\n", EXIT_OK, id="partition-header-tab"),
            pytest.param(
                "report kind=zsp found=false exhausted=true nodes=3\n", EXIT_OK, id="report-not-found"
            ),
            # headers that the body contradicts
            pytest.param("kotzig Z5 j=7 k=5\n", EXIT_INVALID, id="array-without-rows"),
            pytest.param("kotzig-int k=3\n", EXIT_INVALID, id="int-array-without-rows"),
            pytest.param(Z2Z6_ARRAY.replace(" j=3 ", " j=5 "), EXIT_INVALID, id="array-edited-j"),
            pytest.param(Z2Z6_PARTITION.replace(" m=4", " m=3"), EXIT_INVALID, id="partition-edited-m3"),
            pytest.param(Z2Z6_PARTITION.replace(" m=4", " m=6"), EXIT_INVALID, id="partition-edited-m6"),
            pytest.param(
                "partition-sizes Z2xZ2 sizes=4\n(0,1) (1,0) (1,1)\n", EXIT_INVALID, id="sizes-edited"
            ),
            pytest.param(
                "report kind=zsp found=true exhausted=true nodes=3\n", EXIT_INVALID, id="found-without-witness"
            ),
            # malformed headers
            pytest.param("kotzig\n", EXIT_INVALID, id="bare-array-header"),
            pytest.param("kotzig-int j=2\n0 1 2\n2 1 0\n", EXIT_INVALID, id="int-array-without-k"),
            pytest.param("partition-sizes Z8\n1 7\n2 6\n3 5\n4\n", EXIT_INVALID, id="sizes-missing"),
            pytest.param(
                "report kind=bogus found=true exhausted=true nodes=1\n", EXIT_INVALID, id="unknown-report-kind"
            ),
            # report headers read strictly: a malformed one must not hide or mislabel its body
            pytest.param(
                "report kind=zsp found=TRUE exhausted=true nodes=3\npartition Z9 m=3\n0 1 2\n3 4 5\n6 7 8\n",
                EXIT_INVALID, id="report-found-not-lowercase",
            ),
            pytest.param(
                "report kind=zsp exhausted=true nodes=3\npartition Z9 m=3\n0 1 2\n3 4 5\n6 7 8\n",
                EXIT_INVALID, id="report-found-missing",
            ),
            pytest.param("report kind=zsp found=false nodes=3\n", EXIT_INVALID, id="report-exhausted-missing"),
            pytest.param("report found=false exhausted=true nodes=0\n", EXIT_INVALID, id="report-kind-missing"),
            pytest.param(
                "report kind=zsp found=false exhausted=true nodes=0 budget=oops\n",
                EXIT_INVALID, id="report-unknown-field",
            ),
            pytest.param(
                "report kind=zsp kind=zsp found=false exhausted=true nodes=0\n", EXIT_INVALID, id="report-field-twice"
            ),
            pytest.param("report kind=zsp found=false exhausted=true nodes=-3\n", EXIT_INVALID, id="report-nodes-negative"),
            pytest.param(
                "report kind=zsp found=false exhausted=true nodes=3\npartition Z9 m=3\n0 1 2\n3 4 5\n6 7 8\n",
                EXIT_INVALID, id="report-not-found-with-body",
            ),
            pytest.param(
                "report kind=kotzig found=true exhausted=true nodes=3\nkotzig-int k=3 j=2\n0 1 2\n2 1 0\n",
                EXIT_INVALID, id="report-kind-contradicts-body",
            ),
            # each token is one element: none may hold two, nor half of one
            pytest.param(
                "labeling Z2xZ2\n0\t(0,0),(0,1)\n1\t(1,0)\n2\t(1,1)\n3\t(1,1)\n",
                EXIT_INVALID, id="labeling-two-elements-in-one-token",
            ),
            pytest.param(
                "labeling Z2xZ2\n0\t(0,0)\n1\t(0,1)\n2\t(1\n3\t1)\n",
                EXIT_INVALID, id="labeling-element-split-over-two-lines",
            ),
            pytest.param(
                "partition Z2xZ2 m=3\n(0,0),(0,1) (1 1)\n", EXIT_INVALID, id="partition-two-elements-in-one-token"
            ),
            pytest.param(
                "partition Z2xZ2 m=3\n(0,1) (1 0) (1,1)\n", EXIT_INVALID, id="partition-element-split-over-two-tokens"
            ),
            pytest.param(
                "bijection Z2xZ2\n(0,0),(0,0) (0 0)\n(0,1) (0,1) (0,1)\n(1,0) (1,0) (1,0)\n(1,1) (1,1) (1,1)\n",
                EXIT_INVALID, id="bijection-two-elements-in-one-token",
            ),
            pytest.param(
                "bijection Z2xZ2\n(0,0) (0,0) (0,0)\n(0,1) (0,1) (0,1)\n(1,0) (1,0) (1,0)\n(1,1) (1 1)\n",
                EXIT_INVALID, id="bijection-element-split-over-two-tokens",
            ),
            pytest.param("labeling Z3\nx\t1\n1\t0\n2\t2\n", EXIT_INVALID, id="labeling-vertex-not-integer"),
            pytest.param("labeling Z3 extra\n0\t1\n1\t0\n2\t2\n", EXIT_INVALID, id="labeling-header-too-long"),
            pytest.param("labeling\n0\t1\n", EXIT_INVALID, id="labeling-header-too-short"),
            pytest.param("# only a comment\n\n", EXIT_INVALID, id="comments-only"),
        ],
    )
    def test_table(self, capsys, tmp_path, text, code):
        cert = tmp_path / "c.cert"
        cert.write_text(text)
        got, out, err = run(capsys, "verify", str(cert))
        assert got == code
        if code == EXIT_INVALID:
            assert err.startswith("error (invalid-input)") and "Traceback" not in err
            assert "invalid literal" not in err  # a GroupSpecError, not int()'s ValueError
        else:
            assert out.startswith("accept")

    def test_empty_file_names_no_kind(self, capsys, tmp_path):
        cert = tmp_path / "empty.cert"
        cert.write_text("")
        code, out, err = run(capsys, "verify", str(cert))
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error (invalid-input): unrecognised certificate kind ''")

    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.cert")
        code, out, err = run(capsys, "verify", missing)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error (io)") and "Traceback" not in err
        code, out, _ = run(capsys, "--json", "verify", missing)
        assert code == EXIT_INVALID
        assert json.loads(out)["error_kind"] == "io"

    def test_header_above_the_order_bound(self, capsys, tmp_path):
        # no table of a group of order 2^21 is built: each token is read on its own, and the
        # short body is rejected, not refused
        cert = tmp_path / "big.cert"
        cert.write_text("partition Z2xZ1048576 m=4\n(0,0) (0,1) (1,0) (1,1048575)\n")
        code, out, _ = run(capsys, "verify", str(cert))
        assert (code, out) == (EXIT_REJECT, "reject: partition (blocks do not cover the universe)\n")

    @pytest.mark.parametrize(
        "graph, code",
        [
            pytest.param(P3_GRAPH, EXIT_REJECT, id="valid-graph"),
            pytest.param("p x\ne 0 1\ne 1 2\n", EXIT_INVALID, id="graph-count-not-integer"),
            pytest.param("p 3\ne 0 y\ne 1 2\n", EXIT_INVALID, id="graph-edge-not-integer"),
            pytest.param("p 1048577\n", EXIT_INVALID, id="graph-count-above-bound"),
        ],
    )
    def test_graph_table(self, capsys, tmp_path, graph, code):
        cert = tmp_path / "c.cert"
        cert.write_text("labeling Z3\n0\t0\n1\t1\n2\t2\n")
        graph_file = tmp_path / "g.graph"
        graph_file.write_text(graph)
        got, out, err = run(capsys, "verify", str(cert), "--graph", str(graph_file))
        assert got == code
        if code == EXIT_INVALID:
            assert err.startswith("error (invalid-input)") and "invalid literal" not in err
        else:
            assert out.startswith("reject")


class TestVerifyFoundReports:
    """A found report is verified through the certificate it carries."""

    def _verify(self, capsys, tmp_path, text, *extra):
        cert = tmp_path / "r.cert"
        cert.write_text(text)
        return run(capsys, "verify", str(cert), *extra)

    def test_zsp_report(self, capsys, tmp_path):
        _, out, _ = run(capsys, "search", "zsp", "Z9", "3")
        assert out.startswith("report kind=zsp found=true")
        assert self._verify(capsys, tmp_path, out)[:2] == (EXIT_OK, "accept: partition\n")

    def test_sized_partition_report(self, capsys, tmp_path):
        text = report_to_text(SIZED_REPORT, "sized-partition")
        assert self._verify(capsys, tmp_path, text)[:2] == (EXIT_OK, "accept: partition-sizes\n")

    def test_labeling_report_with_and_without_graph(self, capsys, tmp_path):
        graph = tmp_path / "c4.graph"
        graph.write_text(C4_GRAPH)
        _, out, _ = run(capsys, "search", "labeling", str(graph), "Z4")
        assert out.startswith("report kind=labeling found=true")
        code, text, _ = self._verify(capsys, tmp_path, out)
        assert (code, text) == (EXIT_OK, "accept: labeling (bijection onto the group (no graph supplied))\n")
        code, text, _ = self._verify(capsys, tmp_path, out, "--graph", str(graph))
        assert (code, text) == (EXIT_OK, "accept: labeling\n")

    def test_sized_partition_certificate(self, capsys, tmp_path):
        text = sized_partition_to_text(*SIZED_REPORT.witness)
        assert self._verify(capsys, tmp_path, text)[:2] == (EXIT_OK, "accept: partition-sizes\n")
        # swap one element between the two blocks: the sizes still match, the sums do not
        header, first, second = text.splitlines()
        a, b = first.split()[0], second.split()[0]
        edited = "\n".join([header, first.replace(a, b, 1), second.replace(b, a, 1)]) + "\n"
        code, out, _ = self._verify(capsys, tmp_path, edited)
        assert code == EXIT_REJECT
        assert out.startswith("reject: partition-sizes (block 0 sums to")


SIZED_CERT = "partition-sizes Z2xZ2xZ2 sizes=3,4\n(0,0,1) (0,1,0) (0,1,1)\n(1,0,0) (1,0,1) (1,1,0) (1,1,1)\n"
ZSP_REPORT = "report kind=zsp found=true exhausted=true nodes=8\npartition Z9 m=3\n0 1 8\n2 3 4\n5 6 7\n"
LABELING_REPORT = "report kind=labeling found=true exhausted=true nodes=6\nlabeling Z4\n0\t0\n1\t1\n2\t3\n3\t2\n"
NO_GRAPH = "bijection onto the group (no graph supplied)"


def _verdict(ok, kind, reason=None):
    """The text line and the ``--json`` document ``verify`` prints."""
    line = f"{'accept' if ok else 'reject'}: {kind}" + (f" ({reason})" if reason else "")
    doc = {"accepted": ok, "command": "verify", "kind": kind, "reason": reason}
    return line + "\n", json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestVerifyOutput:
    """``verify`` prints exactly these lines, as text and as ``--json``, for a valid
    and a rejected certificate of every kind and for found and not-found reports."""

    @pytest.mark.parametrize(
        "text, graph, code, verdict",
        [
            pytest.param("partition Z9 m=3\n0 1 8\n2 3 4\n5 6 7\n", None, EXIT_OK, _verdict(True, "partition"), id="partition-valid"),
            pytest.param(
                "partition Z9 m=3\n0 1 2\n3 4 5\n6 7 8\n", None, EXIT_REJECT,
                _verdict(False, "partition", "block 0 sums to 3"), id="partition-rejected",
            ),
            pytest.param("bijection Z3\n0 0 0\n1 1 1\n2 2 2\n", None, EXIT_OK, _verdict(True, "bijection"), id="bijection-valid"),
            pytest.param(
                "bijection Z3\n0 0 0\n1 2 1\n2 1 2\n", None, EXIT_REJECT,
                _verdict(False, "bijection", "column at 1 sums to 1"), id="bijection-rejected",
            ),
            pytest.param("kotzig Z3 j=2 k=3\n0 1 2\n0 2 1\n", None, EXIT_OK, _verdict(True, "kotzig"), id="kotzig-valid"),
            pytest.param(
                "kotzig Z3 j=2 k=3\n0 1 2\n0 1 2\n", None, EXIT_REJECT,
                _verdict(False, "kotzig", "column 1 sums to (2,), column 0 to (0,)"), id="kotzig-rejected",
            ),
            pytest.param("kotzig-int k=3 j=2\n0 1 2\n2 1 0\n", None, EXIT_OK, _verdict(True, "kotzig-int"), id="kotzig-int-valid"),
            pytest.param(
                "kotzig-int k=3 j=2\n0 1 2\n0 1 2\n", None, EXIT_REJECT,
                _verdict(False, "kotzig-int", "column 1 sums to 2, column 0 to 0"), id="kotzig-int-rejected",
            ),
            pytest.param(
                "labeling Z3\n0\t0\n1\t1\n2\t2\n", None, EXIT_OK, _verdict(True, "labeling", NO_GRAPH),
                id="labeling-without-graph",
            ),
            pytest.param("labeling Z3\n0\t1\n1\t0\n2\t2\n", P3_GRAPH, EXIT_OK, _verdict(True, "labeling"), id="labeling-valid"),
            pytest.param(
                "labeling Z3\n0\t0\n1\t1\n2\t2\n", P3_GRAPH, EXIT_REJECT,
                _verdict(False, "labeling", "weights differ at vertices (0, 1)"), id="labeling-rejected",
            ),
            pytest.param(
                "labeling Z2xZ2\n0\t(0, 0)\n1\t(0, 1)\n2\t(1, 0)\n3\t(1, 1)\n", C4_GRAPH, EXIT_OK,
                _verdict(True, "labeling"), id="labeling-inner-spaces",
            ),
            pytest.param(SIZED_CERT, None, EXIT_OK, _verdict(True, "partition-sizes"), id="partition-sizes-valid"),
            pytest.param(
                "partition-sizes Z2xZ2xZ2 sizes=3,4\n(1,0,0) (0,1,0) (0,1,1)\n(0,0,1) (1,0,1) (1,1,0) (1,1,1)\n",
                None, EXIT_REJECT, _verdict(False, "partition-sizes", "block 0 sums to (1,0,1)"),
                id="partition-sizes-rejected",
            ),
            pytest.param(
                SIZED_CERT.replace("(0,0,1) (0,1,0)", "(0,0,0) (0,1,0)"), None, EXIT_REJECT,
                _verdict(False, "partition-sizes", "block 0 contains (0,0,0) outside the universe"),
                id="partition-sizes-identity",
            ),
            pytest.param(
                SIZED_CERT.replace("(0,1,0) (0,1,1)", "(0,1,0) (0,0,1)"), None, EXIT_REJECT,
                _verdict(False, "partition-sizes", "block 0 repeats (0,0,1)"),
                id="partition-sizes-repeated",
            ),
            pytest.param(ZSP_REPORT, None, EXIT_OK, _verdict(True, "partition"), id="report-found"),
            pytest.param(
                ZSP_REPORT.replace("0 1 8\n2 3 4\n5 6 7", "0 1 2\n3 4 5\n6 7 8"), None, EXIT_REJECT,
                _verdict(False, "partition", "block 0 sums to 3"), id="report-found-rejected",
            ),
            pytest.param(
                "report kind=bijection found=false exhausted=true nodes=4\n", None, EXIT_OK,
                _verdict(True, "report", "no witness to check"), id="report-not-found",
            ),
            pytest.param(
                "report kind=unknown found=false exhausted=false nodes=10\n", None, EXIT_OK,
                _verdict(True, "report", "no witness to check"), id="report-budget-spent",
            ),
            pytest.param(
                LABELING_REPORT, None, EXIT_OK, _verdict(True, "labeling", NO_GRAPH), id="report-labeling-without-graph"
            ),
            pytest.param(LABELING_REPORT, C4_GRAPH, EXIT_OK, _verdict(True, "labeling"), id="report-labeling-valid"),
            pytest.param(
                LABELING_REPORT.replace("2\t3\n3\t2", "2\t2\n3\t3"), C4_GRAPH, EXIT_REJECT,
                _verdict(False, "labeling", "weights differ at vertices (0, 1)"), id="report-labeling-rejected",
            ),
        ],
    )
    def test_table(self, capsys, tmp_path, text, graph, code, verdict):
        cert = tmp_path / "c.cert"
        cert.write_text(text)
        argv = ["verify", str(cert)]
        if graph is not None:
            graph_file = tmp_path / "g.graph"
            graph_file.write_text(graph)
            argv += ["--graph", str(graph_file)]
        assert run(capsys, *argv)[:2] == (code, verdict[0])
        assert run(capsys, "--json", *argv)[:2] == (code, verdict[1])
