import hashlib
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsmagic import (
    GroupSpec,
    GroupSpecError,
    array_from_text,
    array_to_text,
    bijection_from_text,
    bijection_to_text,
    blowup_even_label,
    build_group_kotzig,
    build_int_kotzig,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    eulerian_bipartite_label,
    graph_from_text,
    graph_to_text,
    in_class_g,
    involution_quadruples,
    labeling_from_text,
    labeling_to_text,
    lex_product,
    blowup_label,
    ParameterError,
    parse_group_spec,
    partition_from_text,
    partition_to_text,
    path_graph,
    search_kotzig,
    search_labeling,
    search_zsp,
    triple_bijection,
    zsp,
)
from zsmagic.errors import ZsmagicError
from zsmagic.groups import DEFAULT_ORDER_BOUND, abelian_groups_up_to, abelian_isomorphism_classes
from zsmagic.oracle import (
    SearchReport,
    certificate_from_text,
    conjecture_scan,
    report_from_text,
    report_to_text,
    search_triple_bijection,
    sized_partition_from_text,
    sized_partition_to_text,
)


class TestPartitionText:
    def test_roundtrip(self):
        spec = parse_group_spec("Z2xZ2xZ3")
        part = zsp(spec, 4)
        text = partition_to_text(part)
        assert text.splitlines()[0] == "partition Z2xZ2xZ3 m=4"
        assert partition_from_text(text) == part

    def test_single_factor_elements_are_bare_integers(self):
        part = zsp(GroupSpec((9,)), 3)
        text = partition_to_text(part)
        assert "(" not in text
        assert partition_from_text(text) == part

    def test_comments_ignored(self):
        part = zsp(GroupSpec((9,)), 3)
        text = "# produced by a test\n" + partition_to_text(part) + "# trailing\n"
        assert partition_from_text(text) == part
        # a line of spaces and tabs, a "#" line indented by a tab, a line holding "#" alone
        header, *body = partition_to_text(part).splitlines()
        text = "\n".join([header, " \t \t", body[0], "\t# indented", body[1], "#", body[2]]) + "\n"
        assert partition_from_text(text) == part

    def test_bad_header(self):
        with pytest.raises(GroupSpecError):
            partition_from_text("not-a-partition Z4 m=2\n")


class TestBijectionText:
    @pytest.mark.parametrize("spec_text", ["Z5", "Z2xZ2", "Z2xZ2xZ4"])
    def test_roundtrip(self, spec_text):
        tb = triple_bijection(parse_group_spec(spec_text))
        text = bijection_to_text(tb)
        assert bijection_from_text(text) == tb

    def test_row_count_checked(self):
        tb = triple_bijection(GroupSpec((5,)))
        lines = bijection_to_text(tb).splitlines()
        with pytest.raises(GroupSpecError):
            bijection_from_text("\n".join(lines[:-1]) + "\n")

    def test_rows_must_cover_the_group(self):
        # the right row count, but element 1 opens two rows and element 2 none
        with pytest.raises(GroupSpecError, match="do not cover the group"):
            bijection_from_text("bijection Z3\n0 0 0\n1 1 1\n1 2 0\n")


class TestArrayText:
    def test_group_roundtrip(self):
        array = build_group_kotzig(parse_group_spec("Z2xZ2"), 3)
        text = array_to_text(array)
        assert text.splitlines()[0] == "kotzig Z2xZ2 j=3 k=4"
        assert array_from_text(text) == array

    def test_int_roundtrip(self):
        array = build_int_kotzig(3, 5)
        text = array_to_text(array)
        assert text.splitlines()[0] == "kotzig-int k=5 j=3"
        assert array_from_text(text) == array


class TestGraphText:
    def test_roundtrip(self):
        g = lex_product(complete_graph(3), empty_graph(2))
        assert graph_from_text(graph_to_text(g)) == g

    def test_bad_line_reports_position(self):
        with pytest.raises(GroupSpecError, match="line 2"):
            graph_from_text("p 3\nx 1 2\n")

    @pytest.mark.parametrize("text", ["p x\n", "p 3\ne 0 y\n", "p 3\ne 0.5 1\n"])
    def test_non_integer_is_group_spec_error(self, text):
        with pytest.raises(GroupSpecError):
            graph_from_text(text)

    def test_edge_before_header(self):
        with pytest.raises(GroupSpecError):
            graph_from_text("e 0 1\np 2\n")

    def test_isolated_vertices_allocate_no_set(self):
        # adjacency is built from the edges, so a bare vertex count costs one shared empty tuple each
        tracemalloc.start()
        try:
            g = graph_from_text("p 200000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.n, g.edge_count) == (200000, 0)
        assert peak < 16 * 2**20

    def test_comments_and_blank_lines_ignored(self):
        assert graph_from_text("# a path\n\np 3\n  \ne 0 1\n# middle\ne 1 2\n") == path_graph(3)

    def test_second_vertex_count_line(self):
        with pytest.raises(GroupSpecError, match="line 3: duplicate vertex-count line"):
            graph_from_text("p 3\ne 0 1\np 3\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_missing_vertex_count_line(self, text):
        with pytest.raises(GroupSpecError, match="missing 'p <vertex-count>' line"):
            graph_from_text(text)

    def test_vertex_count_bounded(self):
        # refused before any adjacency set is allocated
        with pytest.raises(GroupSpecError, match="exceeds the bound"):
            graph_from_text(f"p {DEFAULT_ORDER_BOUND + 1}\n")


class TestLabelingText:
    def test_roundtrip(self):
        spec = parse_group_spec("Z2xZ2xZ3")
        lab = blowup_label(complete_graph(4), 3, spec)
        text = labeling_to_text(lab)
        assert labeling_from_text(text) == lab

    @pytest.mark.parametrize(
        "text",
        ["labeling Z3\nx\t1\n1\t0\n2\t2\n", "labeling Z3 extra\n0\t1\n1\t0\n2\t2\n", "labeling \n0\t0\n"],
        ids=["vertex-not-integer", "header-too-long", "header-too-short"],
    )
    def test_malformed_is_group_spec_error(self, text):
        with pytest.raises(GroupSpecError):
            labeling_from_text(text)

    @pytest.mark.parametrize(
        "text, vertex",
        [("labeling Z3\n0\t0\n0\t1\n2\t2\n", 0), ("labeling Z3\n0\t0\n1\t1\n3\t2\n", 3),
         ("labeling Z3\n0\t0\n-1\t1\n2\t2\n", -1)],
        ids=["repeated", "past-the-order", "negative"],
    )
    def test_bad_or_repeated_vertex(self, text, vertex):
        with pytest.raises(GroupSpecError, match=f"bad or repeated vertex {vertex}$"):
            labeling_from_text(text)

    def test_missing_vertex_rejected(self):
        spec = GroupSpec((3,))
        text = "labeling Z3\n0\t0\n1\t1\n"
        with pytest.raises(GroupSpecError):
            labeling_from_text(text)


class TestReportText:
    def test_found_roundtrip(self):
        report = search_zsp(GroupSpec((9,)), 3)
        text = report_to_text(report)
        kind, parsed = report_from_text(text)
        assert kind == "zsp"
        assert parsed.found == report.found
        assert parsed.nodes == report.nodes
        assert parsed.witness == report.witness

    def test_not_found_roundtrip(self):
        report = search_triple_bijection(GroupSpec((4,)))
        text = report_to_text(report, "bijection")
        kind, parsed = report_from_text(text)
        assert kind == "bijection"
        assert not parsed.found and parsed.exhausted
        assert parsed.witness is None

    @pytest.mark.parametrize(
        "kind, search",
        [
            ("zsp", lambda: search_zsp(GroupSpec((9,)), 3)),
            ("bijection", lambda: search_triple_bijection(GroupSpec((2, 2)))),
            ("kotzig", lambda: search_kotzig(GroupSpec((2, 2)), 3)),
            ("kotzig-int", lambda: search_kotzig(3, 3)),
            ("labeling", lambda: search_labeling(cycle_graph(4), GroupSpec((4,)))),
            ("sized-partition", lambda: conjecture_scan(GroupSpec((2, 2, 2)), (3, 4))),
        ],
    )
    def test_kind_inferred_from_witness(self, kind, search):
        report = search()
        text = report_to_text(report)
        assert text.startswith(f"report kind={kind} found=true ")
        assert text == report_to_text(report, kind)
        assert report_from_text(text) == (kind, report)

    @pytest.mark.parametrize(
        "search",
        [
            lambda: search_zsp(GroupSpec(()), 1),
            lambda: search_kotzig(GroupSpec(()), 1),
            lambda: search_triple_bijection(GroupSpec(())),
        ],
        ids=["zsp", "kotzig", "bijection"],
    )
    def test_trivial_group_roundtrip(self, search):
        report = search()
        assert report.found
        assert report_from_text(report_to_text(report))[1] == report

    def test_unknown_witness_type(self):
        with pytest.raises(ParameterError, match="unknown witness type"):
            report_to_text(SearchReport(True, True, 0, object()))


def _pinned_texts():
    spec = parse_group_spec
    return {
        "bijection-Z4xZ8xZ32": lambda: bijection_to_text(triple_bijection(spec("Z4xZ8xZ32"))),
        "kotzig-Z2xZ6xZ24-j5": lambda: array_to_text(build_group_kotzig(spec("Z2xZ6xZ24"), 5)),
        "kotzig-int-3x15": lambda: array_to_text(build_int_kotzig(3, 15)),
        "zsp-Z2xZ2xZ4xZ4xZ15-m3": lambda: partition_to_text(zsp(spec("Z2xZ2xZ4xZ4xZ15"), 3)),
        "zsp-Z3xZ15-m5": lambda: partition_to_text(zsp(spec("Z3xZ15"), 5)),
        "labeling-K4-blowup-Z2xZ2xZ3": lambda: labeling_to_text(
            blowup_label(complete_graph(4), 3, spec("Z2xZ2xZ3"))
        ),
    }


@pytest.mark.parametrize(
    "name, digest",
    [
        ("bijection-Z4xZ8xZ32", "d3eded954f2c36afb440f37932cb287a5d36aae0067084138ce7c9e7baa068fd"),
        ("kotzig-Z2xZ6xZ24-j5", "d231f5e04309d1dedb0c8b2a21f3e4ba1204ab122d1ce5796ad78830900edf05"),
        ("kotzig-int-3x15", "4509c83d44ec8fffbdcefbd74627052c49183300910dee6beff1a20aefbb5c87"),
        ("zsp-Z2xZ2xZ4xZ4xZ15-m3", "abf608da0bbc69ccf2e0f8d56366bf196cb79e2f39b84bb36cdbb3c55fa8b2b8"),
        ("zsp-Z3xZ15-m5", "4ca8d5411f7000da76dd1dedca432c9447312df8747a6f9dee9ad86d74619145"),
        ("labeling-K4-blowup-Z2xZ2xZ3", "8f2de62cf73eae512acc1dab81310e5ee40dcb2d0e349c8b74d9e0dababa72fe"),
    ],
)
def test_pinned_certificates(name, digest):
    """One certificate per family, byte for byte as the constructors print it."""
    text = _pinned_texts()[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pinned_two_part_lifts():
    """The certificates built by lifting along the 2-part / odd-part split, byte for
    byte: odd-m partitions of even-order groups whose odd part is spread over several
    factors, in every coordinate order, and the eulerian labelings of C6, C10 and C14
    blown up by odd fibres, over every group of each order in three presentations."""
    texts = []
    for base in ((2, 6, 10), (4, 6, 9), (12, 20), (2, 2, 4, 8, 3)):
        for factors in sorted(set(permutations(base))):
            spec = GroupSpec(factors)
            for m in range(3, spec.order + 1, 2):
                if spec.order % m == 0:
                    texts.append(partition_to_text(zsp(spec, m)))
    for n in (6, 10, 14):
        for k in (3, 5, 7, 9):
            classes = abelian_isomorphism_classes(n * k)
            merged = [GroupSpec((2 * c.factors[1],) + c.factors[2:]) for c in classes]
            for spec in classes + merged + [GroupSpec((n * k,))]:
                texts.append(labeling_to_text(eulerian_bipartite_label(cycle_graph(n), k, spec)))
    assert len(texts) == 152
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "6702ccd79b9bf858c46d37fa70089cab11cd56f87591da89ee9f0f22aeaaf8aa"
    )


def test_pinned_constructor_sweep():
    """The certificates of the constructors, byte for byte: every equal-size partition
    of every class-G group up to order 64, the Kotzig arrays with 2 to 5 rows of every
    group up to order 32, the even-fibre labelings of C4, K4, K3,3 and C6 over every
    group of each order, and the involution quadruples of six 2-groups."""
    texts = [
        partition_to_text(zsp(spec, m))
        for spec in abelian_groups_up_to(64)
        if in_class_g(spec)
        for m in range(3, spec.order + 1)
        if spec.order % m == 0
    ]
    assert len(texts) == 285
    texts += [
        array_to_text(build_group_kotzig(spec, j))
        for spec in abelian_groups_up_to(32)
        for j in range(2, 6)
        if j % 2 == 0 or in_class_g(spec)
    ]
    assert len(texts) == 285 + 182
    for g in (cycle_graph(4), complete_graph(4), complete_bipartite_graph(3, 3), cycle_graph(6)):
        for n2 in (2, 4):
            for spec in abelian_isomorphism_classes(g.n * n2):
                texts.append(labeling_to_text(blowup_even_label(g, n2, spec)))
    for factors in [(2,) * rank for rank in range(2, 7)] + [(2, 4, 6, 8)]:
        texts.append(partition_to_text(involution_quadruples(GroupSpec(factors))))
    assert len(texts) == 285 + 182 + 26 + 6
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "5922bfa9e3f5124c8ad76dfacd91050c9e37d356b09e37b2124024243af564f7"
    )


def _fuzz_corpus():
    """One small valid certificate per parser."""
    spec = parse_group_spec
    k4 = complete_graph(4)
    sized_report = conjecture_scan(spec("Z2xZ2xZ2"), (3, 4))
    return [
        (partition_from_text, partition_to_text(zsp(spec("Z2xZ2xZ3"), 4))),
        (bijection_from_text, bijection_to_text(triple_bijection(spec("Z2xZ4")))),
        (array_from_text, array_to_text(build_group_kotzig(spec("Z2xZ2"), 3))),
        (array_from_text, array_to_text(build_int_kotzig(3, 5))),
        (labeling_from_text, labeling_to_text(blowup_label(k4, 3, spec("Z2xZ2xZ3")))),
        (graph_from_text, graph_to_text(lex_product(k4, empty_graph(2)))),
        (sized_partition_from_text, sized_partition_to_text(*sized_report.witness)),
        (report_from_text, report_to_text(search_zsp(GroupSpec((9,)), 3))),
        (report_from_text, report_to_text(sized_report, "sized-partition")),
        (report_from_text, report_to_text(search_triple_bijection(GroupSpec((4,))), "bijection")),
    ]


FUZZ_CORPUS = _fuzz_corpus()
# tokens that are not in any certificate but look like parts of one
FUZZ_EXTRA = ["x", "-1", "()", "(1,2", "1)", "Z0", "Z2xQ8", "m=", "j=x", "=", "k=-3", "found=true", "e", "p"]


@st.composite
def _edited_certificate(draw):
    parse, text = draw(st.sampled_from(FUZZ_CORPUS))
    lines = [ln.split() for ln in text.splitlines()]
    seps = ["\t" if "\t" in ln else " " for ln in text.splitlines()]
    pool = sorted({tok for ln in lines for tok in ln}) + FUZZ_EXTRA
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row]
        pos = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete" and pos < len(tokens):
            del tokens[pos]
        elif op == "duplicate" and pos < len(tokens):
            tokens.insert(pos, tokens[pos])
        else:
            tokens[pos:pos + 1] = [draw(st.sampled_from(pool))]
    return parse, "\n".join(sep.join(ln) for sep, ln in zip(seps, lines)) + "\n"


@pytest.mark.parametrize(
    "header", ["partition-sizes Z2xZ2 m=3", "partition-sizes Z2xZ2 sizes=3,x", "partition-sizes Z2xZ2 sizes="]
)
def test_sized_partition_header_needs_integer_sizes(header):
    with pytest.raises(GroupSpecError, match="header needs sizes="):
        sized_partition_from_text(f"{header}\n(0,1) (1,0) (1,1)\n")


@pytest.mark.parametrize(
    "parse, text",
    [(bijection_from_text, "bijection Z1000000000000000\n0 0 0\n"), (labeling_from_text, "labeling Z1000000000000000\n0\t0\n")],
    ids=["bijection", "labeling"],
)
def test_huge_header_refused_before_allocating(parse, text):
    """The row count is held against the header before any per-element table is built."""
    with pytest.raises(GroupSpecError, match="expected"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text, error",
    [
        (partition_from_text, "partition Z1048576 m=2\n0 0\n", None),
        (partition_from_text, "partition Z2xZ524288 m=2\n(0,0) (1,1)\n", None),
        (array_from_text, "kotzig Z1048576 j=2 k=1048576\n0\n0\n", "row length does not match k"),
    ],
    ids=["partition-cyclic", "partition-product", "kotzig"],
)
def test_short_body_builds_no_order_sized_table(parse, text, error):
    """A body too short to cover its group costs what its text costs, not the group order."""
    tracemalloc.start()
    try:
        try:
            parse(text)
            raised = None
        except GroupSpecError as exc:
            raised = str(exc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raised == error
    assert peak < 2**20


@pytest.mark.parametrize(
    "body, reason", [("0 0", "block 0 does not have 2 distinct elements"), ("0 1", "blocks do not cover the universe")]
)
def test_short_partition_verified_without_the_group(body, reason):
    """Verifying a short partition of a group of order 2^20 costs what its text
    costs: the checks before the cover hold no table of the group."""
    tracemalloc.start()
    try:
        _word, witness, verify = certificate_from_text(f"partition Z1048576 m=2\n{body}\n")
        check = verify(witness)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (check.ok, check.reason) == (False, reason)
    assert peak < 2**20


class TestParserFuzz:
    @pytest.mark.parametrize("parse, text", FUZZ_CORPUS)
    def test_corpus_parses(self, parse, text):
        parse(text)

    @given(_edited_certificate())
    @settings(max_examples=400, deadline=None)
    def test_edited_certificates(self, case):
        """Every parser returns an object or raises a ZsmagicError, nothing else."""
        parse, text = case
        try:
            parse(text)
        except ZsmagicError:
            pass
