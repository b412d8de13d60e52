import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronscale
from kronscale.circuit import parse
from kronscale.counting import parse_family_file, parse_matrix_file
from kronscale.errors import ParseError, content_lines
from kronscale.fields import prime_field
from kronscale.sieving import parse_graph_file
from kronscale.tensor import (
    generate_P,
    parse_decomposition,
    trivial_decomposition,
    write_decomposition,
)

F7 = prime_field(7)
PACKAGE = Path(kronscale.__file__).parent


def parse_matrix(text):
    return parse_matrix_file(text, F7)


def parse_symmetric_matrix(text):
    return parse_matrix_file(text, F7, symmetric=True)


# (parser, malformed text, line the error must name); blank and comment
# lines count, so the number points into the file as written
MALFORMED = {
    "circuit-second-out": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nout 0\nout 0\n", 5),
    "circuit-out-past-gates": (parse, "circuit v1\nfield gf2 w=8\nin 0 x:{1}\nout 3\n", 4),
    "circuit-out-negative": (parse, "circuit v1\nfield gf2 w=8\nin 0 x:{1}\nout -1\n", 4),
    "rankdec-rank": (parse_decomposition, "rankdec v1\nfield p=7\nr=x\n", 3),
    "rankdec-mask": (parse_decomposition, "rankdec v1\nfield p=7\nr=1\nxside:\n{a}\n", 5),
    "rankdec-negative-rank": (parse_decomposition, "rankdec v1\nfield p=7\nr=-1\n", 3),
    "rankdec-negative-ground": (parse_decomposition, "rankdec v1\nfield p=7\nground -1\n", 3),
    "rankdec-ground-past-max": (parse_decomposition, "rankdec v1\nfield p=7\nground 64\n", 3),
    "rankdec-negative-element": (
        parse_decomposition, "rankdec v1\nfield p=7\nr=0\nxside:\n{-1}\n", 5),
    "rankdec-element-past-max": (
        parse_decomposition, "rankdec v1\nfield p=7\nr=0\nxside:\n{63}\n", 5),
    "rankdec-outside-ground": (
        parse_decomposition, "rankdec v1\nfield p=7\nground 2\nr=0\nxside:\n{0}\n{2}\n", 7),
    "matrix-header": (parse_matrix, "x\n", 1),
    "matrix-value": (parse_matrix, "2\n1 2\n3 zz\n", 3),
    "circuit-in-trailing": (parse, "circuit v1\nfield p=7\nin 0 a b\nout 0\n", 3),
    "circuit-const-trailing": (parse, "circuit v1\nfield p=7\nconst 0 3 4\nout 0\n", 3),
    "family-element": (parse_family_file, "2 1 1\na\n", 2),
    "family-repeated-element": (parse_family_file, "3 2 2\n1 1\n1 3\n", 2),
    "family-negative-size": (parse_family_file, "-1 0 0\n", 1),
    "graph-directed-negative": (parse_graph_file, "directed -2 0\n", 1),
    "graph-triples-negative": (parse_graph_file, "triples -1 2 2 0\n", 1),
    "graph-header": (parse_graph_file, "directed 3\n", 1),
    "graph-directed-sides": (parse_graph_file, "directed 3 1 1 2\n1 2\n", 1),
    "graph-sides-not-n": (parse_graph_file, "undirected 3 1 7 9\n1 2\n", 1),
    "graph-edge": (parse_graph_file, "# a comment\ndirected 3 1\n\n1\n", 4),
    "graph-triple": (parse_graph_file, "triples 2 2 2 1\n1 1\n", 2),
    "graph-vertex-out-of-range": (parse_graph_file, "undirected 3 2\n1 2\n2 4\n", 3),
    "family-element-out-of-range": (parse_family_file, "3 2 2\n1 2\n3 4\n", 3),
    "circuit-const-value": (parse, "circuit v1\nfield p=7\nconst 0 zz\nout 0\n", 3),
    "circuit-const-too-wide": (parse, "circuit v1\nfield gf2 w=8\nconst 0 0x100\nout 0\n",
                               3),
    "circuit-add-no-argument": (parse, "circuit v1\nfield p=7\nadd 5\nout 0\n", 3),
    "rankdec-matrix-before-field": (parse_decomposition,
                                    "rankdec v1\nr=1\nxside:\n{0}\nU:\n1\nfield p=7\n", 6),
    # a missing record is named by the last content line, a surplus one by
    # its own line
    "family-missing-member": (parse_family_file, "3 2 2\n1 2\n", 2),
    "family-surplus-member": (parse_family_file, "3 1 1\n1\n2\n", 3),
    "matrix-missing-row": (parse_matrix, "2\n1 2\n", 2),
    "matrix-surplus-row": (parse_matrix, "1\n1\n2\n", 3),
    # the lower row of the first pair that differs
    "matrix-asymmetric": (parse_symmetric_matrix, "2\n1 2\n3 4\n", 3),
    "matrix-asymmetric-third-row": (parse_symmetric_matrix,
                                    "3\n0 1 2\n1 0 3\n# c\n2 4 0\n", 5),
    "graph-directed-missing-edge": (parse_graph_file, "directed 3 2\n1 2\n", 2),
    "graph-directed-surplus-edge": (parse_graph_file, "directed 3 1\n1 2\n2 3\n", 3),
    "graph-undirected-missing-edge": (parse_graph_file, "undirected 3 2\n1 2\n", 2),
    "graph-triples-missing-triple": (parse_graph_file, "triples 1 1 1 2\n1 1 1\n", 2),
    "circuit-missing-field": (parse, "circuit v1\nout\n# no field\n", 2),
    "circuit-missing-out": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\n\n", 3),
    "rankdec-missing-rank": (parse_decomposition, "rankdec v1\nfield p=7\n# no rank\n", 2),
    "rankdec-missing-row": (parse_decomposition,
                            "rankdec v1\nfield p=7\nr=1\nxside:\n{0}\n{1}\nU:\n1\n", 8),
    "rankdec-surplus-row": (parse_decomposition,
                            "rankdec v1\nfield p=7\nr=1\nxside:\n{0}\nU:\n1\n0\n", 8),
    # a row of the wrong width is named by its own line
    "rankdec-row-width": (parse_decomposition,
                          "rankdec v1\nfield p=7\nr=1\nxside:\n{0}\nU:\n1 0\nV:\n", 7),
    "circuit-header": (parse, "# a comment\n\ncircuit v2\nfield p=7\nout\n", 3),
    "circuit-field-not-prime": (parse, "circuit v1\nfield p=4\nout\n", 2),
    "circuit-field-unknown": (parse, "circuit v1\n# c\nfield q=7\nout\n", 3),
    "circuit-out-id": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nout x\n", 4),
    "circuit-gate-before-field": (parse, "circuit v1\nin 0 x:{1}\nfield p=7\nout 0\n", 2),
    "circuit-gate-id": (parse, "circuit v1\nfield p=7\nin a x:{1}\nout\n", 3),
    "circuit-gate-out-of-order": (parse, "circuit v1\nfield p=7\nin 1 x:{1}\nout\n", 3),
    "circuit-argument-id": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nadd 1 0 y\nout\n", 4),
    "circuit-mul-unary": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nmul 1 0\nout\n", 4),
    "circuit-argument-not-before": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nadd 1 0 1\n"
                                           "out\n", 4),
    "circuit-unknown-kind": (parse, "circuit v1\nfield p=7\nneg 0 1\nout\n", 3),
    "matrix-row-width": (parse_matrix, "2\n1 2\n3\n", 3),
    "graph-triple-out-of-range": (parse_graph_file, "triples 1 1 1 1\n1 1 2\n", 2),
    "graph-kind": (parse_graph_file, "# c\nweighted 3 1\n1 2\n", 2),
    "rankdec-header": (parse_decomposition, "\nrankdec v2\nfield p=7\nr=0\n", 2),
    "rankdec-field": (parse_decomposition, "rankdec v1\nfield p=x\nr=0\n", 2),
    "rankdec-subset-token": (parse_decomposition, "rankdec v1\nfield p=7\nr=0\nxside:\n0\n", 5),
    "rankdec-value": (parse_decomposition,
                      "rankdec v1\nfield p=7\nr=1\nxside:\n{0}\nU:\nzz\n", 7),
    "rankdec-unexpected-content": (parse_decomposition, "rankdec v1\nfield p=7\nrank 1\n", 3),
}


EMPTY_PARSERS = [parse_matrix, parse_graph_file, parse_family_file]
EMPTY_TEXTS = ["", "# only a comment\n\n"]


@pytest.mark.parametrize("parser", EMPTY_PARSERS)
@pytest.mark.parametrize("text", EMPTY_TEXTS)
def test_empty_input_raises_parse_error(parser, text):
    with pytest.raises(ParseError, match="^empty "):
        parser(text)


@pytest.mark.parametrize("parser", [parse, parse_decomposition])
@pytest.mark.parametrize("text", EMPTY_TEXTS)
def test_empty_headed_input_raises_parse_error_without_line(parser, text):
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert exc.value.line is None


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_parse_error_with_line(case):
    parser, text, line = MALFORMED[case]
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert exc.value.line == line


def parse_error_sites() -> list:
    """(path, line) of every `raise ParseError` statement in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ParseError":
                    sites.append((str(path), node.lineno))
    return sites


def test_every_parse_error_site_runs_under_the_fixed_cases():
    # a raise that no MALFORMED row or empty input reaches is a parser
    # branch whose message and line nothing checks
    package = str(PACKAGE)
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(package) else None

    cases = [(parser, text) for parser, text, _ in MALFORMED.values()]
    cases += [(parser, text) for parser in EMPTY_PARSERS for text in EMPTY_TEXTS]
    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for parser, text in cases:
            with pytest.raises(ParseError):
                parser(text)
    finally:
        sys.settrace(previous)
    sites = parse_error_sites()
    assert len(sites) > 20
    assert [site for site in sites if site not in ran] == []


# one valid text per input format; the graph format has three kinds
VALID = {
    "circuit": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nconst 1 3\nadd 2 0 1\n"
                       "mul 3 2 0\nout 3\n"),
    "rankdec": (parse_decomposition,
                write_decomposition(trivial_decomposition(generate_P(1, field=F7)))),
    # records split on any whitespace, as in the circuit format: the field,
    # ground and row records tab-separated
    "rankdec-tabs": (parse_decomposition,
                     write_decomposition(trivial_decomposition(generate_P(1, field=F7)))
                     .replace(" ", "\t")),
    "matrix": (parse_matrix, "# 2 x 2\n2\n1 2\n3 4\n"),
    "family": (parse_family_file, "3 2 2\n1 2\n2 3\n"),
    "graph-directed": (parse_graph_file, "directed 3 2\n1 2\n2 3\n"),
    "graph-undirected": (parse_graph_file, "undirected 4 2 2 2\n1 3\n2 4\n"),
    "graph-triples": (parse_graph_file, "triples 2 2 2 1\n1 2 1\n"),
}

# characters the formats use, so that edits often keep a line almost valid
ALPHABET = "0123456789-+/{},:=#^ \nxyzUVWabdefgilmnoprstuvw"


@st.composite
def mutations(draw, text):
    """The text after one to four edits, each replacing a span of up to
    three characters with up to three characters of ALPHABET."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.text(ALPHABET, max_size=3)) + text[j:]
    return text


@pytest.mark.parametrize("case", sorted(VALID))
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_mutated_input_parses_or_raises_parse_error(case, data):
    # every parser names a line in every error on a file with a content line
    parser, text = VALID[case]
    parser(text)
    mutated = data.draw(mutations(text))
    try:
        parser(mutated)
    except ParseError as exc:
        if content_lines(mutated):
            assert exc.line is not None
