import pytest

from kronscale.circuit import parse
from kronscale.counting import parse_family_file, parse_matrix_file
from kronscale.errors import ParseError
from kronscale.fields import prime_field
from kronscale.matchcon import parse_td_file
from kronscale.sieving import parse_graph_file
from kronscale.steinitz import parse_vector_file
from kronscale.tensor import parse_decomposition

F7 = prime_field(7)


def parse_matrix(text):
    return parse_matrix_file(text, F7)


# (parser, malformed text, line the error must name); blank and comment
# lines count, so the number points into the file as written
MALFORMED = {
    "circuit-second-out": (parse, "circuit v1\nfield p=7\nin 0 x:{1}\nout 0\nout 0\n", 5),
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
    "family-element": (parse_family_file, "2 1 1\na\n", 2),
    "graph-header": (parse_graph_file, "directed 3\n", 1),
    "graph-edge": (parse_graph_file, "# a comment\ndirected 3 1\n\n1\n", 4),
    "graph-triple": (parse_graph_file, "triples 2 2 2 1\n1 1\n", 2),
    "vector-norm": (parse_vector_file, "1 1\n3/2\n", 2),
    "td-bag-id": (parse_td_file, "bag x 0 leaf {}\n", 1),
}


def test_rankdec_shape_mismatch_is_a_parse_error():
    # fewer U rows than x-side entries, then a U row wider than r
    for body in ("xside:\n{0}\n{1}\nU:\n1\n", "xside:\n{0}\nU:\n1 0\n"):
        with pytest.raises(ParseError):
            parse_decomposition("rankdec v1\nfield p=7\nr=1\n" + body)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_parse_error_with_line(case):
    parser, text, line = MALFORMED[case]
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert exc.value.line == line
