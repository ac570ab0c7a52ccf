"""Corpus CSV parsing: comments, header tolerance, quoting, error rows."""

import pytest

from tracegenus.corpus import CorpusRecord, parse_corpus, read_corpus
from tracegenus.errors import ParseError
from tracegenus.polys import parse_poly


def test_basic_records():
    records = parse_corpus("a,x^2 - 5\nb,x^3 - 2\n")
    assert records == [
        CorpusRecord(label="a", text="x^2 - 5"),
        CorpusRecord(label="b", text="x^3 - 2"),
    ]


def test_comments_and_blank_lines_are_skipped():
    text = "# corpus of fields\n\n   # indented comment\na,x^2 - 5\n\nb,x^2 + 1\n"
    records = parse_corpus(text)
    assert [r.label for r in records] == ["a", "b"]


def test_header_row_is_dropped():
    records = parse_corpus("label,polynomial\na,x^2 - 5\n")
    assert [r.label for r in records] == ["a"]


@pytest.mark.parametrize("first", ["big,x^10001 + 1", "huge,x^2 + 1 2"])
def test_unparseable_first_row_with_digits_is_a_record(first):
    # refused for a limit or a misread number, not a header
    records = parse_corpus(first + "\ngood,x^2 - 5\n")
    assert [r.label for r in records] == [first.split(",")[0], "good"]
    with pytest.raises(ParseError):
        parse_poly(records[0].text)


def test_header_tolerance_applies_only_to_first_row():
    # a later unparseable polynomial is kept as a record; the caller decides
    # what to do when it fails to parse
    records = parse_corpus("a,x^2 - 5\nbroken,this is not a polynomial\n")
    assert [r.label for r in records] == ["a", "broken"]
    with pytest.raises(ParseError):
        parse_poly(records[1].text)


def test_first_row_kept_when_it_parses():
    records = parse_corpus("first,x^2 + 1\nsecond,x^2 - 5\n")
    assert [r.label for r in records] == ["first", "second"]


def test_quoted_coefficient_csv_column():
    # coefficient lists contain commas, so they arrive CSV-quoted
    records = parse_corpus('klein,"144,0,-41,0,1"\n')
    assert records == [CorpusRecord(label="klein", text="144,0,-41,0,1")]
    assert parse_poly(records[0].text).coeffs == (144, 0, -41, 0, 1)


def test_unquoted_extra_columns_rejoin_as_polynomial_text():
    # an unquoted coefficient list splits into columns; they are rejoined
    records = parse_corpus("klein,144,0,-41,0,1\n")
    assert records[0].text == "144,0,-41,0,1"


def test_too_few_columns_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_corpus("a,x^2 - 5\njust-a-label\n")
    assert "label,polynomial" in str(exc.value)


def test_whitespace_is_trimmed():
    records = parse_corpus("  a  ,  x^2 - 5  \n")
    assert records == [CorpusRecord(label="a", text="x^2 - 5")]


def test_empty_corpus_is_empty():
    assert parse_corpus("# nothing but comments\n") == []
    assert parse_corpus("") == []


def test_read_corpus_matches_parse_corpus(tmp_path):
    text = "# demo\nfoo,x^2 - 5\n"
    path = tmp_path / "fields.csv"
    path.write_text(text)
    assert read_corpus(path) == parse_corpus(text)


def test_shipped_corpus_loads(repo_root):
    records = read_corpus(repo_root / "corpus" / "fields.csv")
    labels = [r.label for r in records]
    assert len(records) == len(set(labels)) == 60
    for r in records:
        parse_poly(r.text)  # every shipped record parses


def test_shipped_pairs_corpus_loads(repo_root):
    records = read_corpus(repo_root / "corpus" / "pairs.csv")
    assert [r.label for r in records] == [
        "klein-quartic-a",
        "klein-quartic-b",
        "sextic-pair-a",
        "sextic-pair-b",
    ]
