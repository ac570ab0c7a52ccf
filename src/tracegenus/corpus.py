"""Corpus files: minimal CSV with one `label,polynomial` record per line.

Lines whose first non-blank character is `#` are comments. A header row is
tolerated: if the first data row's second column does not parse as a
polynomial, that row is dropped as a header (only the first row gets this
treatment; later unparseable rows surface as per-record errors downstream).
"""

import csv
import io
from typing import NamedTuple

from .errors import ParseError
from .polys import parse_poly


class CorpusRecord(NamedTuple):
    label: str
    text: str  # polynomial source text, parsed later so scan can collect errors


def read_corpus(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


def parse_corpus(text):
    rows = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        rows.append(raw)
    records = []
    reader = csv.reader(io.StringIO("\n".join(rows)))
    for i, row in enumerate(reader):
        if len(row) < 2:
            raise ParseError(
                "corpus row %d needs `label,polynomial`, got %r" % (i + 1, ",".join(row))
            )
        label = row[0].strip()
        poly_text = ",".join(row[1:]).strip()
        if i == 0:
            try:
                parse_poly(poly_text)
            except ParseError:
                continue  # header row
        records.append(CorpusRecord(label=label, text=poly_text))
    return records
