"""Corpus files: minimal CSV with one `label,polynomial` record per line.

Lines whose first non-blank character is `#` are comments. A header row is
tolerated: the first data row is dropped as a header when its polynomial
column holds no ASCII digit and does not parse, as `label,polynomial` does.
A first row that names numbers stays a record even if it does not parse (a
degree above the limit, a number split by a space), and so does every later
row: scan reports them as failed records.
"""

import csv
import io
import re
from typing import NamedTuple

from .errors import ParseError
from .polys import parse_poly


class CorpusRecord(NamedTuple):
    label: str
    text: str  # polynomial source text, parsed later so scan can collect errors


def read_corpus(path):
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
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
        if i == 0 and not re.search("[0-9]", poly_text):
            try:
                parse_poly(poly_text)
            except ParseError:
                continue  # header row
        records.append(CorpusRecord(label=label, text=poly_text))
    return records
