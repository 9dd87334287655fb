"""A results CSV without its wall-time column: the part of a run that a
rerun must reproduce byte for byte."""

import csv
import io


def rows_without_timing(csv_text: str) -> str:
    """Strip the wall-time column; the rest must reproduce byte-for-byte."""
    out = io.StringIO()
    writer = csv.writer(out)
    for rec in csv.reader(io.StringIO(csv_text)):
        writer.writerow(rec[:-1])
    return out.getvalue()
