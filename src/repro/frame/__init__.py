"""Minimal columnar dataframe substrate (pandas substitute).

The paper's analysis pipeline uses Pandas for cleaning, aggregation and
normalization.  This package provides the small relational core the
reproduction actually needs:

- :class:`~repro.frame.table.Table` — an immutable-by-convention columnar
  table backed by NumPy arrays with ``group_by``/``aggregate``,
  ``filter``/``take``, column edits and first-appearance ``codes``,
- :func:`~repro.frame.io.read_csv` / :func:`~repro.frame.io.write_csv` —
  type-inferring CSV round-tripping,
- :mod:`~repro.frame.ops` — aggregation helpers shared by ``Table`` methods,
- :mod:`~repro.frame.columns` — typed columnar record blocks
  (:class:`~repro.frame.columns.RecordBlock`) with string interning and
  zero-copy extend: the packed form sweep batches travel and persist in
  (see ``docs/COLUMNAR.md``).
"""

from repro.frame.table import Table
from repro.frame.io import read_csv, write_csv
from repro.frame.ops import AGGREGATORS, aggregate_column, concat_tables
from repro.frame.columns import ColumnBlock, RecordBlock, StringTable

__all__ = [
    "Table",
    "read_csv",
    "write_csv",
    "AGGREGATORS",
    "aggregate_column",
    "concat_tables",
    "ColumnBlock",
    "RecordBlock",
    "StringTable",
]
