"""Seeded inputs for the benchmark: citation corpora.

A corpus is a CSV file in the CLI's ``id,counts`` format.  Each record
holds 5 to 300 integer counts drawn from a Pareto law (a few heavily cited
items, a long lightly cited tail), sorted non-increasingly so that the CLI
ingests them without warnings.  The same seed always writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MIN_COUNTS = 5
MAX_COUNTS = 300


def corpus_records(seed: int, records: int) -> list[list[int]]:
    """Pareto-like citation records, each sorted non-increasingly."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(records):
        n = int(rng.integers(MIN_COUNTS, MAX_COUNTS + 1))
        scale = float(rng.uniform(2.0, 30.0))
        counts = np.floor(scale * rng.pareto(1.6, size=n)).astype(np.int64)
        counts = np.sort(counts)[::-1]
        counts[0] = max(int(counts[0]), 1)  # no identically-zero record
        out.append(counts.tolist())
    return out


def write_corpus(path: Path, seed: int, records: int) -> int:
    """Write the corpus CSV; returns the number of records written."""
    lines = ["id,counts"]
    for i, counts in enumerate(corpus_records(seed, records)):
        lines.append(f"s{i:05d}," + ";".join(str(c) for c in counts))
    path.write_text("\n".join(lines) + "\n")
    return records

