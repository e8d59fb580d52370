"""Readers of run-directory artifacts that only the tests need."""

import csv
from pathlib import Path


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """(config hash, header, rows) of a CSV that `config.write_csv` stamped."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_hash="):
            raise AssertionError(f"{path}: missing config hash stamp")
        h = first.split("=", 1)[1]
        r = csv.reader(fh)
        header = next(r)
        return h, header, [row for row in r]
