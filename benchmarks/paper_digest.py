"""One SHA-256 over every number the paper's tables and figures report.

``python -m pytest benchmarks/bench_*.py`` writes each file's tables to
``.perfbench/paper-<name>.json`` (see ``benchmarks/conftest.py``).  This
script rounds every number in them to 4 decimals, skips the timing columns
(their values change from run to run) and hashes the rest::

    python benchmarks/paper_digest.py [DIR] [--list]

``--list`` prints one ``file | table | row | column = value`` line per
number, so two runs can be compared with ``diff`` to name what moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
from pathlib import Path
from typing import List

#: Column headers of timings and throughputs: measured, not reproduced.
TIMING = re.compile(r"(_s$|seconds|/s\b|\bms\b|time)", re.IGNORECASE)


def paper_numbers(directory: Path) -> List[str]:
    """Every reported non-timing number as a ``where = value`` line."""
    lines = []
    for path in sorted(directory.glob("paper-*.json")):
        payload = json.loads(path.read_text())
        for table_index, table in enumerate(payload["tables"]):
            title = table["title"] or f"table {table_index}"
            headers = table["headers"]
            for row in table["rows"]:
                label = row[0]
                for header, cell in zip(headers, row, strict=True):
                    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                        continue
                    if TIMING.search(header):
                        continue
                    lines.append(f"{payload['name']} | {title} | {label} | {header} = {cell:.4f}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", default=".perfbench", type=Path)
    parser.add_argument("--list", action="store_true", help="print every number")
    args = parser.parse_args()
    lines = paper_numbers(args.directory)
    if not lines:
        raise SystemExit(f"no paper-*.json numbers under {args.directory}")
    if args.list:
        print("\n".join(lines))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"paper digest {digest} over {len(lines)} numbers")


if __name__ == "__main__":
    main()
