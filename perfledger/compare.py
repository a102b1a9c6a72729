#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 perfledger/compare.py OLD NEW

OLD and NEW are each a record file, a saved run output, or a directory
of them (``perfledger/.out/`` after a set of runs).  Every
``{"perfledger": ...}`` record found is grouped by workload and by
traced/untraced, and each metric is taken as the median over the
records.  For traced records the per-layer keys (``calls``, ``s``,
``self_s``) are ranked by the absolute change of ``self_s``, then ``s``;
a metric present on one side only is shown against ``-`` and ranked by
the value it has.  Untraced records give the end-to-end deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: (workload, trace flag) -> metric -> values over the records found.
Table = Dict[Tuple[str, int], Dict[str, List[float]]]

_FIELDS = ("calls", "s", "self_s")


def _records_in(text: str) -> Iterable[dict]:
    """A saved record file holds one JSON object; a saved run output holds
    one ``{"perfledger": ...}`` line per run."""
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict):
        yield whole.get("perfledger", whole)
        return
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "perfledger" in obj:
            yield obj["perfledger"]


def load(path: str) -> Table:
    """Records under ``path`` (a file or a directory), as a table."""
    root = Path(path)
    files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
    table: Table = defaultdict(lambda: defaultdict(list))
    for file in files:
        if file.suffix not in (".json", ".txt", ".out"):
            continue
        for record in _records_in(file.read_text(encoding="utf-8")):
            if "workload" not in record or "metrics" not in record:
                continue
            row = table[(record["workload"], int(record.get("trace", 0)))]
            for name, metric in record["metrics"].items():
                row[name].append(float(metric["value"]))
    return table


def _median(values: Optional[List[float]]) -> Optional[float]:
    return statistics.median(values) if values else None


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def _delta(old: Optional[float], new: Optional[float]) -> float:
    return (new or 0.0) - (old or 0.0)


def layer_rows(old: Dict[str, List[float]], new: Dict[str, List[float]]
               ) -> List[Tuple[str, Dict[str, Tuple[Optional[float], Optional[float]]]]]:
    """Per-layer keys with (old, new) medians per field, ranked by the
    absolute change of ``self_s``, then of ``s``, then of ``calls``."""
    grouped: Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]] = defaultdict(dict)
    for name in sorted(set(old) | set(new)):
        key, _, field = name.rpartition(".")
        if field not in _FIELDS or not key:
            key, field = name, "value"
        grouped[key][field] = (_median(old.get(name)), _median(new.get(name)))

    def rank(item: Tuple[str, Dict[str, Tuple[Optional[float], Optional[float]]]]):
        fields = item[1]
        return tuple(-abs(_delta(*fields.get(f, (None, None))))
                     for f in ("self_s", "s", "calls", "value"))

    return sorted(grouped.items(), key=rank)


def render(old: Table, new: Table) -> str:
    lines: List[str] = []
    for workload, trace in sorted(set(old) | set(new)):
        before = old.get((workload, trace), {})
        after = new.get((workload, trace), {})
        kind = "per-layer (traced)" if trace else "end-to-end"
        lines.append(f"== {workload}: {kind}")
        if not before or not after:
            lines.append(f"   only in {'NEW' if not before else 'OLD'}")
        for key, fields in layer_rows(before, after):
            cells = []
            for field, (a, b) in fields.items():
                if a is None or b is None:
                    side = "OLD" if b is None else "NEW"
                    cells.append(f"{field} {_fmt(a)} -> {_fmt(b)} (only in {side})")
                else:
                    cells.append(f"{field} {_fmt(a)} -> {_fmt(b)} ({_delta(a, b):+.4g})")
            lines.append(f"   {key:32s} " + "; ".join(cells))
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    print(render(load(args.old), load(args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
