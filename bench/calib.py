"""Calibration: a fixed pure-Python job whose time measures the host's speed.

Usage: python3 calib.py

The job resembles the program's own work: start an interpreter, import a few
standard modules, parse CSV-like text, group rows in dicts, sort and sum
floats. It never changes and does not import the program, so its time moves
only with the host. run.py times it between commands (see speed_ratios there).
"""

import csv
import io
import json

ROWS = 25_000

lines = "\n".join(f"R{i % 1601:06d},P{i * 7919 % 1_000_003:07d},{i % 13},"
                  f"{(i * 2654435761) % 100_003 / 7!r}" for i in range(ROWS))
groups: dict[str, list[tuple[float, int, str]]] = {}
for rid, pid, k, value in csv.reader(io.StringIO(lines)):
    groups.setdefault(rid, []).append((float(value), int(k), pid))
best = {rid: sorted(rows, reverse=True)[:3] for rid, rows in sorted(groups.items())}
print(json.dumps(sum(v * (k + 1) for rows in best.values() for v, k, _ in rows)))
