"""Deterministic JSON/CSV emission: 17 significant digits, sorted keys."""

from __future__ import annotations

import numpy as np


def fmt_float(x) -> str:
    x = float(x)
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def json_dumps(obj) -> str:
    """Compact JSON with lexicographic keys and fixed float formatting."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json_dumps(str(k))}:{json_dumps(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)}")


def csv_text(header: list[str], rows) -> str:
    """CSV with mandatory header, comma separator, newline-terminated lines."""
    lines = [",".join(header)] + [",".join(json_dumps(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
