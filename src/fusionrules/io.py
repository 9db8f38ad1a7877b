"""Textual formats: JSON rule/group files and DOT rendering of adjoint graphs.

Rule files store only the nonzero fusion entries (``[i, j, k, multiplicity]``
records), keeping exact integers end to end; dense tensors would be unreadable
at rank 11.
"""

from __future__ import annotations

import json
import re
from itertools import chain

import numpy as np

from .acyclicity import adjoint_graph
from .core import FusionRule, _narrowest_int, _nonzero, default_labels
from .errors import StructuralError
from .groups import FiniteGroup

__all__ = [
    "dump_rule",
    "parse_rule",
    "dump_group",
    "parse_group",
    "dot_graph",
]


def _records(rule: FusionRule) -> np.ndarray:
    return np.column_stack(_nonzero(rule.tensor))  # row-major, the order of the records


def rule_to_dict(rule: FusionRule) -> dict:
    return {
        "rank": rule.rank,
        "labels": list(rule.labels),
        "dual": list(rule.dual),
        "fusion": _records(rule).tolist(),
    }


# One fusion record as ``json.dumps(..., indent=2)`` lays it out at depth 2.
# With ``indent`` set, CPython's json falls back to its pure-Python encoder,
# so the records, nearly all of a rule file, are formatted here in one pass.
_RECORD = "    [\n      %d,\n      %d,\n      %d,\n      %d\n    ]"


def dump_rule(rule: FusionRule) -> str:
    """``json.dumps(rule_to_dict(rule), indent=2) + "\\n"``, byte for byte."""
    head = json.dumps(
        {"rank": rule.rank, "labels": list(rule.labels), "dual": list(rule.dual)}, indent=2
    )
    flat = _records(rule).ravel().tolist()
    body = ",\n".join([_RECORD] * (len(flat) // 4)) % tuple(flat)
    fusion = f"[\n{body}\n  ]" if flat else "[]"
    return f'{head[:-2]},\n  "fusion": {fusion}\n}}\n'  # head[:-2] drops its closing "\n}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StructuralError(message)


_FOUR_INTS = [int] * 4
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _is_plain(record) -> bool:
    return type(record) is list and list(map(type, record)) == _FOUR_INTS


def _leading_rows(records: list) -> np.ndarray:
    """The records before the first one that is not a list of four ``int``s
    within int64, as an int64 ``(n, 4)`` array."""
    stop = next((n for n, rec in enumerate(records) if not _is_plain(rec)
                 or min(rec) < _INT64_MIN or max(rec) > _INT64_MAX), len(records))
    return np.fromiter(chain.from_iterable(records[:stop]), np.int64, 4 * stop).reshape(-1, 4)


def _record_fault(record, rank: int) -> str:
    """Why a fusion record fails, for the first failing record of a file:
    a well-formed, in-range record with a positive multiplicity that fits in
    int64 fails only as a repeat of an earlier record."""
    if not _is_plain(record):
        return f"fusion record {record!r} is not a list of 4 integers"
    i, j, k, mult = record
    if not (0 <= i < rank and 0 <= j < rank and 0 <= k < rank):
        return f"fusion record {record!r} has indices out of range"
    if mult < 1:
        return f"fusion record {record!r} must have multiplicity >= 1"
    if mult > _INT64_MAX:
        return f"fusion record {record!r} has a multiplicity above 2**63 - 1"
    return f"duplicate fusion record for ({i},{j},{k})"


def rule_from_dict(data: dict) -> FusionRule:
    return _rule_from(data, None)


def _rule_from(data: dict, rows: np.ndarray | None) -> FusionRule:
    """``rule_from_dict``; ``rows``, when given, holds the fusion records as
    an int64 ``(n, 4)`` array read from the text, and ``data["fusion"]`` is
    then ``[]``."""
    _require(isinstance(data, dict), "rule document must be a JSON object")
    for key in ("rank", "dual", "fusion"):
        _require(key in data, f"rule document is missing the {key!r} key")
    rank = data["rank"]
    _require(type(rank) is int and rank >= 1, "rank must be a positive integer")
    dual = data["dual"]
    _require(
        isinstance(dual, list) and len(dual) == rank and all(type(d) is int for d in dual),
        f"dual must be a list of {rank} integers",
    )
    labels = data.get("labels")
    if labels is None:
        labels = list(default_labels(rank))
    _require(
        isinstance(labels, list) and len(labels) == rank
        and all(isinstance(x, str) for x in labels),
        f"labels must be a list of {rank} strings",
    )
    records = data["fusion"]
    _require(isinstance(records, list), "fusion must be a list of [i,j,k,mult] records")
    if rows is None:
        rows = _leading_rows(records)  # the shape checks; everything after them works on arrays
    else:
        records = rows
    ijk, mult = rows[:, :3], rows[:, 3]
    in_range = ((ijk >= 0) & (ijk < rank)).all(axis=1)
    keys = np.where(in_range, (ijk[:, 0] * rank + ijk[:, 1]) * rank + ijk[:, 2], -1)
    repeat = np.ones(len(rows), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    bad = np.flatnonzero(~in_range | (mult < 1) | repeat)
    first = int(bad[0]) if bad.size else len(rows)
    if first < len(records):
        record = records[first]
        if isinstance(record, np.ndarray):  # its list has the same repr
            record = record.tolist()
        raise StructuralError(_record_fault(record, rank))
    # only once the records pass, in the narrowest dtype that holds them
    tensor = np.zeros((rank, rank, rank), dtype=_narrowest_int(int(mult.max(initial=0))))
    tensor[ijk[:, 0], ijk[:, 1], ijk[:, 2]] = mult
    tensor.flags.writeable = False  # nothing else holds it, so FusionRule keeps it uncopied
    return FusionRule(labels=tuple(labels), dual=tuple(dual), tensor=tensor)


# The reader below takes the fusion records straight from the text when the
# "fusion" array is the document's last value and holds only records of four
# non-negative decimal integers of at most 18 digits, in JSON's own layout:
# no sign, fraction, exponent or leading zero.  Anything else is read by
# json.loads, so every JSON error and every irregular-record message comes
# from that one path.
_FUSION_KEY = re.compile(r'"fusion"[ \t\n\r]*:[ \t\n\r]*\[')
_JSON_SPACE = " \t\n\r"
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1, so the values cannot wrap


def _split_records(text: str) -> tuple[dict, np.ndarray] | None:
    """The rule document with an empty fusion array, and its fusion records
    as an int64 ``(n, 4)`` array; None when ``text`` is not laid out as the
    reader above accepts."""
    if not isinstance(text, str):
        return None
    key = _FUSION_KEY.search(text)
    # a backslash before the key's quote escapes it into a string
    if key is None or text[key.start() - 1:key.start()] == "\\":
        return None
    start, stop = key.end() - 1, text.rfind("]") + 1
    if stop <= start or text[stop:].strip(_JSON_SPACE) != "}":
        return None
    try:
        head = json.loads(text[:start] + "[]" + text[stop:])
    except json.JSONDecodeError:
        return None
    if not (isinstance(head, dict) and head.get("fusion") == []):
        return None
    rows = _read_rows(text, start, stop - 1)
    return None if rows is None else (head, rows)


# characters of the fusion array read at a time, so that every temporary of a
# large file is about this size rather than a multiple of the whole text
_PIECE = 1 << 16


def _read_rows(text: str, start: int, end: int) -> np.ndarray | None:
    """The fusion array ``text[start:end + 1]``, ``[[i,j,k,m],...]`` with JSON
    whitespace between tokens, as an int64 ``(n, 4)`` array, or None.

    ``text[start]`` is its ``[`` and ``text[end]`` its ``]``.  The records are
    read in pieces of about ``_PIECE`` characters, each cut just after a ``]``,
    so no piece splits a number.  A piece holds the ``[`` of the array or the
    ``,`` after the previous piece's last record, then ``m`` whole records."""
    parts = []
    lo = start
    while lo < end:
        hi = text.find("]", min(lo + _PIECE, end), end) + 1 or end
        piece = text[lo:hi]
        if not piece.isascii():
            return None
        rows = _piece_rows(piece.encode("ascii"), b"[" if lo == start else b",")
        if rows is None:
            return None
        parts.append(rows)
        lo = hi
    return np.concatenate(parts) if parts else np.empty((0, 4), dtype=np.int64)


def _piece_rows(raw: bytes, lead: bytes) -> np.ndarray | None:
    """The records of one piece of ``_read_rows`` as an int64 ``(m, 4)``
    array, or None; ``lead`` is the separator the piece must open with."""
    packed = raw.translate(None, _JSON_SPACE.encode())
    chars = np.frombuffer(packed, dtype=np.uint8)
    seps = np.flatnonzero((chars - ord("0")) >= 10)  # every byte but the digits
    m = len(seps) // 6
    if not m:  # the "[" of the empty array, or whitespace after the last record
        empty = lead if lead == b"[" else b""
        return np.empty((0, 4), dtype=np.int64) if packed == empty else None
    if chars[seps].tobytes() != lead + b"[,,,]," * (m - 1) + b"[,,,]":
        return None
    # per record: the "[" or "," before it, its "[", three ",", "]"
    seps = seps.reshape(m, 6)
    first = seps[:, 1:5] + 1
    width = seps[:, 2:] - first
    if width.min() < 1 or width.max() > _MAX_DIGITS or width.sum() != len(packed) - 6 * m:
        return None  # an empty slot, too many digits, or digits outside the slots
    if ((width > 1) & (chars[first] == ord("0"))).any():  # leading zeros
        return None
    # removing the whitespace must not have joined two numbers, as in "1 2"
    digit = (np.frombuffer(raw, dtype=np.uint8) - ord("0")) < 10
    if np.count_nonzero(digit[1:] > digit[:-1]) != 4 * m:
        return None
    rows = chars[first].astype(np.int64) - ord("0")
    end = first + width
    for p in range(1, int(width.max())):
        rows = np.where(width > p, 10 * rows + chars[np.minimum(first + p, end)] - ord("0"), rows)
    return rows


def parse_rule(text: str) -> FusionRule:
    split = _split_records(text)
    if split is not None:
        return _rule_from(*split)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"rule file is not valid JSON: {exc}") from exc
    return rule_from_dict(data)


def dump_group(group: FiniteGroup) -> str:
    """``json.dumps({"order", "table", "name"}, indent=2) + "\\n"`` with the
    row-major table, byte for byte."""
    table = group.table.ravel().tolist()
    entries = ",\n".join(["    %d"] * len(table)) % tuple(table)
    name = json.dumps(group.name)
    return f'{{\n  "order": {group.order},\n  "table": [\n{entries}\n  ],\n  "name": {name}\n}}\n'


def parse_group(text: str) -> FiniteGroup:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"group file is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), "group document must be a JSON object")
    for key in ("order", "table"):
        _require(key in data, f"group document is missing the {key!r} key")
    order = data["order"]
    _require(type(order) is int and order >= 1, "order must be a positive integer")
    table = data["table"]
    _require(
        isinstance(table, list) and len(table) == order * order
        and all(type(x) is int for x in table),
        f"table must be a row-major list of {order * order} integers",
    )
    name = data.get("name", "G")
    _require(isinstance(name, str), "group name must be a string")
    return FiniteGroup(table=np.array(table, dtype=np.int64).reshape(order, order), name=name)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_graph(rule: FusionRule) -> str:
    """Deterministic DOT document for the adjoint graph: one node per dual
    pair (labelled with its member names), one edge per graph edge annotated
    with its multiplicity."""
    graph = adjoint_graph(rule)
    lines = ["digraph adjoint {"]
    for n, pair in enumerate(graph.vertices):
        name = ",".join(rule.labels[i] for i in pair)
        lines.append(f"  n{n} [label={_quote(name)}];")
    for src, dst, weight in graph.edges:
        lines.append(f"  n{src} -> n{dst} [label={_quote(str(weight))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
