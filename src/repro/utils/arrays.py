"""Bit-exact JSON serialization of numpy arrays.

Checkpoint documents (:mod:`repro.emoo.driver`, :mod:`repro.io`) must restore
optimizer state *bit-for-bit*: a resumed run has to retrace the uninterrupted
run's floating-point trajectory exactly.  Encoding arrays as decimal text is
both lossy-looking (it round-trips, but only via shortest-repr float parsing)
and slow at checkpoint cadence, so arrays are stored as raw little-endian
bytes, base64-encoded inside an ordinary JSON object::

    {"dtype": "<f8", "shape": [40, 10, 10], "data": "zczMzMzM..."}

``encode_array``/``decode_array`` round-trip every dtype this code base uses
(float64 including ``inf``/``nan``/``-0.0``, bool, int64) without touching a
single bit.

Documents that keep readable nested-list floats (the ``optimization_result``
front) use :func:`render_json_floats` instead: it produces exactly the text
``json.dumps(..., indent=...)`` would, at array speed.
"""

from __future__ import annotations

import base64
import math
from typing import Any

import numpy as np

from repro.exceptions import ValidationError


def encode_array(array: np.ndarray) -> dict[str, Any]:
    """Encode an array as a JSON-compatible ``{dtype, shape, data}`` document."""
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ValidationError("object arrays cannot be byte-encoded; use a genome codec")
    # Force a byte-order-explicit dtype string so documents written on a
    # big-endian host (dtype.str "​>f8") still decode correctly everywhere.
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(document: dict[str, Any]) -> np.ndarray:
    """Decode :func:`encode_array` output back into a writable array."""
    try:
        dtype = np.dtype(document["dtype"])
        shape = tuple(int(extent) for extent in document["shape"])
        raw = base64.b64decode(document["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed array document: {exc}") from exc
    if dtype.hasobject:
        raise ValidationError("array documents must hold a plain numeric dtype")
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
    if len(raw) != expected and not (shape and 0 in shape and len(raw) == 0):
        raise ValidationError(
            f"array document carries {len(raw)} bytes for dtype {dtype} shape {shape}"
        )
    # frombuffer returns a read-only view over the bytes object; copy so the
    # restored optimizer state is writable like the state it replaces.
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


#: ``json.dumps`` spellings of the non-finite floats (``allow_nan=True``).
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render_json_floats(stack: np.ndarray, *, indent: int, level: int) -> list[str]:
    """Render each leading slice of a float64 stack as indented JSON text.

    ``render_json_floats(stack, indent=i, level=l)[k]`` is exactly the text
    ``json.dumps`` emits with ``indent=i`` for ``stack[k].tolist()`` nested
    ``l`` levels deep in an enclosing document (``l`` is the indent level of
    the line the list opens on; ``0`` for a top-level value).

    ``float.__repr__`` runs once per distinct value, not once per entry:
    the entries are deduplicated on their **uint64 bit pattern** (never on
    float value, which would merge ``-0.0`` into ``0.0``), rendered, and
    gathered back into place; each innermost row is then joined once with
    the separators of its nesting level.
    """
    stack = np.ascontiguousarray(stack, dtype=np.float64)
    bits, inverse = np.unique(stack.view(np.uint64).ravel(), return_inverse=True)
    texts = [
        _JSON_NON_FINITE.get(text, text)
        for text in map(float.__repr__, bits.view(np.float64).tolist())
    ]
    cells = np.array(texts, dtype=object)[inverse].reshape(stack.shape)
    # Fold the innermost axis into one string per row, outwards until one
    # string per leading slice is left.
    for axis in range(stack.ndim - 1, 0, -1):
        item_indent = "\n" + " " * (indent * (level + axis))
        opening, separator = "[" + item_indent, "," + item_indent
        closing = "\n" + " " * (indent * (level + axis - 1)) + "]"
        rows = cells.reshape(math.prod(stack.shape[:axis]), stack.shape[axis]).tolist()
        folded = np.empty(len(rows), dtype=object)
        folded[:] = [
            opening + separator.join(row) + closing if row else "[]" for row in rows
        ]
        cells = folded.reshape(stack.shape[:axis])
    return cells.tolist()
