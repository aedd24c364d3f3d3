"""Compact column encoding for the per-event lists of a pickled run.

A finished run's trace and send timeline hold one Python object per event;
pickled as such, each one costs a class reference, a state tuple and a
Python-level rebuild.  Their pickled forms instead store numeric fields as
flat :class:`array.array` columns, which pickle as a single bytes object.
"""

from __future__ import annotations

from array import array
from typing import Union


def pack(values: list, kind: type) -> Union[array, list]:
    """*values* as a compact ``array``, or the list itself.

    The array is used only when every item is exactly of type *kind* —
    ``float`` (stored as doubles) or a non-negative ``int`` (stored in the
    narrowest unsigned code that holds the largest one): iterating it then
    yields equal items of the same type, so the round trip is exact.
    Anything else (a NumPy scalar, a ``bool``, a negative or huge integer)
    keeps the plain list.
    """
    if not set(map(type, values)) <= {kind}:
        return values
    if kind is float:
        return array("d", values)
    if values and min(values) < 0:
        return values
    bits = max(values, default=0).bit_length()
    for typecode in "BHIQ":
        if 8 * array(typecode).itemsize >= bits:
            return array(typecode, values)
    return values
