"""The JSON line ``scan --json`` prints for one scan worker's result, and its reference.

A worker returns (item, verdict, head, tail); the line is head, the item
encoded with sorted keys, then tail.  ``lascouxbasis._rendered`` writes head
and tail as text; ``reference_record`` builds the record they stand for as a
dict, from its definition.
"""

import json

from orthodontia import lascouxbasis


def scan_line(result) -> str:
    """The record line of ``result``, checked to carry its item and its verdict."""
    item, verdict, head, tail = result
    line = head + json.dumps(item, sort_keys=True) + tail
    record = json.loads(line)
    assert (record["item"], record["verdict"]) == (item, verdict), line
    return line


def scan_record_of(result) -> dict:
    """The record ``scan --json`` prints for ``result``, parsed back."""
    return json.loads(scan_line(result))


def reference_record(item, coeffs: dict) -> dict:
    """The record of an item with expansion sum c_alpha L_alpha: the coefficients in sorted
    alpha order, d0 = the least |alpha| (0 for none), and the verdict, positive when
    sign(c_alpha) = (-1)^(|alpha| - d0) for every c_alpha."""
    d0 = min((sum(alpha) for alpha in coeffs), default=0)
    positive = all((c > 0) == ((sum(alpha) - d0) % 2 == 0) for alpha, c in coeffs.items())
    return {
        "item": item,
        "verdict": "positive" if positive else "violation",
        "expansion": [{"alpha": list(alpha), "c": c} for alpha, c in sorted(coeffs.items())],
        "d0": d0,
    }


def graded_positive(coeffs: dict) -> bool:
    """The verdict the record writer gives an expansion: is it graded positive?"""
    return lascouxbasis._rendered(coeffs)[0] == "positive"
