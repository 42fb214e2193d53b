"""The JSON line ``scan --json`` prints for one scan worker's result.

A worker returns (item, verdict, head, tail); the line is head, the item
encoded with sorted keys, then tail.
"""

import json


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
