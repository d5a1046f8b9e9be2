"""Framed binary files and the one JSON type rule every reader applies.

A framed file (LWEB batches, MLAB instances) is a 4-byte magic, the
header length as a little-endian u32, the header as sort-keyed JSON with
at least "magic" and "version", then a little-endian payload.  A reader
takes the header alone and then the parts of the payload it needs.  File
headers, sidecars and --config files all pass check_fields, so a damaged
input is a ValueError, never a TypeError or OverflowError further on.
"""

import contextlib
import json
import os
import sys
from typing import Optional

import numpy as np

_PREFIX = 8  # magic plus the u32 header length


def _is_number(v):
    """An int or a float, never a bool, within the range of finite floats."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# kind -> (what a value of that kind must be, the test)
_KINDS = {
    int: ("an int", lambda v: type(v) is int),
    "count": ("a positive int", lambda v: type(v) is int and v >= 1),
    float: ("a finite number", _is_number),
    bool: ("a boolean", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    Optional[int]: ("an int or null", lambda v: v is None or type(v) is int),
    Optional[list]: ("a list of finite numbers or null",
                     lambda v: v is None or type(v) is list and all(map(_is_number, v))),
    "steps": ("a list of [kind, number] pairs",
              lambda v: type(v) is list and all(
                  type(s) is list and len(s) == 2 and _is_number(s[1]) for s in v)),
}


def check_fields(obj, fields, what):
    """ValueError unless obj is a dict holding every key of fields, each of its kind.

    fields maps a key to a kind: int, float (a finite number), bool, str,
    Optional[int], Optional[list] (of finite numbers), "count" (an int
    >= 1) or "steps" (a list of [kind, number] pairs).  Keys not in
    fields are left alone; what names obj in the messages.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = fields.keys() - obj.keys()
    if missing:
        raise ValueError(f"{what} lacks {', '.join(sorted(missing))}")
    for key, kind in fields.items():
        desc, ok = _KINDS[kind]
        if not ok(obj[key]):
            raise ValueError(f"{what} {key} must be {desc}, got {obj[key]!r}")


def decode_json(text):
    """json.loads, with input nested too deeply to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def part_path(path):
    return f"{path}.part"


@contextlib.contextmanager
def part_file(path, mode="w", newline=None):
    """A file opened at part_path(path) that replaces path when the body finishes.

    A failure in the body (a bad input, a full disk) removes the part file and
    leaves path as it was: a failed write neither leaves a part-written
    file nor replaces an earlier one.
    """
    part = part_path(path)
    fh = open(part, mode, newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(part)
        raise
    os.replace(part, path)


def write_json(path, obj):
    """Write obj to path through part_file: sort-keyed JSON, indented by 2, a final newline."""
    with part_file(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def pack(magic, header):
    """The bytes of a framed file that precede its payload."""
    hb = json.dumps(header, sort_keys=True).encode()
    return magic + len(hb).to_bytes(4, "little") + hb


def read_header(path, magic, version, fields):
    """(header, payload offset, payload length) of the framed file at path.

    Reads the prefix and the header alone.  The header must carry this
    magic and version and pass check_fields with fields; the caller checks
    the payload length and reads the payload with read_array.
    """
    name = magic.decode()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX)
        if len(prefix) < _PREFIX or prefix[:4] != magic:
            raise ValueError(f"not a {name} file (bad magic)")
        start = _PREFIX + int.from_bytes(prefix[4:], "little")
        if size < start:
            raise ValueError(f"{name} file is shorter than its header")
        header = decode_json(fh.read(start - _PREFIX))
    check_fields(header, {"magic": str, "version": int, **fields}, f"{name} header")
    if header["magic"] != name:
        raise ValueError(f"{name} header magic is {header['magic']!r}")
    if header["version"] != version:
        raise ValueError(f"unsupported {name} version {header['version']}")
    return header, start, size - start


def read_array(path, dtype, count, offset):
    """count items of dtype read from path at byte offset into a fresh array."""
    a = np.fromfile(path, dtype=dtype, count=count, offset=offset)
    if len(a) != count:
        raise ValueError(f"{path} changed size while being read")
    return a
