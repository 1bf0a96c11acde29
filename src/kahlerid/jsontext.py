"""JSON text of reports and tables, as `json.dumps(obj, indent=2)` writes it.

json.dumps takes its pure-Python encoder whenever it indents.  `json_text`
makes the same bytes from the C string encoder: each member's prefix (its
separator, indent and key) is built once per key tuple and depth, so a
container of scalars, such as a report entry, is one string join.
"""
from __future__ import annotations

import functools
import json
import math


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the JSON text of a scalar, by its exact type, as json.dumps writes it
_JSON_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                 float: _json_float, bool: lambda x: "true" if x else "false",
                 type(None): lambda x: "null"}


def json_text(obj) -> str:
    """json.dumps(obj, indent=2) + "\n", byte for byte, dict keys being
    strings."""
    return _json(obj, "\n") + "\n"


@functools.lru_cache(maxsize=256)
def _json_prefixes(nl: str, keys) -> tuple[str, ...]:
    """The text before each member of a nonempty dict with these keys, or
    of a list of this many members, whose closing bracket starts line nl."""
    inner = nl + "  "
    if isinstance(keys, int):
        return ("[" + inner,) + ("," + inner,) * (keys - 1)
    return tuple(("," if i else "{") + inner + _JSON_SCALARS[str](k) + ": "
                 for i, k in enumerate(keys))


def _json(obj, nl: str) -> str:
    """obj as indented JSON text, a closing bracket starting line nl."""
    if isinstance(obj, dict):
        prefixes, values, close = _json_prefixes(nl, tuple(obj)), obj.values(), "}"
    elif isinstance(obj, (list, tuple)):
        prefixes, values, close = _json_prefixes(nl, len(obj)), obj, "]"
    else:
        # a scalar of a subclass of its JSON type
        return json.dumps(obj)
    if not obj:
        return "{}" if close == "}" else "[]"
    inner, scalars = nl + "  ", _JSON_SCALARS
    texts = [scalars[type(v)](v) if type(v) in scalars else _json(v, inner) for v in values]
    return "".join(map(str.__add__, prefixes, texts)) + nl + close
