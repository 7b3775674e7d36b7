"""`json.dumps(value, indent=2, sort_keys=True)` without loading `json`, whose
import costs a sweep request about as much as the sweep's own work.  Equal
to it for the values the package writes: dicts with str keys, lists,
tuples, str, bool, None, int and float, NaN and the infinities included."""

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b",
            "\f": "\\f"}
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _char(c: str) -> str:
    """One character as `ensure_ascii` writes it: above U+FFFF as a surrogate pair."""
    n = ord(c)
    if n > 0xFFFF:
        return "\\u%04x\\u%04x" % (0xD800 | (n - 0x10000) >> 10, 0xDC00 | n & 0x3FF)
    return _ESCAPES.get(c) or (c if 0x20 <= n < 0x7F else "\\u%04x" % n)


def _string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'  # printable ASCII with nothing to escape
    return '"' + "".join(map(_char, s)) + '"'


def dumps(value, indent: str = "") -> str:
    """`value` as JSON text; `indent` is the prefix of the line it starts on."""
    if isinstance(value, str):
        return _string(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_NAMES.get(text, text)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_string(k) + ": " + dumps(v, inner) for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        items = [dumps(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return opening + closing
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + closing
