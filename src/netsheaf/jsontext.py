"""JSON text, byte for byte as ``json.dumps(value, indent=2)`` writes it,
built as a list of parts, with nodes that render themselves: a report's
large maps are templates filled with labels encoded once, not dicts."""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Sequence


class Rendered:
    """A JSON value that renders itself: ``render(depth, out)`` appends to
    out the text that ``json.dumps(indent=2)`` writes for it at that depth."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


_CONTAINERS = (dict, list, tuple, Rendered)


def json_parts(value, depth: int = 0) -> list[str]:
    """``json.dumps(value, indent=2)``, byte for byte, as a list of parts, or
    the text it writes for value nested at `depth`; a `Rendered` value
    appends its own.  Each container whose members are all scalars is
    encoded in one call to the C encoder (the pure-Python one with the same
    separators where there is none), whose item separator carries the
    newline and indent; only containers holding containers are walked."""
    encoders: dict[int, object] = {}

    def encoder(depth: int):
        if depth not in encoders:
            item = ",\n" + "  " * depth
            encoders[depth] = c_make_encoder(
                None, _unserializable, encode_basestring_ascii, None,
                ": ", item, False, False, True,
            ) if c_make_encoder else json.JSONEncoder(separators=(item, ": ")).iterencode
        return encoders[depth]

    def encode(value, depth: int, out: list) -> None:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))):
            if isinstance(value, Rendered):
                value.render(depth, out)
            else:
                out.extend(encoder(depth)(value, 0))
            return
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        members = value.values() if is_dict else value
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if not any(isinstance(m, _CONTAINERS) for m in members):
            text = "".join(encoder(depth + 1)(value, 0))
            out += (text[0], inner, text[1:-1], outer, text[-1])
            return
        out.append("{" if is_dict else "[")
        for k, (key, member) in enumerate(zip(value, members)):
            out += ("," if k else "", inner)
            if is_dict:
                out += (_json_key(key), ": ")
            encode(member, depth + 1, out)
        out += (outer, "}" if is_dict else "]")

    out: list[str] = []
    encode(value, depth, out)
    return out


def rendered_object(keys: Sequence[str], values: Sequence, choice: Sequence[int]) -> Rendered:
    """The JSON object whose k-th member is keys[k]: values[choice[k]], in
    order.  The keys come encoded (``encode_basestring_ascii``), so a label
    shared by several objects is encoded once; each value chosen is encoded
    once per render."""

    def render(depth: int, out: list) -> None:
        if not keys:
            out.append("{}")
            return
        member = ",\n" + "  " * (depth + 1)
        texts = {i: ": " + "".join(json_parts(values[i], depth + 1)) for i in set(choice)}
        first = len(out)
        out.extend([member + key + texts[i] for key, i in zip(keys, choice)])
        out[first] = "{" + out[first][1:]
        out.append("\n" + "  " * depth + "}")

    return Rendered(render)


def _json_key(key) -> str:
    """A dict key as ``json`` writes it: str as is; float, bool, None and int
    coerced to their JSON text; anything else refused."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float) or key is True or key is False or key is None:
        key = json.dumps(key)
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _unserializable(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
