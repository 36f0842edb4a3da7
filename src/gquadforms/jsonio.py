"""JSON file formats (documented in docs/formats.md).

Textual scalar encodings: polynomials as `t^2+2*t+1` (or `c0 + c1*t + ...`),
rational functions as `num/den`, places as the monic irreducible polynomial
string or the literal `inf`.
"""

import json

from .errors import InputError
from .funcfield import RatFunc, require_odd_prime
from .grpalg import GModule, GroupSpec
from .linalg import Mat
from .quadform import QuadForm


def parse_ratfunc(p, text):
    try:
        return RatFunc.from_string(p, text)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational function {text!r}: {exc}") from exc


def _require_keys(data, keys, what):
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise InputError(f"{what} JSON misses '{key}'")


def _int_from_json(data, key):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"'{key}' must be an integer, got {value!r}")
    return value


def _prime_from_json(data):
    """The odd prime under the key "p"; InputError otherwise."""
    p = _int_from_json(data, "p")
    try:
        require_odd_prime(p)
    except ValueError as exc:
        raise InputError(f"'p' must be an odd prime, got {p!r}") from exc
    return p


def mat_from_json(p, rows):
    """Matrix from a nonempty list of equal-length lists of strings."""
    if not (
        isinstance(rows, list)
        and rows
        and isinstance(rows[0], list)
        and rows[0]
        and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
        and all(isinstance(e, str) for row in rows for e in row)
    ):
        raise InputError("matrix must be a nonempty list of equal-length lists of strings")
    return Mat(p, [[parse_ratfunc(p, e) for e in row] for row in rows])


def quadform_from_json(data):
    """{"p": int, "gram": [[str, ...], ...]}"""
    _require_keys(data, ("p", "gram"), "quadratic form")
    p = _prime_from_json(data)
    gram = mat_from_json(p, data["gram"])
    if gram.nrows != gram.ncols:
        raise InputError("Gram matrix must be square")
    try:
        return QuadForm(gram)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def gmodule_from_json(data):
    """{"p": int, "generators": [names], "dim": n, "action": {name: rows}}"""
    _require_keys(data, ("p", "generators", "dim", "action"), "module")
    p = _prime_from_json(data)
    gens, dim, rows = data["generators"], _int_from_json(data, "dim"), data["action"]
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError("'generators' must be a list of strings")
    if dim < 1:
        raise InputError(f"'dim' must be positive, got {dim}")
    if not isinstance(rows, dict):
        raise InputError("'action' must map each generator name to a matrix")
    action = {}
    for g in gens:
        if g not in rows:
            raise InputError(f"module JSON misses the action of generator {g!r}")
        action[g] = mat_from_json(p, rows[g])
    return GModule(GroupSpec(p, gens), action, dim=dim)


def _path_error(verb, path, exc):
    """An OS error on a user-given path is an input error (CLI exit 2)."""
    return InputError(f"cannot {verb} {path}: {exc.strerror or exc}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _path_error("read", path, exc) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def dump_json(data, path=None):
    """Sorted-key JSON with indent 2: returned as text, or written to path."""
    text = json.dumps(data, sort_keys=True, indent=2)
    if path is None:
        return text
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _path_error("write", path, exc) from exc
    return None
