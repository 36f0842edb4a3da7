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
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse rational function {text!r}: {exc}") from exc


def _prime_from_json(data):
    """The odd prime under the key "p"; InputError otherwise."""
    try:
        p = int(data["p"])
        require_odd_prime(p)
    except (TypeError, ValueError) as exc:
        raise InputError(f"'p' must be an odd prime, got {data['p']!r}") from exc
    return p


def mat_from_json(p, rows):
    if not isinstance(rows, list) or not rows:
        raise InputError("matrix must be a nonempty list of rows")
    return Mat(p, [[parse_ratfunc(p, e) for e in row] for row in rows])


def quadform_from_json(data):
    """{"p": int, "gram": [[str, ...], ...]}"""
    if "p" not in data or "gram" not in data:
        raise InputError("quadratic form JSON needs 'p' and 'gram'")
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
    for key in ("p", "generators", "dim", "action"):
        if key not in data:
            raise InputError(f"module JSON misses '{key}'")
    p = _prime_from_json(data)
    gens = list(data["generators"])
    grp = GroupSpec(p, gens)
    action = {}
    for g in gens:
        if g not in data["action"]:
            raise InputError(f"module JSON misses the action of generator {g!r}")
        action[g] = mat_from_json(p, data["action"][g])
    m = GModule(grp, action)
    if m.dim != int(data["dim"]):
        raise InputError("declared dim does not match the action matrices")
    return m


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def dump_json(data, path=None, indent=2):
    text = json.dumps(data, sort_keys=True, indent=indent)
    if path is None:
        return text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return None
