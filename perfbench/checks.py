"""Output digests: what a command's outputs are compared on.

A CSV table is compared byte for byte.  A JSON report is compared on the
numeric (and boolean) leaves of everything except its ``config`` echo, at
the key paths recorded from the reference commit; keys added later are
ignored, so extra provenance in a report is not a mismatch.
"""

from __future__ import annotations

import hashlib
import json


def _hash(data):
    return hashlib.sha256(data).hexdigest()[:32]


def _numeric_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _numeric_paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _numeric_paths(item, prefix + (i,))
    elif isinstance(obj, (int, float)):  # bool is an int
        yield "/".join(map(str, prefix))


def _section(file):
    obj = json.loads(file.read_text())
    return {k: v for k, v in obj.items() if k != "config"}


def _leaf(obj, path):
    for key in path.split("/"):
        obj = obj[int(key)] if isinstance(obj, list) else obj[key]
    return obj


def record_fields(outdir):
    """Output files of ``outdir``, each JSON with the ``/``-joined key paths
    of its numeric leaves."""
    return {
        f.name: list(_numeric_paths(_section(f))) if f.suffix == ".json" else None
        for f in sorted(outdir.iterdir())
    }


def digests(outdir, fields):
    """Digest of each output named in ``fields``; a file or key that is
    missing gives a digest that starts with ``missing``."""
    out = {}
    for name, paths in fields.items():
        file = outdir / name
        if not file.is_file():
            out[name] = "missing file"
        elif paths is None:
            out[name] = _hash(file.read_bytes())
        else:
            section = _section(file)
            try:
                values = [_leaf(section, p) for p in paths]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                out[name] = f"missing key {exc}"
                continue
            out[name] = _hash(json.dumps(values).encode())
    return out


def mismatches(got, expected, what):
    return [f"{name} differs from {what}" for name in expected
            if got.get(name) != expected[name]]
