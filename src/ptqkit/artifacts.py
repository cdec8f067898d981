"""Artifact files: the one module that turns a document into a file and back.

A write goes to ``<path>.tmp`` and is renamed over ``path``, so a killed
command leaves the previous file or none, never a truncated one.  There is
no fsync: that would guard a power loss, not a killed process.  The readers
raise ConfigError naming a truncated or malformed file (CLI exit code 2).
"""

import contextlib
import hashlib
import json
import os

from .errors import ConfigError


def write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc, indent=None) -> None:
    write_text(path, json.dumps(doc, sort_keys=True, indent=indent) + "\n")


def write_jsonl(path, records) -> None:
    write_text(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def doc_hash(doc) -> str:
    """sha256 of the document's canonical (key-sorted) JSON."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)  # floats round-trip exactly


def write_tsv(path, header, rows, comment: dict = None) -> None:
    """An optional ``# key=value`` line, the header, then one line per row."""
    lines = [] if comment is None else \
        ["# " + "\t".join(f"{k}={_cell(v)}" for k, v in comment.items())]
    lines += ["\t".join(header)] + ["\t".join(map(_cell, row)) for row in rows]
    write_text(path, "".join(line + "\n" for line in lines))


def _read(path, parse):
    try:
        with open(path) as fh:
            return parse(fh.read())
    except ValueError as exc:  # JSON, UTF-8 and field errors, as a cut-short file raises
        raise ConfigError(f"{path} is truncated or malformed: {exc}") from exc


def read_json(path):
    return _read(path, json.loads)


def read_jsonl(path) -> list:
    return _read(path, lambda text: [json.loads(ln) for ln in text.splitlines() if ln.strip()])


def read_tsv(path, columns: dict):
    """``(comment, rows)`` of a :func:`write_tsv` file: ``comment`` maps the keys
    of the ``#`` line to their text, and each row maps every name in ``columns``
    to its field converted by ``columns[name]``.  Other columns are ignored."""
    return _read(path, lambda text: _parse_tsv(text, columns))


def _parse_tsv(text: str, columns: dict):
    lines = [line for line in text.split("\n") if line]
    comment = {}
    if lines and lines[0].startswith("#"):
        comment = dict(tok.strip().partition("=")[::2] for tok in lines.pop(0)[1:].split("\t"))
    header = lines[0].split("\t") if lines else []
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"no header line with the column(s) {', '.join(missing)}")
    rows = []
    for line in lines[1:]:
        fields = line.split("\t", len(header) - 1)  # the last column may hold tabs
        if len(fields) != len(header):
            raise ValueError(f"a row has {len(fields)} of {len(header)} fields: {line!r}")
        row = dict(zip(header, fields))
        rows.append({c: conv(row[c]) for c, conv in columns.items()})
    return comment, rows
