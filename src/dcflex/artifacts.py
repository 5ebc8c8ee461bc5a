"""The file layer every command shares, with no numpy: JSON input, output
directories with their manifest, the errors ``cli.main`` maps to exit
codes, and the names the command line offers as choices.

``read_json`` is the one JSON decoder and ``write_artifacts`` the one
writer of every command's output directory and its manifest. Because this
module imports only the standard library, ``dcflex.cli`` can parse a
command line, catch every documented error and run ``report`` without
importing numpy or any solver.
"""

import hashlib
import json
import math
import shutil
from pathlib import Path

MANIFEST = "manifest.json"

SHIFTING_MODES = ("none", "spatial", "temporal", "joint")
STRATEGIES = ("decoupled", "independent", "cooperative")
SIGNAL_MODELS = ("direct_gaussian", "envelope")


class InfeasibleModel(RuntimeError):
    """Solve came back infeasible; carries a per-family violation report."""

    def __init__(self, message, family_report=None):
        super().__init__(message)
        self.family_report = family_report or {}


class SolverError(RuntimeError):
    """A solver ended with neither a proven optimum nor a proof of infeasibility."""


def sha256_file(path) -> str:
    """Hex sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(directory) -> dict:
    """A directory's manifest: file name (relative to it) -> sha256."""
    def entries(doc: dict) -> dict:
        wrong = [name for name, digest in doc.items() if not isinstance(digest, str)]
        if wrong:
            raise ValueError(f"{wrong[0]} must map to a sha256 string, got {doc[wrong[0]]!r}")
        return doc
    return read_json(Path(directory) / MANIFEST, entries)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_artifacts(out_dir, files: dict) -> list[Path]:
    """Create ``out_dir``, write ``files`` (file name -> content) into it
    and record their sha256 in its manifest, keeping the entries of other
    files; returns the paths written.

    A content is a text, a callable that writes the file at the path it
    is given (for files written as a stream), or else a JSON document,
    written with indent 2, sorted keys and a final newline. If a write
    fails and this call created ``out_dir``, it removes the directory.
    """
    out = Path(out_dir)
    # Read first: a manifest that cannot be read fails before any write.
    manifest = read_manifest(out) if (out / MANIFEST).exists() else {}
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, content in files.items():
            if callable(content):
                content(out / name)
            else:
                text = content if isinstance(content, str) else _json_text(content)
                (out / name).write_text(text, encoding="utf-8", newline="")
        manifest.update((name, sha256_file(out / name)) for name in files)
        (out / MANIFEST).write_text(_json_text(manifest), encoding="utf-8")
    except Exception:
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise
    return [out / name for name in files]


def _non_finite(node, where: str = "") -> str | None:
    """Location of the first non-finite number in a parsed JSON value, as
    ``key[index].key``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else where
    if isinstance(node, dict):
        children = ((f"{where}.{key}" if where else key, v) for key, v in node.items())
    elif isinstance(node, list):
        children = ((f"{where}[{k}]", v) for k, v in enumerate(node))
    else:
        return None
    return next(filter(None, (_non_finite(v, w) for w, v in children)), None)


def read_json(path, parse=None):
    """The JSON object in file ``path``, or what ``parse`` makes of it; the
    one JSON decoder. Invalid JSON, a top level that is not an object, a
    NaN or infinity (named by its field), and a KeyError, IndexError,
    TypeError or ValueError from ``parse`` raise one ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        where = _non_finite(doc)
        if where is not None:
            raise ValueError(f"{where} must be finite")
        return parse(doc) if parse else doc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
