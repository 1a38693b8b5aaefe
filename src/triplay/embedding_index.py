"""Exact cosine-similarity store over an image corpus, with manifest I/O.

The index is a flat scan: every query is scored against every record, so
results are exact. Only the best k are ordered: partial selection finds each
query's k-th best score, every record scoring at or above it (ties on that
boundary included) becomes a candidate, and only the candidates are
stable-sorted. Ties are broken by ascending record id, which keeps retrieval
deterministic and equal to a full stable sort of all scores.

retrieve(q, k) is the first k entries of retrieve(q, k2) for k <= k2, bit for
bit. A batched score can differ from the single-query score in the last bit
(gemm and gemv round differently), so the engine retrieves each query alone.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, ManifestError, ZeroVector


@dataclass(eq=False)
class ImageRecord:
    """One environment image: identity, embedding, domain label, locator."""

    id: str
    embedding: np.ndarray
    category: str
    uri: str = ""
    source: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)


@dataclass
class IndexManifest:
    dimension: int
    records: list[ImageRecord]
    checksum: str = ""


def _record_line(rec: ImageRecord) -> str:
    row = {
        "id": rec.id,
        "category": rec.category,
        "uri": rec.uri,
        "source": rec.source,
        "embedding": [float(x) for x in rec.embedding],
    }
    if rec.meta:
        row["meta"] = rec.meta
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _lines_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def manifest_checksum(records: list[ImageRecord]) -> str:
    return _lines_digest(_record_line(rec) for rec in sorted(records, key=lambda r: r.id))


def save_manifest(manifest: IndexManifest, path: str | Path) -> None:
    """Write header line {dimension, count, checksum} plus one JSON record per line."""
    path = Path(path)
    records = sorted(manifest.records, key=lambda r: r.id)
    header = {
        "dimension": manifest.dimension,
        "count": len(records),
        "checksum": manifest_checksum(records),
    }
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for rec in records:
            fh.write(_record_line(rec) + "\n")
    tmp.replace(path)


def _json_line(path: Path, lineno: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{lineno}: not valid JSON: {exc}") from None


def _json_lines(path: str | Path):
    """(line number, parsed value) for each non-blank line of a JSON-lines
    file; a line that is not JSON raises ManifestError naming file and line."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, _json_line(path, lineno, line)


_NUMBER_TYPES = frozenset((int, float))


def _embedding(path: Path, lineno: int, value) -> np.ndarray:
    # JSON true and false are not numbers, although Python counts a bool as an int.
    if not isinstance(value, list) or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise ManifestError(f"{path}:{lineno}: the embedding is not a list of numbers")
    return np.asarray(value, dtype=np.float64)


def _record(path: Path, lineno: int, line: str) -> ImageRecord:
    row = _json_line(path, lineno, line)
    if not isinstance(row, dict) or not isinstance(row.get("id"), str) or "embedding" not in row:
        raise ManifestError(f"{path}:{lineno}: a record needs a string id and an embedding")
    return ImageRecord(
        id=row["id"],
        embedding=_embedding(path, lineno, row["embedding"]),
        category=row.get("category", ""),
        uri=row.get("uri", ""),
        source=row.get("source", ""),
        meta=row.get("meta", {}),
    )


def load_manifest(path: str | Path) -> IndexManifest:
    """Read a manifest that save_manifest wrote. A line that is not JSON, a
    header dimension below 1, a record without a string id or an embedding,
    and an embedding that is not a list of numbers raise ManifestError naming
    the file (and the line, for a record).

    The checksum is first taken over the record lines as read, in id order:
    for a file save_manifest wrote, those are the lines manifest_checksum
    hashes. Only when that misses the header's checksum (a file written some
    other way) are the records re-serialized to compare."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    header = _json_line(path, *lines[0])
    if not isinstance(header, dict) or any(
        type(header.get(key)) is not int for key in ("dimension", "count")
    ):
        raise ManifestError(f"{path}: header must carry an integer dimension and count")
    if header["dimension"] < 1:
        raise ManifestError(f"{path}: header dimension {header['dimension']} is below 1")
    records = [_record(path, n, line) for n, line in lines[1:]]
    if len(records) != header["count"]:
        raise ManifestError(
            f"{path}: header count {header['count']} != {len(records)} records"
        )
    expected = header.get("checksum")
    in_id_order = sorted(zip(records, lines[1:]), key=lambda pair: pair[0].id)
    checksum = _lines_digest(line.rstrip("\n") for _, (_, line) in in_id_order)
    if checksum != expected:
        checksum = manifest_checksum(records)
        if expected and expected != checksum:
            raise ManifestError(f"{path}: checksum mismatch")
    return IndexManifest(dimension=header["dimension"], records=records, checksum=checksum)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise indices of the k highest scores, best first, ties by ascending
    index: exactly np.argsort(-scores, axis=1, kind="stable")[:, :k]."""
    n = scores.shape[1]
    if k >= n:
        return np.argsort(-scores, axis=1, kind="stable")
    neg = np.negative(scores)
    neg.partition(k - 1, axis=1)
    kth_best = -neg[:, k - 1 : k]
    # Candidates are the entries not below the k-th best score: every tie on
    # that boundary is kept. "Not below" rather than ">=" also keeps NaN
    # scores, which then sort last as they do under argsort.
    flat = np.flatnonzero(~(scores < kth_best))
    rows, cols = np.divmod(flat, n)
    # lexsort is stable and its last key is the primary one, so within a row
    # equal scores keep the ascending index order of flatnonzero.
    order = np.lexsort((-scores.ravel()[flat], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return cols[rank < k].reshape(len(scores), k)


def _norm_problem(norm: float) -> str:
    """Why a vector of this norm does not normalize; only 0 < norm < inf does."""
    return "all-zero embedding" if norm == 0.0 else f"embedding norm is {norm}, not finite"


def _unique(ids: list[str]) -> list[str]:
    if len(set(ids)) != len(ids):
        raise ManifestError("duplicate record ids in manifest")
    return ids


class LazyRecords(Protocol):
    """A corpus held as arrays: row i of embeddings is image ids[i], and
    record(i) builds that image's ImageRecord."""

    ids: list[str]
    embeddings: np.ndarray

    def record(self, i: int) -> ImageRecord: ...


class EmbeddingIndex:
    """Immutable flat index over an IndexManifest or over LazyRecords.

    Both hold the ids in id order, the unit-normalized matrix, and one record
    slot per row. A manifest's records fill their slots up front. LazyRecords
    fill a slot the first time get, retrieve or records returns it, and only
    once: a lock around the fill keeps one record per id, so the index is
    safe for concurrent reads either way."""

    def __init__(self, corpus: IndexManifest | LazyRecords):
        if isinstance(corpus, IndexManifest):
            records = sorted(corpus.records, key=lambda r: r.id)
            ids = _unique([r.id for r in records])
            for rec in records:
                if rec.embedding.shape != (corpus.dimension,):
                    raise DimensionMismatch(
                        f"record {rec.id}: embedding has dimension "
                        f"{rec.embedding.shape[0]}, index expects {corpus.dimension}"
                    )
            rows = [r.embedding for r in records] or [np.zeros(0)]
            matrix = np.concatenate(rows).reshape(len(records), corpus.dimension)
            self.dimension = corpus.dimension
            self._slots: list[ImageRecord | None] = records
        else:
            order = sorted(range(len(corpus.ids)), key=corpus.ids.__getitem__)
            ids = _unique([corpus.ids[i] for i in order])
            matrix = corpus.embeddings[order]
            self.dimension = matrix.shape[1]
            self._slots = [None] * len(ids)
            self._build = lambda row: corpus.record(order[row])
        norms = np.linalg.norm(matrix, axis=1)
        # JSON parses NaN and Infinity, and a vector holding one scores NaN.
        unnormalizable = ~((norms > 0.0) & (norms < np.inf))
        if unnormalizable.any():
            i = int(np.argmax(unnormalizable))
            raise ZeroVector(f"record {ids[i]}: {_norm_problem(norms[i])}")
        matrix /= norms[:, np.newaxis]
        self._matrix = matrix
        self._rows = dict(zip(ids, range(len(ids))))
        self._fill_lock = threading.Lock()

    def _record(self, row: int) -> ImageRecord:
        record = self._slots[row]
        if record is None:
            with self._fill_lock:
                record = self._slots[row] = self._slots[row] or self._build(row)
        return record

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def records(self) -> list[ImageRecord]:
        return [self._record(row) for row in range(len(self._slots))]

    def get(self, record_id: str) -> ImageRecord:
        """The record of an id; an id the index lacks raises ManifestError."""
        try:
            row = self._rows[record_id]
        except KeyError:
            raise ManifestError(f"no image {record_id!r} in the index") from None
        return self._record(row)

    def normalize_query(self, query) -> np.ndarray:
        """The query as a unit vector; a wrong dimension or a norm outside
        (0, inf) raises."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dimension,):
            raise DimensionMismatch(
                f"query has dimension {q.shape}, index expects ({self.dimension},)"
            )
        norm = float(np.linalg.norm(q))
        if not 0.0 < norm < np.inf:
            raise ZeroVector(f"query: {_norm_problem(norm)}")
        return q / norm

    def retrieve(self, query, k: int) -> list[tuple[ImageRecord, float]]:
        """Top-k records by descending cosine similarity, ties by ascending id."""
        return self.retrieve_batch([query], k)[0]

    def retrieve_batch(
        self, queries, k: int, chunk: int = 512
    ) -> list[list[tuple[ImageRecord, float]]]:
        """retrieve() for many queries at once; results align with input order."""
        if not self._slots:
            raise EmptyIndex("cannot retrieve from an empty index")
        if k < 1:
            raise ValueError("k must be >= 1")
        out: list[list[tuple[ImageRecord, float]]] = []
        queries = list(queries)
        for start in range(0, len(queries), chunk):
            block = np.stack(
                [self.normalize_query(q) for q in queries[start : start + chunk]]
            )
            scores = block @ self._matrix.T
            for row, picks in enumerate(_top_k(scores, k)):
                out.append([(self._record(i), float(scores[row, i])) for i in picks])
        return out
