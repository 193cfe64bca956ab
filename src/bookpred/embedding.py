"""Sentence embeddings: hashed bag-of-words encoding, the SEMB binary
file format for externally computed vectors, and chunk averaging.

The hashed encoder reads a ``textstats.Tokens`` (the sentences
tokenized once, each word an id in a first-sight vocabulary), hashes
the whole vocabulary at once with one array FNV step per UTF-8 byte
column, and builds no dense sentence row: each word becomes a (sentence,
bucket) key, one sort groups equal keys, their signs add up to one
integer entry per pair, and each sentence's norm comes from its entries.
Sentence rows are the entries scattered into a zeroed matrix. Chunk
averages, of one book or of several sharing a vocabulary, are the
entries over their sentence's norm, added into their chunk's sums by
one scatter, then divided by the chunk sizes.

The bits match ``chunk_average`` of the full matrix. Entries and norms
are exact integers and correctly rounded roots, so entry / norm is the
dense row's element. The scatter adds in key order, sentence by
sentence, as ``chunk_average`` sums a chunk's rows: it averages a run of
equal chunk sizes (balanced sizes take at most two values) as one
``(count, size, dim)`` view over the middle axis, which adds row after
row, as a per-chunk mean does. A zero only the dense row adds changes
no sum.

SEMB layout (little-endian):

    bytes 0..3   magic ``SEMB``
    bytes 4..7   format version, u32 (currently 1)
    bytes 8..11  n_sentences, u32
    bytes 12..15 dim, u32
    then n_sentences * dim IEEE-754 float32 values, row-major

Files are written by ``write_atomically`` (a temp file beside the
target, then a rename), so readers never see a half-written matrix. It
writes every file the package writes: checkpoints, SEMB files, synth's
book texts and the CLI's and ``synth``'s CSVs, whose rows ``csv_lines``
turns into text. A symlink is written through (the rename replaces its
target, and the link stays); a target that exists and is no regular
file, such as a FIFO or a device, is written in place, with no temp file.
"""

from __future__ import annotations

import csv
import itertools
import os
import secrets
import stat
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .textstats import Tokens, book_sizes, tokenize_sentences

__all__ = [
    "SembError",
    "SembBadMagicError",
    "SembVersionError",
    "SembTruncatedError",
    "SembNonFiniteError",
    "encode_hashed_bow",
    "csv_lines",
    "write_atomically",
    "read_text",
    "write_embeddings",
    "load_embeddings",
    "chunk_average",
    "chunk_sizes",
    "book_average",
]

SEMB_MAGIC = b"SEMB"
SEMB_VERSION = 1
_HEADER = struct.Struct("<4sIII")

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211


class SembError(Exception):
    """Base class for SEMB file problems."""


class SembBadMagicError(SembError):
    pass


class SembVersionError(SembError):
    pass


class SembTruncatedError(SembError):
    pass


class SembNonFiniteError(SembError):
    pass


def _hash_vocab(vocab: list[str], seed: int) -> np.ndarray:
    """The seeded 64-bit FNV-1a hash of every token's lowercased UTF-8
    bytes, as a uint64 array: stable across runs and processes, unlike the
    builtin ``hash``; ``tests/text_reference.py`` hashes one token at a time.

    The tokens' UTF-8 bytes are joined, shortest token first, into one
    flat array, so memory grows with the total bytes, not with vocabulary
    size times the longest token. The tokens longer than ``j`` bytes are
    then a suffix, and one FNV step per byte column ``j`` updates their
    hashes; uint64 array products wrap silently."""
    encoded = [token.lower().encode("utf-8") for token in vocab]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    flat = np.frombuffer(b"".join([encoded[i] for i in order.tolist()]), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    start = (_FNV_OFFSET ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    h = np.full(len(encoded), start, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    width = int(lengths[-1]) if len(encoded) else 0
    for j, first in enumerate(np.searchsorted(lengths, np.arange(width), side="right").tolist()):
        longer = h[first:]  # a view: the tokens of more than j bytes
        longer ^= flat[starts[first:] + j]
        longer *= prime
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes


def _chunk_means(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """(len(sizes), dim) float64 means of consecutive chunks of ``rows``
    of the given sizes; a chunk of size 0 is a zero row. Each run of
    equal sizes is averaged by one reduction over a reshaped view."""
    dim = rows.shape[1]
    out = np.zeros((len(sizes), dim))
    chunk = row = 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        if size:
            stop = row + count * size
            out[chunk : chunk + count] = rows[row:stop].reshape(count, size, dim).mean(axis=1)
            row = stop
        chunk += count
    return out


def encode_hashed_bow(
    sentences: list[str] | Tokens,
    dim: int,
    seed: int = 0,
    n_chunks: int | None = None,
    books: list[int] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Signed feature-hashing bag-of-words encoder.

    Each lowercased token hashes to a bucket in ``[0, dim)`` and a sign
    in {-1, +1}; a sentence vector is the sum of its signed one-hot
    token vectors, L2-normalized (an all-zero vector stays zero).
    Deterministic for a fixed seed. ``sentences`` is a list of sentence
    texts or their ``Tokens``. Returns an (n_sentences, dim) array, or
    with ``n_chunks`` exactly ``chunk_average`` of that array; with
    ``books`` too, the sentence counts of consecutive books, which must
    add up to the sentences, each book's in a (len(books), n_chunks, dim)
    array. ``out``, if given, must be a C-contiguous array of that shape
    ((n_sentences, dim) without ``n_chunks``, float64 or float32); the
    result goes into it, and it is returned.

    No dense sentence row is built. A word's key is its (sentence,
    bucket) pair and its sign; sorted, the signs of one pair add up to an
    integer entry, and a sentence's norm is the root of its entries'
    squares, both exact. The chunk sums are one ``np.add.at`` of
    entry / norm, which adds in key order, sentence by sentence, as
    ``chunk_average`` adds the rows, so the bits agree.
    """
    if dim < 8:
        raise ValueError(f"hashed bag-of-words needs dim >= 8, got {dim}")
    tokens = sentences if isinstance(sentences, Tokens) else tokenize_sentences(sentences)
    counts = book_sizes(len(tokens), books)
    n = len(tokens)
    shape = (n, dim) if n_chunks is None else (len(counts), n_chunks, dim)
    if out is not None and (out.shape != shape or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {shape} array, got {out.shape}")
    out = np.empty(shape) if out is None else out
    out[...] = 0.0
    hashes = _hash_vocab(tokens.vocab, seed)
    # A word's key is its pair, sentence * dim + bucket, times 2, plus 1 for
    # a sign of -1; sorted, each pair's words are one run.
    keys = np.repeat(np.arange(0, 2 * dim * n, 2 * dim), tokens.lengths)
    keys += ((((hashes >> 1) % dim) << 1) | (hashes & 1)).astype(np.intp)[tokens.ids]
    keys.sort()
    repeat = np.zeros(len(keys), bool)  # the word before is in the same pair
    np.equal(keys[1:] >> 1, keys[:-1] >> 1, out=repeat[1:])
    firsts, later = np.flatnonzero(~repeat), np.flatnonzero(repeat)
    pairs, entries = keys[firsts] >> 1, 1.0 - 2.0 * (keys[firsts] & 1)
    np.add.at(entries, np.searchsorted(firsts, later) - 1, 1.0 - 2.0 * (keys[later] & 1))
    rows = pairs // dim
    norms = np.sqrt(np.bincount(rows, entries * entries, minlength=n))
    norms[norms == 0.0] = 1.0
    entries /= norms[rows]
    if n_chunks is None:
        out.reshape(-1)[pairs] = entries
        return out

    sizes = np.array([size for count in counts for size in chunk_sizes(count, n_chunks)])
    # A pair's slot, chunk * dim + bucket, is the pair shifted by its row's offset.
    offsets = (np.repeat(np.arange(len(sizes)), sizes) - np.arange(n)) * dim
    np.add.at(out.reshape(-1), pairs + offsets[rows], entries)
    out /= np.maximum(sizes, 1).reshape(shape[:2] + (1,))
    return out[0] if books is None else out


def csv_lines(header: list, rows: Iterable) -> Iterator[bytes]:
    """``header`` and each of ``rows`` as one UTF-8 CSV line, quoted as
    ``csv.writer`` quotes and ended by its ``\\r\\n``; lazily, so the rows
    are made as the lines are written."""
    writer = csv.writer(SimpleNamespace(write=str.encode))  # writerow returns write's bytes
    return map(writer.writerow, itertools.chain([header], rows))


def write_atomically(path: str | Path, parts: Iterable[bytes]) -> None:
    """Write the byte strings ``parts`` to a temp file beside ``path``'s
    target and rename it over the target, so readers see the old file or
    the whole new one; on any exception the temp file is removed. The umask
    sets a new file's mode, and a file that exists keeps its own. A symlink
    is resolved first, so its target is replaced and the link stays. A hard
    link is split: the target gets a new file, and the link's other names
    keep the old bytes, since writing it in place would not be atomic. A
    target that exists and is no regular file (a FIFO, a device) is written
    in place, with no temp file and no rename."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(parts)
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"  # created as open() would: the umask sets its mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if os.path.exists(path):  # a file that exists keeps its mode, as open() keeps it
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str | Path, universal_newlines: bool = False) -> str:
    """``path``'s bytes as UTF-8 text, with ``\\r\\n`` and ``\\r`` read as ``\\n`` if
    ``universal_newlines``. A byte that does not decode is a ``ValueError`` naming
    the file and its line: the newlines before the byte, plus 1."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: cannot decode text as UTF-8 ({exc})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if universal_newlines else text


def write_embeddings(matrix: np.ndarray, path: str | Path) -> None:
    """Write a sentence-embedding matrix as a SEMB file (atomically)."""
    arr = np.ascontiguousarray(matrix, dtype=np.float32)
    if arr.ndim != 2 or not arr.shape[1]:
        raise ValueError(f"embedding matrix must be 2-D with columns, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise SembNonFiniteError("refusing to write non-finite embedding values")
    write_atomically(path, [_HEADER.pack(SEMB_MAGIC, SEMB_VERSION, *arr.shape), arr.tobytes()])


def load_embeddings(path: str | Path) -> np.ndarray:
    """Load a SEMB file back into an (n_sentences, dim) float32 array.

    Raises distinct errors for a bad magic, an unsupported version, a
    payload shorter or longer than the declared shape, and non-finite
    values, and a ``SembError`` for a declared dim of 0.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SembTruncatedError(f"{path}: file shorter than the 16-byte header")
    magic, version, n, dim = _HEADER.unpack_from(raw)
    if magic != SEMB_MAGIC:
        raise SembBadMagicError(f"{path}: bad magic {magic!r}")
    if version != SEMB_VERSION:
        raise SembVersionError(f"{path}: unsupported version {version}")
    if not dim:
        raise SembError(f"{path}: dim 0, a sentence vector needs at least one value")
    expected = _HEADER.size + 4 * n * dim
    if len(raw) != expected:
        raise SembTruncatedError(
            f"{path}: declared {n}x{dim} needs {expected} bytes, file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, dim)
    if not np.isfinite(values).all():
        raise SembNonFiniteError(f"{path}: matrix contains NaN or Inf")
    return values.copy()


def chunk_sizes(n_sentences: int, n_chunks: int) -> list[int]:
    """Balanced contiguous partition sizes: the first ``n mod k`` chunks
    get one extra sentence. Sizes may be zero when n < k."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    base, extra = divmod(n_sentences, n_chunks)
    return [base + 1 if i < extra else base for i in range(n_chunks)]


def chunk_average(matrix: np.ndarray, n_chunks: int) -> np.ndarray:
    """Average sentence rows within balanced contiguous chunks.

    Returns an (n_chunks, dim) array; when there are fewer sentences
    than chunks the trailing chunks are zero rows (padding).
    """
    matrix = np.asarray(matrix, dtype=float)
    n, _ = matrix.shape
    return _chunk_means(matrix, chunk_sizes(n, n_chunks))


def book_average(matrix: np.ndarray) -> np.ndarray:
    """Mean over all sentence rows (the whole-book vector)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] == 0:
        raise ValueError("book_average needs at least one sentence row")
    return matrix.mean(axis=0)
