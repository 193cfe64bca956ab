"""Sentence embeddings and chunk sequences: the hashed bag-of-words
encoder, the SEMB file format, and balanced chunk averaging.

Run:  python demos/02_embeddings_and_chunks.py
"""

import tempfile
from pathlib import Path

import numpy as np

from bookpred.embedding import (
    book_average,
    chunk_average,
    chunk_sizes,
    encode_hashed_bow,
    load_embeddings,
    write_embeddings,
)

sentences = [
    "the lighthouse keeper counted the ships",
    "the ships counted the lighthouse keeper",  # same bag of words
    "a completely different set of tokens appears here",
]

matrix = encode_hashed_bow(sentences, dim=64, seed=0)
print("embedding matrix shape:", matrix.shape)
print("row norms:", np.round(np.linalg.norm(matrix, axis=1), 3))
print("rows 0 and 1 identical (order-invariant bag):",
      bool(np.array_equal(matrix[0], matrix[1])))
print("cosine(row 0, row 2):", round(float(matrix[0] @ matrix[2]), 3))

# A book is a sequence of sentences; the model consumes a fixed number
# of chunk averages. 7 sentences into 3 chunks splits 3/2/2.
print("\nchunk sizes for 7 sentences in 3 chunks:", chunk_sizes(7, 3))
seven = encode_hashed_bow([f"sentence number {i} of the tiny book" for i in range(7)], dim=64)
chunks = chunk_average(seven, 3)
print("chunk sequence shape:", chunks.shape)
print("chunk 0 equals mean of first 3 rows:",
      bool(np.allclose(chunks[0], seven[:3].mean(axis=0))))

# The encoder can average chunks itself, block by block, without the
# full sentence matrix; the result is bit-identical.
direct = encode_hashed_bow(
    [f"sentence number {i} of the tiny book" for i in range(7)], dim=64, n_chunks=3
)
print("encoder with n_chunks=3 bit-identical to chunk_average:",
      direct.tobytes() == chunks.tobytes())

# Fewer sentences than chunks pads with zero rows.
padded = chunk_average(matrix, 5)
print("zero padding rows for a 3-sentence book in 5 chunks:",
      int(np.sum(~padded.any(axis=1))))

# The whole-book average drives the simpler feed-forward baseline.
print("book average shape:", book_average(matrix).shape)

# Externally computed vectors travel through the .semb binary format;
# write then load is bit-identical.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.semb"
    stored = matrix.astype(np.float32)
    write_embeddings(stored, path)
    loaded = load_embeddings(path)
    print("\nSEMB round trip bit-identical:", bool(np.array_equal(loaded, stored)))
    print("file size bytes:", path.stat().st_size, "(16-byte header + 4 per value)")
