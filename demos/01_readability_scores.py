"""Walk through the text-statistics layer and the five readability
indices on two contrasting passages.

Run:  python demos/01_readability_scores.py
"""

from bookpred.readability import INDEX_NAMES, readability_vector
from bookpred.textstats import compute_counts, count_syllables, segment_sentences

PLAIN = (
    "The sun rose. The air was cold. A dog ran down the road. "
    "It did not stop. The town slept on."
)

ORNATE = (
    "Interminable deliberations characterized the municipality's "
    "extraordinarily circuitous administrative procedures, notwithstanding "
    "repeated exhortations toward expeditious resolution. Consequently, "
    "infuriated institutional representatives contemplated altogether "
    "unprecedented countermeasures."
)

for name, text in (("plain", PLAIN), ("ornate", ORNATE)):
    print(f"--- {name} passage ---")
    sentences = segment_sentences(text)
    print(f"sentences: {len(sentences)}")
    print(f"first sentence: {sentences[0]!r}")

    counts = compute_counts(text)
    print(
        f"counts: words={counts.words} chars={counts.characters} "
        f"sentences={counts.sentences} syllables={counts.syllables} "
        f"polysyllables={counts.polysyllables}"
    )

    vector = readability_vector(counts)
    for index_name, value in zip(INDEX_NAMES, vector):
        print(f"  {index_name:5s} {value:8.2f}")
    print()

# Syllable counting is the heuristic underneath syllable- and
# polysyllable-based indices.
for word in ("sun", "procedures", "unprecedented", "table", "make"):
    print(f"count_syllables({word!r}) = {count_syllables(word)}")

# All five indices depend only on count ratios, so doubling every count
# (a text concatenated with itself, roughly) leaves them unchanged.
from bookpred.textstats import TextCounts

c = compute_counts(ORNATE)
doubled = TextCounts(
    words=2 * c.words,
    characters=2 * c.characters,
    sentences=2 * c.sentences,
    syllables=2 * c.syllables,
    polysyllables=2 * c.polysyllables,
)
print("\nscale invariance check (max abs diff):",
      max(abs(a - b) for a, b in zip(readability_vector(c), readability_vector(doubled))))
