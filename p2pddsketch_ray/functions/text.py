"""Vectorized text-analysis kernels for map_batches stages.

These are the training-data-pipeline operators layered on top of the
reference's capabilities (the reference's only per-record map is the
value->bucket key function, ddsketch.cc:84-104; a web-scale pipeline needs
per-document text metrics before anything is sketched).

Every function here is Arrow-vectorized (pyarrow.compute) or numpy; the
definitions of token / punctuation / stopword are chosen to be exactly
replicable in DuckDB SQL so the driver's oracle can hash-match:

    tokens           = regexp matches of [A-Za-z0-9]+
    punctuation      = regexp matches of [.,;:!?]
    stopword tokens  = lowercase tokens in STOPWORDS

TOKEN_RE is the token definition; ``token_count`` computes the same count
without a regex, from a byte class over the flat UTF-8 buffer (a token is
a run of ASCII alnum bytes, and no byte of a multi-byte character is one).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = r"[A-Za-z0-9]+"
PUNCT_RE = r"[.,;:!?]"

# tiny fixed english stoplist (deterministic; mirrored in oracle SQL)
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it", "that", "for")

# character n-gram profiles for the language-ID heuristic: the most
# characteristic frequent trigrams (incl. space padding) per language.
# Deliberately tiny -- this is a deterministic heuristic stage, not a model.
_LANG_TRIGRAMS = {
    "en": (" th", "the", "he ", " an", "and", "nd ", " of", "of ", "ing", "ng "),
    "de": ("der", "ie ", " de", "ein", "ich", "sch", "und", " un", "en ", "ch "),
    "fr": (" le", "es ", " de", "de ", "ent", "le ", "nt ", "que", " qu", "la "),
    "es": (" de", "de ", "os ", " la", "la ", "el ", " el", "que", " qu", "ión"),
    "it": (" di", "di ", " la", "to ", "la ", "che", " ch", "re ", "ion", "zio"),
    "pt": (" de", "de ", "os ", " qu", "que", "ão ", " co", "da ", " da", "ent"),
    "nl": ("en ", " de", "de ", "an ", " he", "et ", "van", " va", "een", " ee"),
    "pl": ("ie ", "nie", " ni", "na ", " na", "ch ", " po", "ego", "go ", " prz"),
    "ru": (" на", "на ", " не", "не ", "ть ", "ого", "го ", " по", "ени", " в "),
    "ja": ("の", "に", "は", "を", "た", "が", "で", "て", "と", "し"),
}


_ALNUM = np.zeros(256, dtype=np.bool_)
for _lo, _hi in ((b"0", b"9"), (b"A", b"Z"), (b"a", b"z")):
    _ALNUM[_lo[0]:_hi[0] + 1] = True

_COUNT_CHUNK = 1 << 16  # bytes per token_count step: ~0.7 MB of temporaries


def token_count(texts: pa.Array) -> pa.Array:
    """Number of [A-Za-z0-9]+ tokens per string (int64; null stays null).

    A token is a maximal run of ASCII alnum bytes inside one string, so
    the count is the number of alnum bytes that start a string or follow
    a non-alnum byte.  UTF-8 lead and continuation bytes are >= 0x80 and
    never alnum, so this is TOKEN_RE's count.  The flat byte buffer is
    walked in _COUNT_CHUNK-byte steps, which bounds the temporaries
    whatever the batch or document size: each step leaves the running
    token count at every string offset that falls inside it."""
    from ..sketches.minhash import _string_buffer
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    data, offs = _string_buffer(arr)
    before = np.empty(offs.shape[0], dtype=np.int64)  # tokens before offs[i]
    base, i = 0, 0
    for s in range(0, data.shape[0], _COUNT_CHUNK):
        e = min(s + _COUNT_CHUNK, data.shape[0])
        alnum = _ALNUM[data[s:e]]
        starts = alnum.copy()
        starts[1:] &= ~alnum[:-1]
        starts[0] &= not (s and _ALNUM[data[s - 1]])
        j = int(np.searchsorted(offs, e))
        local = offs[i:j] - s
        starts[local] = alnum[local]  # a string's first byte starts a run
        run = np.zeros(e - s + 1, dtype=np.int64)
        np.cumsum(starts, out=run[1:])
        before[i:j] = base + run[local]
        base, i = base + int(run[-1]), j
    before[i:] = base
    counts = pa.array(np.diff(before), type=pa.int64(),
                      mask=arr.is_null().to_numpy(zero_copy_only=False)
                      if arr.null_count else None)
    return pa.chunked_array([counts]) if isinstance(
        texts, pa.ChunkedArray) else counts


def punct_count(texts: pa.Array) -> pa.Array:
    return pc.cast(pc.count_substring_regex(texts, PUNCT_RE), pa.int64())


def char_count(texts: pa.Array) -> pa.Array:
    return pc.cast(pc.utf8_length(texts), pa.int64())


def stopword_count(texts: pa.Array) -> pa.Array:
    """Count of lowercase-token stopword occurrences.

    Counted as non-overlapping regex matches of (?:\\b(?:w1|w2|...)\\b) over
    the lowercased text -- the same count DuckDB computes with
    len(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'), ...))
    because tokens are maximal [a-z0-9]+ runs.
    """
    # RE2's \b treats '_' as a word char ([0-9A-Za-z_], ASCII), while the
    # oracle tokenizes on maximal [a-z0-9]+ runs -- 'the_end' would yield a
    # stopword in SQL but not here.  RE2 has no lookarounds, so instead map
    # '_' to ' ' first: token boundaries then coincide exactly.
    lower = pc.replace_substring(pc.utf8_lower(texts), "_", " ")
    pattern = r"\b(?:" + "|".join(STOPWORDS) + r")\b"
    return pc.cast(pc.count_substring_regex(lower, pattern), pa.int64())


def quality_score_from_counts(toks, punct, stops) -> pa.Array:
    """quality_score when the three counts are already computed (one
    regex pass each -- callers that also aggregate the counts should use
    this to avoid recomputing them)."""
    toks = np.asarray(toks, dtype=np.float64)
    punct = np.asarray(punct, dtype=np.float64)
    stops = np.asarray(stops, dtype=np.float64)
    safe_toks = np.maximum(toks, 1.0)
    score = (0.4 * np.minimum(1.0, toks / 100.0)
             + 0.3 * (1.0 - np.minimum(1.0, punct / safe_toks))
             + 0.3 * np.minimum(1.0, 5.0 * stops / safe_toks))
    return pa.array(score, type=pa.float64())


def quality_score(texts: pa.Array) -> pa.Array:
    """Deterministic document-quality heuristic in [0, 1]:

        0.4 * min(1, tokens/100)            (length component)
      + 0.3 * (1 - min(1, punct/tokens))    (punctuation density)
      + 0.3 * min(1, 5*stopwords/tokens)    (naturalness)

    Returned unrounded: the expression uses the same op order as its SQL
    replica, so the float64 result is bit-identical to DuckDB's
    (see oracle_sql in __ray_entry__).
    """
    return quality_score_from_counts(
        token_count(texts).to_numpy(zero_copy_only=False),
        punct_count(texts).to_numpy(zero_copy_only=False),
        stopword_count(texts).to_numpy(zero_copy_only=False))


def fingerprint64(texts: pa.Array) -> pa.Array:
    """Deterministic 64-bit document fingerprint.

    Uses pandas' C-vectorized SipHash-based ``hash_array`` with its fixed
    default key -- stable across processes/machines/runs, O(total bytes)
    with no per-row Python.  For an oracle-replicable (slower) content hash
    use ``hashing.md5_hex`` instead.
    """
    import pandas as pd
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    vals = arr.fill_null("").to_pandas().to_numpy(dtype=object)
    out = pd.util.hash_array(vals, categorize=False)
    return pa.array(out.view(np.int64), type=pa.int64())


def token_value_arrays(tokens: pa.Array,
                       values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the broadcast side of a token -> int64 value map as TWO
    plain numpy arrays (fp-sorted fingerprints + aligned values) instead
    of a Python dict: 16 bytes/token, picklable in one block, and probed
    with a single vectorized ``np.searchsorted`` per batch (no per-token
    Python).  This is the shared kernel behind every "global token
    statistic looked up inside a map" query (lexical sophistication,
    co-degree, PMI marginals).

    Returns ``(fp_sorted, vals_aligned)``; look up with
    :func:`token_value_lookup`.  Exact up to fingerprint64 collisions
    (~vocab^2 / 2^64), the same tier contract as the fp64 dedup path.
    """
    fp = fingerprint64(tokens).to_numpy(zero_copy_only=False)
    sidx = np.argsort(fp, kind="stable")
    vals = np.asarray(values, dtype=np.int64)
    return np.ascontiguousarray(fp[sidx]), np.ascontiguousarray(vals[sidx])


def token_value_lookup(fp_sorted: np.ndarray, vals: np.ndarray,
                       tokens: pa.Array) -> np.ndarray:
    """Vectorized probe of a :func:`token_value_arrays` map: fingerprint
    the batch's tokens, binary-search the sorted fp array, gather the
    aligned values.  Every probed token MUST be present in the map (the
    maps are built from the same corpus the probes come from)."""
    fps = fingerprint64(tokens).to_numpy(zero_copy_only=False)
    pos = np.searchsorted(fp_sorted, fps)
    return vals[pos]


def lang_id(texts: pa.Array) -> pa.Array:
    """Character-trigram language-ID heuristic.

    Scores each document by counts of characteristic trigrams per language
    (pc.count_substring, vectorized over the whole column per trigram --
    ~100 passes over the batch, all in Arrow kernels); returns the argmax
    language with deterministic tie-break (alphabetical).
    """
    lower = pc.utf8_lower(texts)
    langs = sorted(_LANG_TRIGRAMS)
    scores = np.zeros((len(langs), len(texts)), dtype=np.int64)
    for i, lang in enumerate(langs):
        for tri in _LANG_TRIGRAMS[lang]:
            scores[i] += pc.count_substring(lower, tri).to_numpy(
                zero_copy_only=False).astype(np.int64)
    best = np.argmax(scores, axis=0)  # first max = alphabetical tie-break
    return pa.array([langs[i] for i in best], type=pa.string())
