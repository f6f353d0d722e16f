"""Entity-linking stage: mention detection against a broadcast gazetteer.

Ray pattern: a plain task map (``linker_task_fn``) — the gazetteer arrives as
a ``ray.put`` object ref (broadcast once, not re-shipped per batch) and the
token index is built ONCE per worker process and memoised; each task does
per-batch work only.

Matching is a leftmost-longest token-index scan (first token -> candidate
phrases, longest first). Unlike a single alternation regex this scales to
large gazetteers: per-token cost is a dict lookup, independent of gazetteer
size."""

from __future__ import annotations

import json
import re

import pyarrow as pa

_WORD_RE = re.compile(r"[A-Za-z]+(?:[-.][A-Za-z]+)*")


def build_token_index(surfaces: dict) -> dict:
    """surface -> iri mapping to {first_token: [(token_tuple, surface, iri)]}
    with candidates longest-first."""
    index: dict = {}
    for surface, iri in surfaces.items():
        words = tuple(_WORD_RE.findall(surface))
        if not words:
            continue
        index.setdefault(words[0], []).append((words, surface, iri))
    for cands in index.values():
        cands.sort(key=lambda c: len(c[0]), reverse=True)
    return index


class MentionLinker:
    """The linker state for one gazetteer: ``MentionLinker(gazetteer=rows)``
    or ``MentionLinker(gazetteer_ref=ray.put(rows))``. ``link_text`` links
    one string; calling it on an Arrow batch adds an ``entities`` column:
    JSON array of linked entity IRIs, in order of first appearance,
    deduplicated."""

    def __init__(self, gazetteer_ref=None, gazetteer=None):
        if gazetteer is None:
            import ray

            gazetteer = ray.get(gazetteer_ref)
        self.surface_to_iri = {s: iri for s, iri, _ in gazetteer}
        self.index = build_token_index(self.surface_to_iri)

    def link_text(self, text: str) -> list[str]:
        out: list[str] = []
        seen = set()
        words = [(m.group(0), m.start(), m.end()) for m in _WORD_RE.finditer(text)]
        n_words = len(words)
        index = self.index
        i = 0
        while i < n_words:
            cands = index.get(words[i][0])
            if cands:
                matched = False
                for token_tuple, surface, iri in cands:
                    n = len(token_tuple)
                    if i + n <= n_words and all(
                        words[i + k][0] == token_tuple[k] for k in range(1, n)
                    ):
                        # contiguity: the raw text slice must equal the surface
                        if text[words[i][1]:words[i + n - 1][2]] == surface:
                            if iri not in seen:
                                seen.add(iri)
                                out.append(iri)
                            i += n
                            matched = True
                            break
                if matched:
                    continue
            i += 1
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        entities = [json.dumps(self.link_text(t or "")) for t in texts]
        return batch.append_column("entities", pa.array(entities, pa.string()))


# task-map linker: the state (dict + token index over ~1k surfaces) builds
# in milliseconds, so a plain task map with a per-process memo gets the same
# once-per-worker amortization as an actor pool WITHOUT the actor-spawn cost
# (an autoscaling pool measured a ~8 s stall per job in 1-2 CPU sessions).
# The memo keys on the gazetteer's CONTENT, not on its object ref: every job
# puts a fresh ref, and a ref key would add one linker per job to every
# worker.
_LINKER_MEMO: dict = {}


def linker_task_fn(gazetteer: list):
    """Returns a map_batches FUNCTION that adds the ``entities`` column: the
    linker builds once per (worker process, gazetteer content) and is reused
    by every task the worker runs."""
    import hashlib

    import ray

    key = hashlib.sha1(repr(gazetteer).encode()).hexdigest()
    gazetteer_ref = ray.put(gazetteer)

    def link_mentions(batch: pa.Table) -> pa.Table:
        linker = _LINKER_MEMO.get(key)
        if linker is None:
            linker = MentionLinker(gazetteer_ref=gazetteer_ref)
            _LINKER_MEMO[key] = linker
        return linker(batch)

    return link_mentions
