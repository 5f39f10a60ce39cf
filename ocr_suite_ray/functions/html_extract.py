"""Deterministic HTML main-content extraction (Boilerpipe/Readability-style).

This is the engine's per-document "recognizer" — the analogue of the
reference's Tesseract provider ``do_ocr`` (``src/recognition/provider/
tesseract.cpp:80-120``): payload in, list of recognized spans out. Instead of
pixel boxes + confidence, each span is a char-offset interval into the
extracted text with a block kind.

Algorithm (public Boilerpipe/Readability heuristics, no external parser —
one stdlib ``re`` grammar, checked against stdlib ``html.parser``, both
pinned by the Python version):

1. Flat block segmentation: tokenize the page with one ``findall`` of the
   ``_TOKEN`` grammar and walk the tokens; block-level tags
   (p/h*/li/td/div/...) open a new block, text nodes accumulate into the
   current block, ``<a>`` text additionally accumulates into the block's
   link-char counter. ``<script>``/``<style>`` content is skipped.
2. Per-block features: word count (words = tokens with >= MIN_WORD_CHARS
   alphanumeric chars, the analogue of ``min_letters_threshold_ = 3``,
   ``include/ocs/recognition/provider/provider.h:26``) and link density
   (link chars / total chars). Words are counted on the block's ASCII
   alphanumeric tokens first; only a block with fewer than MIN_WORDS of
   those runs the exact ``_WORD_OK`` regex.
3. Classification: keep a block iff it is the <title>, OR
   (link_density <= MAX_LINK_DENSITY and word_count >= MIN_WORDS).
   Nav bars and footers have link density near 1.0 and are dropped;
   real paragraphs keep their occasional inline link.
4. Assembly: kept blocks joined by "\n\n"; spans recorded as
   (start, stop, kind) over the final string.

Every page takes the one grammar path, truncated and malformed pages
included, and each character is tokenized once: no construct needs a
positional scan. Whether a ``<script …/>`` or ``<style …/>`` is
self-closing (so no CDATA follows it) is decided inside the grammar by
html.parser's attribute walk, so ``<script src=a/>``, whose ``/`` ends an
unquoted value, opens CDATA like ``<script>``.

Determinism: pure function of the input bytes — no dict-order dependence
(blocks kept in document order), no float formatting, charset fallback fixed
(textnorm.decode_bytes), whitespace collapsed canonically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import unescape
from html.parser import HTMLParser

from ocr_suite_ray.functions.textnorm import decode_bytes, nfc
from ocr_suite_ray.schemas import (
    KIND_HEADING,
    KIND_LIST,
    KIND_PARAGRAPH,
    KIND_TITLE,
)

MIN_WORDS = 3          # blocks with fewer content words are boilerplate
MIN_WORD_CHARS = 3     # min_letters_threshold_ analogue (provider.h:26)
MAX_LINK_DENSITY = 0.35

# Tags that delimit text blocks (flat segmentation).
_BLOCK_TAGS = frozenset(
    "p h1 h2 h3 h4 h5 h6 li td th pre blockquote div article section title "
    "header footer nav ul ol table tr body caption figcaption dt dd".split()
)
_SKIP_TAGS = frozenset({"script", "style", "noscript", "template"})

_KIND_BY_TAG = {
    "title": KIND_TITLE,
    "h1": KIND_HEADING,
    "h2": KIND_HEADING,
    "h3": KIND_HEADING,
    "h4": KIND_HEADING,
    "h5": KIND_HEADING,
    "h6": KIND_HEADING,
    "li": KIND_LIST,
    "dt": KIND_LIST,
    "dd": KIND_LIST,
}


@dataclass
class Block:
    """A text block: the oracle's open block. A flushed block is the plain
    tuple ``(kind, chunks, link_chars, total_chars)``."""

    kind: str
    chunks: list
    link_chars: int = 0
    total_chars: int = 0


# --- tokenizer ---------------------------------------------------------------
#
# stdlib html.parser is correct but allocation-heavy (incremental buffer
# management, attribute parsing, per-construct regex dispatch) — at 28
# concurrent parsers its string churn saturates a single box's memory bus
# (BASELINE.md control experiment). Here ONE C-level ``findall`` of the
# grammar below splits a page into tokens ``(name, rest, end name, text)``,
# so the Python work per construct is one tuple unpack and one dict lookup.
# The grammar mimics html.parser's OBSERVABLE behavior for this sink,
# construct by construct (first alternative that matches wins):
#
#   <!-- … --\s*>                  complete comment: skipped
#   <script …> CDATA, <style …>    a start tag that is not self-closing:
#     CDATA                        CDATA up to the first </script\s*>
#                                  (</style\s*>, ASCII case-insensitive); no
#                                  close = dead to EOF
#   <name rest>                    start tag: (name, rest)
#   </name …>                      end tag: strict </\s*name\s*> or a name
#                                  with junk up to '>' (</div foo> closes div)
#   </…>, <!…>, <?…>               bogus end tag, declaration, PI: skipped
#   text                           a run of non-'<' chars
#   <!-- … > (no close)            EOF-incomplete constructs, emitted as raw
#   <…  (no '>' after, '<' later)  data like html.parser's goahead(end=1):
#   <                              data up to the next '>' / next '<' / one
#                                  char; a bare '<' is data too
#
# Self-closing is html.parser's parse_starttag rule: after its
# tagfind_tolerant name and attrfind_tolerant attribute walk, the rest of
# the tag strips to '/>'. _ATTRS writes that walk into the grammar, so the
# CDATA alternative passes over a self-closed <script/>, and the walk
# checks any other tag ending in '/' with _SELF_CLOSED. A bare
# trailing-'/' check would misread an unquoted value ending in '/'
# (<a href=http://x.y/>) as self-closing, which never increments
# link_depth and breaks link-density dropping.
#
# Every data token is one chunk in the block, as html.parser reports it
# (the per-chunk stripped lengths feed total_chars). Byte-identical output
# vs _BlockParser is enforced by tests/test_extract_functions.py and
# tests/test_fuzz.py.
#
# Memory: findall materializes the page's token list before the walk, about
# 140 B per construct (a 4-tuple and its strings): 5.4 MB for a 1 MiB page
# of the synthetic corpus, freed when the page is done.
#
# Known divergence (documented, absent from crawls our heuristics target):
# a '>' INSIDE a quoted attribute value ends the tag early here;
# html.parser's quote-aware scan does not.

_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*+"   # html.parser tagfind_tolerant name

# What html.parser's parse_starttag consumes after the name: the rest of
# tagfind_tolerant, then attrfind_tolerant matched again while it matches.
# The possessive repeat takes each attribute's first match and never gives
# one back, as the stdlib loop does. Quoted values stop at '>' because a
# tag ends at its first '>' here (the quoted-'>' divergence above); with
# that bound no part of the walk crosses a '>'. Pinned against the stdlib
# regexes by tests/test_extract_functions.py.
_ATTRS = (
    r"(?:\s|/(?!>))*+"
    r"""(?:(?<=['"\s/])[^\s/>][^\s/=>]*"""
    r"""(?:\s*=+\s*(?:'[^'>]*'|"[^">]*"|(?!['"])[^>\s]*))?"""
    r"(?:\s|/(?!>))*)*+"
)
# a start tag's own text (name, rest and its '>') that is self-closing
_SELF_CLOSED = re.compile(rf"{_NAME}{_ATTRS}\s*/>")


def _ci(tag: str) -> str:
    # the ASCII letters of a tag name in either case: what str.lower() maps
    # to it and what html.parser's endtagfind accepts
    return "".join(f"[{c}{c.upper()}]" for c in tag)


# CDATA ends at the first </script\s*> (</style\s*>), as html.parser's
# cdata-mode search finds it; a </script junk> or </scripts> inside is
# CDATA too
_CDATA_CLOSE = {t: rf"</\s*{_ci(t)}\s*>" for t in ("script", "style")}


def _cdata(tag: str) -> str:
    # a start tag that is not self-closing, then its CDATA; no close = dead
    # to EOF
    return (
        rf"{_ci(tag)}(?![^\t\n\r\f />\x00]){_ATTRS}(?!\s*/>)[^>]*+>"
        rf"(?:.*?{_CDATA_CLOSE[tag]}|.*)"
    )


_TOKEN = re.compile(
    r"<(?:!--.*?--\s*>"
    rf"|{_cdata('script')}|{_cdata('style')}"
    rf"|({_NAME})([^>]*+)>"
    r"|/(?:\s++(?=[a-zA-Z][-.a-zA-Z0-9:_]*+\s*>))?"
    rf"([a-zA-Z][-.a-zA-Z0-9:_]*+(?=\s*>)|{_NAME})[^>]*+>"
    r"|/[^>]*+>"
    r"|(?!!--)[!?][^>]*+>)"
    r"|([^<]+|<!--[^>]*+>|<[a-zA-Z/!?][^<]*+(?=<)|<)",
    re.S,
)

# Tag-name dispatch of the walk: one dict lookup per tag. A block start tag
# maps to its block kind; every other tag to an action. script/style start
# tags reach the walk only self-closed, which is no event, so they have no
# entry.
_BR, _LINK, _SKIP, _FLUSH = (object() for _ in range(4))
_START = {
    **{t: _KIND_BY_TAG.get(t, KIND_PARAGRAPH) for t in _BLOCK_TAGS},
    "a": _LINK,
    "br": _BR,
    "noscript": _SKIP,
    "template": _SKIP,
}
# an end tag of the full skip set decrements the skip depth: a matched
# </script> never reaches the walk (the CDATA token consumes it), but an
# UNMATCHED one does, and the oracle decrements the depth a <noscript> opened
_END = {**{t: _FLUSH for t in _BLOCK_TAGS}, "a": _LINK,
        **{t: _SKIP for t in _SKIP_TAGS}}


def _blocks(raw: str) -> list[tuple]:
    """Tokenize with one ``_TOKEN.findall`` and walk the tokens with the
    block-accumulation state INLINED as locals (a method call per token
    into an accumulator object would cost ~30% of kernel time).
    Accumulation semantics: block-level tags open a block, text nodes
    accumulate, <a> text feeds the link-char counter (the link-density
    feature), noscript/template content is skip-depth-suppressed, a
    self-closed tag acts only if it is <br/> — identical to
    ``_BlockParser``'s handlers; the differential oracle test (vs stdlib
    html.parser) pins both tokenization and accumulation."""
    start_get = _START.get
    end_get = _END.get
    self_closed = _SELF_CLOSED.fullmatch
    blocks: list[tuple] = []
    link_depth = 0
    skip_depth = 0  # inside noscript/template (oracle _skip_depth)
    cur: list | None = None  # the open block's chunks; None <=> no block
    kind = KIND_PARAGRAPH
    link = 0
    total = 0
    for name, rest, ename, text in _TOKEN.findall(raw):
        if text:
            if skip_depth:
                continue
            if "&" in text:
                text = unescape(text)
            sl = len(text.strip())
            if cur is not None:
                cur.append(text)
                total += sl
                if link_depth:
                    link += sl
            elif sl:
                kind = KIND_PARAGRAPH
                cur = [text]
                total = sl
                link = sl if link_depth else 0
        elif name:
            act = start_get(name) or start_get(name.lower())
            if act is None:
                continue
            if act is _BR:
                if cur is not None and not skip_depth:
                    cur.append(" ")
            elif rest[-1:] == "/" and self_closed(f"{name}{rest}>"):
                pass  # self-closed: no event
            elif act is _SKIP:
                skip_depth += 1
            elif skip_depth:
                pass
            elif act is _LINK:
                link_depth += 1
            else:  # block tag: act is its kind
                if cur is not None and total > 0:
                    blocks.append((kind, cur, link, total))
                kind = act
                cur = []
                link = 0
                total = 0
        elif ename:
            act = end_get(ename) or end_get(ename.lower())
            if act is _SKIP:
                skip_depth = max(0, skip_depth - 1)
            elif skip_depth or act is None:
                pass
            elif act is _LINK:
                if link_depth:
                    link_depth -= 1
            else:  # _FLUSH: a block end tag
                if cur is not None and total > 0:
                    blocks.append((kind, cur, link, total))
                cur = None
    if cur is not None and total > 0:  # close
        blocks.append((kind, cur, link, total))
    return blocks


class _BlockParser(HTMLParser):
    """Tokenizes HTML into flat text blocks with link-char accounting.

    Retained as the differential ORACLE for the token walk above (tests
    assert identical blocks and byte-identical extraction); not on the hot
    path."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[tuple] = []
        self._cur: Block | None = None
        self._skip_depth = 0
        self._link_depth = 0

    # -- block lifecycle ---------------------------------------------------
    def _flush(self) -> None:
        cur = self._cur
        if cur is not None and cur.total_chars > 0:
            self.blocks.append(
                (cur.kind, cur.chunks, cur.link_chars, cur.total_chars)
            )
        self._cur = None

    def _open(self, tag: str) -> None:
        self._flush()
        self._cur = Block(kind=_KIND_BY_TAG.get(tag, KIND_PARAGRAPH), chunks=[])

    # -- HTMLParser hooks --------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._link_depth += 1
        elif tag in _BLOCK_TAGS:
            self._open(tag)
        elif tag == "br":
            if self._cur is not None:
                self._cur.chunks.append(" ")

    def handle_startendtag(self, tag: str, attrs) -> None:
        if tag == "br" and self._cur is not None and not self._skip_depth:
            self._cur.chunks.append(" ")

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        elif tag in _BLOCK_TAGS:
            self._flush()

    def handle_data(self, data: str) -> None:
        if self._skip_depth or not data:
            return
        if self._cur is None:
            if not data.strip():
                return
            self._cur = Block(kind=KIND_PARAGRAPH, chunks=[])
        stripped_len = len(data.strip())
        self._cur.chunks.append(data)
        self._cur.total_chars += stripped_len
        if self._link_depth:
            self._cur.link_chars += stripped_len

    def close(self) -> None:
        super().close()
        self._flush()


# token qualifies as a content word iff it contains >= MIN_WORD_CHARS
# alphanumeric characters ([^\W_] == unicode letters+digits). ONE C-speed
# scan per block: a match starts at a token boundary ((?<![^ ]) — the text
# is already whitespace-collapsed, so tokens are single-space separated) and
# consumes non-alnum filler ([^\w ]|_ == [\W_] minus the separator) between
# the required alphanumerics, never crossing a space. _assemble runs it only
# on blocks its token count cannot decide.
_WORD_OK = re.compile(r"(?<![^ ])(?:(?:[^\w ]|_)*[^\W_ ]){%d}" % MIN_WORD_CHARS)


def _has_min_words(text: str) -> bool:
    """True iff the block has >= MIN_WORDS content words — early-exits after
    the MIN_WORDS-th match, so long kept paragraphs cost 3 matches, not a
    full scan."""
    need = MIN_WORDS
    for _ in _WORD_OK.finditer(text):
        need -= 1
        if need == 0:
            return True
    return False


def extract_html(payload: bytes) -> dict:
    """bytes → {text, spans, n_blocks_kept, n_blocks_dropped}.

    Raises on undecodable garbage only via explicit checks upstream; the
    tokenizer itself is total (never raises on malformed markup)."""
    raw, _charset = decode_bytes(payload)
    return _assemble(_blocks(raw))


def extract_html_oracle(payload: bytes) -> dict:
    """Reference implementation over stdlib html.parser — the differential
    oracle for the token walk (tests byte-diff the two)."""
    raw, _charset = decode_bytes(payload)
    parser = _BlockParser()
    parser.feed(raw)
    parser.close()
    return _assemble(parser.blocks)


def _assemble(blocks: list) -> dict:
    pieces: list[str] = []
    spans: list[tuple[int, int, str]] = []
    kept = dropped = 0
    pos = 0
    for kind, chunks, link_chars, total_chars in blocks:
        # drop-by-link-density BEFORE normalizing: nav/footer blocks never
        # pay the join and split. Every flushed block has total_chars > 0,
        # so its normalized text is never empty.
        if kind != KIND_TITLE and link_chars / total_chars > MAX_LINK_DENSITY:
            dropped += 1
            continue
        # NFC applied per block (not to the whole raw document):
        # segmentation is normalization-invariant and the blocks are a
        # small fraction of the input bytes
        toks = "".join(chunks).split()
        text = nfc(" ".join(toks))
        if kind != KIND_TITLE:
            # an ASCII token of >= MIN_WORD_CHARS alphanumerics is a word
            # under _WORD_OK too (NFC leaves it alone), so MIN_WORDS of them
            # decide the block; with fewer, the exact regex decides
            need = MIN_WORDS
            for t in toks:
                if len(t) >= MIN_WORD_CHARS and t.isalnum() and t.isascii():
                    need -= 1
                    if not need:
                        break
            else:
                if not _has_min_words(text):
                    dropped += 1
                    continue
        if pieces:
            pos += 2  # "\n\n" separator
        pieces.append(text)
        spans.append((pos, pos + len(text), kind))
        pos += len(text)
        kept += 1
    return {
        "text": "\n\n".join(pieces),
        "spans": spans,
        "n_blocks_kept": kept,
        "n_blocks_dropped": dropped,
    }
