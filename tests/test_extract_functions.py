"""Unit tests for the pure extraction functions (no Ray needed)."""

from __future__ import annotations

from ocr_suite_ray.functions.extract import extract_payload, sniff_kind
from ocr_suite_ray.functions.html_extract import extract_html
from ocr_suite_ray.functions.pdf_extract import extract_pdf
from ocr_suite_ray.functions.textnorm import collapse_ws, decode_bytes


def test_boilerplate_dropped_content_kept():
    html = (
        b"<html><head><title>My Page Title</title></head><body>"
        b'<nav><a href="/a">home link</a> <a href="/b">about page</a>'
        b' <a href="/c">contact form</a></nav>'
        b"<p>This paragraph has plenty of genuine content words inside it.</p>"
        b'<footer><a href="/x">terms pages</a> | <a href="/y">privacy link</a></footer>'
        b"</body></html>"
    )
    out = extract_html(html)
    assert "My Page Title" in out["text"]
    assert "genuine content words" in out["text"]
    assert "home link" not in out["text"]
    assert "privacy" not in out["text"]
    assert out["n_blocks_kept"] == 2
    assert out["n_blocks_dropped"] >= 2


def test_spans_are_char_offsets_into_text():
    html = b"<title>Alpha Beta Gamma</title><p>one two three four five six</p>"
    out = extract_html(html)
    for start, stop, kind in out["spans"]:
        assert out["text"][start:stop] == out["text"][start:stop].strip()
    first = out["spans"][0]
    assert out["text"][first[0] : first[1]] == "Alpha Beta Gamma"
    assert first[2] == "title"


def test_entities_and_whitespace_normalized():
    html = b"<p>alpha &amp; beta   \n\t gamma &lt;delta&gt; epsilon</p>"
    out = extract_html(html)
    assert out["text"] == "alpha & beta gamma <delta> epsilon"


def test_script_style_skipped():
    html = (
        b"<script>var html_looking = '<p>not real content here at all</p>';</script>"
        b"<style>p { color: red }</style>"
        b"<p>actual visible paragraph content with several words</p>"
    )
    out = extract_html(html)
    assert "not real content" not in out["text"]
    assert "color" not in out["text"]
    assert "actual visible paragraph" in out["text"]


def test_min_word_threshold():
    # fewer than MIN_WORDS qualifying words -> boilerplate
    out = extract_html(b"<p>ok go</p><p>this one has enough real words</p>")
    assert out["n_blocks_kept"] == 1


def test_charset_fallback_deterministic():
    latin = "café résumé".encode("latin-1")
    s, charset = decode_bytes(latin)
    assert charset == "latin-1"
    s2, _ = decode_bytes(latin)
    assert s == s2


def test_collapse_ws():
    assert collapse_ws("  a \n\t b  c ") == "a b c"


def test_pdf_extraction_and_sniff():
    pdf = (
        b"%PDF-1.4\n1 0 obj\n<< /Length 44 >>\nstream\n"
        b"BT /F1 12 Tf 72 700 Td (Hello \\(PDF\\) world) Tj ET"
        b"\nendstream\nendobj\ntrailer\n%%EOF"
    )
    assert sniff_kind(pdf) == "pdf"
    out = extract_pdf(pdf)
    assert out["text"] == "Hello (PDF) world"
    assert out["spans"] == [(0, 17, "pdf_block")]


def test_poison_pills_yield_deterministic_error_rows():
    broken_pdf = b"%PDF-1.4\n1 0 obj\nstream\nnever terminated"
    out = extract_payload(broken_pdf)
    assert out["status"] == "error:ValueError"
    assert out["text"] == ""
    assert extract_payload(b"") == extract_payload(None)
    assert extract_payload(b"").get("status") == "error:EmptyPayload"
    corrupt = b"%PDF-1.4\n1 0 obj\n<</Filter /FlateDecode>>\nstream\nx\nendstream"
    assert extract_payload(corrupt)["status"] == "error:ValueError"
    unsupported = (b"%PDF-1.4\n1 0 obj\n<</Filter /DCTDecode>>\nstream\n"
                   b"\xff\xd8\nendstream")
    assert extract_payload(unsupported)["status"] == "error:NotImplementedError"


def test_extraction_is_pure():
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    tbl = generate_pages_table(50, seed=7)
    payloads = tbl.column("html").to_pylist()
    a = [extract_payload(p) for p in payloads]
    b = [extract_payload(p) for p in payloads]
    assert a == b


def test_scanner_matches_html_parser_oracle():
    """The fast scanner must be byte-identical to the stdlib html.parser
    implementation — on handcrafted edge cases and a synthetic corpus slice
    (incl. giant DOMs, truncated/malformed payloads, entities, script
    poison content)."""
    from ocr_suite_ray.functions.html_extract import extract_html_oracle
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    edges = [
        b"<p>plain paragraph with enough words here</p>",
        b"<p>ends mid tag <a href='/x",                      # truncated tag
        b"<p>bare < less-than and & amp alone</p>",
        b"<p>ent &amp; &lt;x&gt; &copy; &#65; &#x42;</p>",
        b"<script>var x = \"<p>not content</p>\";</script><p>real words follow here now</p>",
        b"<script>unterminated... <p>dead</p>",              # unterminated cdata
        b"<!-- comment <p>ghost</p> --><p>after comment words here</p>",
        b"<!-- unterminated comment <p>ghost",
        b"<!DOCTYPE html><?pi data?><p>declaration then words here</p>",
        b"<br/><p>self closing<br/>break here words</p><div/>",
        b"<P>UPPER case TAGS with Words Here</P>",
        b"<p>unicode \xc3\xa9\xc3\xa8 l\xc3\xa0 words here</p>",
        b"<p>tag soup </bogus!> < 5 more words here</p>",
        b"</ p>odd end tag form words here</p>",
        b"<title>t</title><ul><li>item one here</li><li>item two there</li></ul>",
        b"\x00\x01<p>binary prefix words here</p>\xff\xfe",
    ]
    for payload in edges:
        assert extract_html(payload) == extract_html_oracle(payload), payload

    t = generate_pages_table(800, seed=99)
    for h in t["html"].to_pylist():
        if h and not h.startswith(b"%PDF"):
            assert extract_html(h) == extract_html_oracle(h)


def test_pdf_flate_and_hex_streams_decode():
    """Real-world encodings stdlib covers: a FlateDecode (zlib) content
    stream and an ASCIIHexDecode one extract the same text as their
    uncompressed twin; filter arrays apply in order."""
    import binascii
    import zlib

    content = b"BT /F1 12 Tf (hello compressed) Tj (world streams) Tj ET"

    def pdf(dict_extra: bytes, body: bytes) -> bytes:
        return (b"%PDF-1.4\n1 0 obj\n<<" + dict_extra + b">>\nstream\n"
                + body + b"\nendstream\ntrailer")

    plain = extract_payload(pdf(b"", content))
    flate = extract_payload(pdf(b"/Filter /FlateDecode", zlib.compress(content)))
    hexed = extract_payload(
        pdf(b"/Filter /ASCIIHexDecode", binascii.hexlify(content) + b">")
    )
    chained = extract_payload(
        pdf(b"/Filter [ /ASCIIHexDecode /FlateDecode ]",
            binascii.hexlify(zlib.compress(content)) + b">")
    )
    assert plain["status"] == "ok"
    assert plain["text"] == "hello compressed world streams"
    for variant in (flate, hexed, chained):
        assert variant == plain


def _lzw_encode(data: bytes, early_change: int = 1) -> bytes:
    """Minimal PDF/TIFF LZW compressor (test-side oracle for the decoder):
    emits clear-table, then codes, then EOD, growing the code width with the
    same EarlyChange rule the decoder implements."""
    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    bits: list[tuple[int, int]] = [(256, 9)]  # start with clear-table
    w = b""
    for ch in (bytes([b]) for b in data):
        if w + ch in table:
            w += ch
            continue
        bits.append((table[w], width))
        table[w + ch] = next_code
        next_code += 1
        if next_code + early_change - 1 >= (1 << width) and width < 12:
            width += 1
        if next_code >= 4096:  # table full: clear (keeps the test honest)
            bits.append((256, width))
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
        w = ch
    if w:
        bits.append((table[w], width))
    bits.append((257, width))
    out = bytearray()
    buf = 0
    nbits = 0
    for code, wd in bits:
        buf = (buf << wd) | code
        nbits += wd
        while nbits >= 8:
            out.append((buf >> (nbits - 8)) & 0xFF)
            nbits -= 8
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


def test_pdf_lzw_stream_decodes():
    """LZWDecode (stdlib-implemented, public ISO 32000-1 spec) roundtrips:
    an LZW-compressed content stream extracts identically to its plain twin,
    including width growth past 511/1023 codes and EarlyChange=0."""
    from ocr_suite_ray.functions.pdf_extract import _lzw_decode

    content = b"BT /F1 12 Tf (hello compressed) Tj (world streams) Tj ET"

    def pdf(dict_extra: bytes, body: bytes) -> bytes:
        return (b"%PDF-1.4\n1 0 obj\n<<" + dict_extra + b">>\nstream\n"
                + body + b"\nendstream\ntrailer")

    plain = extract_payload(pdf(b"", content))
    lzw = extract_payload(pdf(b"/Filter /LZWDecode", _lzw_encode(content)))
    assert lzw == plain
    # known vector from the TIFF/PDF spec family: '45 45 45 ...' style runs
    # stress the code==next_code (KwKwK) branch; big inputs stress 10/11/12
    # bit widths and the table-full clear
    import random

    rng = random.Random(7)
    big = bytes(rng.randrange(4) for _ in range(20000))
    for payload in (b"AAAAAAAA", b"TOBEORNOTTOBEORTOBEORNOT", big):
        assert _lzw_decode(_lzw_encode(payload)) == payload
        assert _lzw_decode(_lzw_encode(payload, 0), 0) == payload


def test_pdf_nested_decodeparms_dict_still_decodes():
    """A nested dict between the outer ``<<`` and ``stream`` (e.g.
    ``/DecodeParms <<…>>``) must not hide the outer ``/Filter``: the
    stream-dict scan balances ``<<``/``>>`` instead of taking the innermost
    opener (which silently treated FlateDecode bodies as raw → empty
    text)."""
    import zlib

    content = b"BT /F1 12 Tf (nested dict) Tj ET"
    pdf = (
        b"%PDF-1.4\n1 0 obj\n<</Length 99 /Filter /FlateDecode "
        b"/DecodeParms << /Predictor 1 /Columns 1 >> >>\nstream\n"
        + zlib.compress(content)
        + b"\nendstream\ntrailer"
    )
    out = extract_payload(pdf)
    assert out["status"] == "ok"
    assert out["text"] == "nested dict"


def test_pdf_literal_string_edge_cases():
    from ocr_suite_ray.functions.pdf_extract import extract_pdf

    def pdf(content):
        return (b"%PDF-1.4\n1 0 obj\n<<>>\nstream\n" + content
                + b"\nendstream\ntrailer")

    # balanced unescaped parens (ISO 32000-1 7.3.4.2) + octal escapes
    out = extract_pdf(pdf(b"BT (see figure (1) below) Tj ET"))
    assert "see figure (1) below" in out["text"]
    out = extract_pdf(pdf(rb"BT (\101bc \167orld) Tj ET"))
    assert "Abc world" in out["text"]
    # backslash-EOL line continuation vanishes
    out = extract_pdf(pdf(b"BT (ab\\\ncd) Tj ET"))
    assert "abcd" in out["text"]


def test_pdf_unterminated_last_stream_raises():
    import pytest as _pt

    from ocr_suite_ray.functions.pdf_extract import extract_pdf

    ok = (b"%PDF-1.4\n1 0 obj\n<<>>\nstream\nBT (a) Tj ET\nendstream\n")
    truncated = ok + b"2 0 obj\n<<>>\nstream\nBT (cut of"
    with _pt.raises(ValueError):
        extract_pdf(truncated)
    # content containing the WORD stream must not trip the guard
    out = extract_pdf(
        b"%PDF-1.4\n1 0 obj\n<<>>\nstream\nBT (two streams flow) Tj ET\nendstream\n"
    )
    assert "two streams flow" in out["text"]


def test_scanner_html_parser_parity_hard_cases():
    """Round-5 review divergences, each previously extracting differently
    from the stdlib oracle: noscript/template suppression, unquoted attr
    value ending in '/', junk-bearing end tags, '-- >' comment close,
    unmatched </script> closing a noscript scope, EOF-fallback charrefs."""
    from ocr_suite_ray.functions.html_extract import (
        extract_html,
        extract_html_oracle,
    )

    cases = [
        b'<p>Real paragraph with several content words.</p>'
        b'<noscript>Please enable JavaScript to view comments.</noscript>',
        b'<div><a href=http://example.com/>Home page link</a> '
        b'<a href=http://example.com/about/>About this site</a></div>'
        b'<p>real content words here</p>',
        b'<div><a href="/x">home link words</a></div foo> extra plain words here now',
        b'<p>before words here</p><!-- comment -- > leaked?<p>after words here</p>',
        b'<template><p>hidden template words</p></template><p>visible words here</p>',
        b'<br/><a href="x"/><p>plain words here now</p>',
        b'</ div><p>odd endtag words here</p>',
        b'<noscript><noscript>deep</noscript>still hidden?</noscript>'
        b'<p>shown words here</p>',
        b'<noscript><</script>var x=1; now visible words here',
        b'<p>tail words &#65;&amp; <a href=u ',
    ]
    for c in cases:
        assert extract_html(c) == extract_html_oracle(c), c


def test_scanner_random_fragment_parity():
    """Seeded random compositions of crawl-ish fragments (excluding the one
    DOCUMENTED divergence: '>' inside a quoted attribute value) must be
    fully identical to the oracle — text, spans, and block counters."""
    import random

    from ocr_suite_ray.functions.html_extract import (
        extract_html,
        extract_html_oracle,
    )

    rng = random.Random(4242)
    frags = [
        '<p>', '</p>', '<div>', '</div>', '<a href=http://x.y/>',
        '<a href="/z">', '</a>', '<noscript>', '</noscript>', '<template>',
        '</template>', '<script>', '</script>', '<style>', 'var x=1;',
        '</style>', '<!-- c -- >', '<!-->', '<br/>', '<br>',
        '</div foo=bar>', '</ div>', '</>', '<li>', '</li>', '<h1>',
        '</h1>', 'some real words here', 'link text', '&amp; more',
        'plain', '<', '>', '<!doctype html>', '<?pi ?>', 'x/',
        '<img src=a/>', '<title>', '</title>', '\n', '  ', '<a href=u >',
        '<!--', '-->', '<p', '</p', 'words with &#65; refs',
    ]
    for _ in range(800):
        doc = ''.join(
            rng.choice(frags) for _ in range(rng.randint(1, 30))
        ).encode()
        assert extract_html(doc) == extract_html_oracle(doc), doc


# --- findall token walk: block-level parity and the one-findall path --------

_SELF_CLOSING_AND_CDATA = [
    '<a href="/z"/>', '<div/>', '<p />', '<script src=a/>', '<script/>',
    '<style x="y"/>', '<noscript/>', '<template/>', '<br />',
    '<script a=b/ >', '<style/x>', '</SCRIPT >', '</script foo>',
    '</scripts>', '<Style>', '</StYlE', '</script', '<scrıpt>', '</scrıpt>',
]


def _oracle_blocks(raw: str) -> list:
    from ocr_suite_ray.functions.html_extract import _BlockParser

    parser = _BlockParser()
    parser.feed(raw)
    parser.close()
    return parser.blocks


def _assert_walk_matches_oracle(raw: str) -> None:
    from ocr_suite_ray.functions.html_extract import (
        _blocks,
        extract_html_oracle,
    )

    assert _blocks(raw) == _oracle_blocks(raw), raw
    payload = raw.encode()
    assert extract_html(payload) == extract_html_oracle(payload), raw


def test_token_walk_self_closing_and_cdata_fragments_match_oracle():
    """Seeded compositions of the crawl-ish fragments plus every
    self-closing and CDATA variant give the oracle's blocks (chunks, link
    and total counters included), not only its output. The quoted values
    here hold no '>', so the documented divergence cannot occur."""
    import random

    rng = random.Random(1111)
    frags = _SELF_CLOSING_AND_CDATA + [
        '<p>', '</p>', '<div>', '</div>', '<a href=http://x.y/>', '</a>',
        '<noscript>', '</noscript>', '<template>', '</template>',
        '<script>', '</script>', '<style>', '</style>', 'var x=1;',
        '<!-- c -- >', '<!-->', '<!--', '-->', '<br/>', '<li>', '</li>',
        '</div foo=bar>', '</ div>', '</>', '<title>', '</title>',
        'some real words here', 'link text', '&amp; more', '<', '>',
        '<!doctype html>', '<?pi ?>', 'x/', '<p', '</p', '\n', 'été',
    ]
    for frag in frags:
        _assert_walk_matches_oracle(frag + "<p>three real words</p>")
    for _ in range(1500):
        _assert_walk_matches_oracle(
            "".join(rng.choice(frags) for _ in range(rng.randint(1, 30)))
        )


def test_token_walk_every_prefix_matches_oracle():
    """Every prefix of a few pages: each EOF-incomplete construct (start
    and end tags, comments, declarations, CDATA, entities cut anywhere)
    gives the oracle's blocks."""
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    crafted = (
        "<!DOCTYPE html><?xml x?><title>T &amp; t</title>"
        "<p>one <a href=http://x.y/>two</a> three &#65;&copy; four</p>"
        "<!-- c -- ><div class=\"d\">words in a div</div foo=bar>"
        "<script src=a/>var s = '</p>';</script><p>after script</p>"
        "<noscript><p>hidden</p></noscript><style>p{}</style>"
        "<ul><li>item one here<br/>x</li></ul></ div>< 5 &lt; tail"
    )
    pages = [crafted]
    t = generate_pages_table(12, seed=5)
    for h in t["html"].to_pylist():
        if h and not h.startswith(b"%PDF") and len(pages) < 4:
            pages.append(decode_bytes(h)[0][:1500])
    for page in pages:
        for k in range(len(page) + 1):
            _assert_walk_matches_oracle(page[:k])


class _CountingToken:
    """The tokenizer pattern with a count of its findall calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.findalls = 0

    def findall(self, *args):
        self.findalls += 1
        return self.pattern.findall(*args)


def test_corpus_takes_the_one_findall_path(monkeypatch):
    """The 800-page corpus gives the oracle's blocks, and each of its HTML
    pages (truncated and malformed ones included) is tokenized by ONE
    findall."""
    from ocr_suite_ray.functions import html_extract as he
    from ocr_suite_ray.sources.synthetic import generate_pages_table

    counting = _CountingToken(he._TOKEN)
    monkeypatch.setattr(he, "_TOKEN", counting)
    t = generate_pages_table(800, seed=99)
    n = 0
    for h in t["html"].to_pylist():
        if h and not h.startswith(b"%PDF"):
            raw = decode_bytes(h)[0]
            counting.findalls = 0
            assert he._blocks(raw) == _oracle_blocks(raw)
            assert counting.findalls == 1
            n += 1
    assert n > 700


def test_script_whose_slash_ends_a_value_is_tokenized_once(monkeypatch):
    """``<script src=a/>`` is not self-closing (its '/' ends the unquoted
    value), so CDATA follows it. A page made of many of them is tokenized
    by one findall, and its cost grows with the page size, not with the
    size times the number of such tags: 8x the page takes far less than
    64x the time."""
    import time

    from ocr_suite_ray.functions import html_extract as he

    unit = "<script src=a/>var x = '<p>no</p>';</script><p>three real words</p>"
    small = unit * 1000
    assert he._blocks(small) == _oracle_blocks(small)

    counting = _CountingToken(he._TOKEN)
    monkeypatch.setattr(he, "_TOKEN", counting)
    he._blocks(unit * 8000)
    assert counting.findalls == 1
    monkeypatch.undo()

    def best_of_5(page: str) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            he._blocks(page)
            times.append(time.perf_counter() - t0)
        return min(times)

    ratio = best_of_5(unit * 8000) / best_of_5(small)
    assert ratio < 24, ratio


def test_self_closed_grammar_equals_stdlib_attribute_walk():
    """``_SELF_CLOSED`` (the attribute walk written into the grammar)
    decides self-closing exactly as html.parser's parse_starttag does with
    its own tagfind_tolerant/attrfind_tolerant loop, on seeded tag texts
    built from the characters that walk branches on."""
    import random

    from html.parser import attrfind_tolerant, tagfind_tolerant

    from ocr_suite_ray.functions.html_extract import _SELF_CLOSED

    def stdlib_self_closing(tag: str) -> bool:
        k = tagfind_tolerant.match(tag).end()
        while k < len(tag) - 1:
            m = attrfind_tolerant.match(tag, k)
            if m is None:
                break
            k = m.end()
        return tag[k:].strip() == "/>"

    rng = random.Random(2222)
    alphabet = list("ab/= '\"\t\n\x00\xa0-") + ["a=b/", "=/", "'/'", " /"]
    for _ in range(20000):
        rest = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        for name in ("a", "script", "Style", 'a"'):
            tag = f"{name}{rest}>"
            if rest[:1] not in ("", *"\t\n\r\f />\x00"):
                continue  # rest would extend the tag name
            assert bool(_SELF_CLOSED.fullmatch(tag)) == stdlib_self_closing(
                tag
            ), repr(tag)


def test_word_check_equals_regex_decision():
    """_assemble's token count keeps or drops a block exactly as the
    _WORD_OK regex would: underscores, punctuation, non-ASCII letters,
    combining marks, NBSP/U+3000 separators, fullwidth digits, and blocks
    right at the MIN_WORDS boundary."""
    from ocr_suite_ray.functions.html_extract import (
        _assemble,
        _has_min_words,
    )
    from ocr_suite_ray.functions.textnorm import nfc

    tokens = [
        "a_b_c", "__x", "ab1", '"abc"', "(ab)", "\u00e9t\u00e9", "na\u00efve",
        "e\u0301te", "\uff11\uff12\uff13", "\uff11\uff12", "ab", "abc",
        "ab-", "x.y.z", "\u1100\u1161\u11a8",
    ]
    texts = []
    for tok in tokens:
        for n_tok in range(1, 5):
            for n_word in range(0, 4):
                texts.append(" ".join([tok] * n_tok + ["word"] * n_word))
    texts += [
        "abc\xa0def\xa0ghi", "abc\u3000def", "abc\u3000def\u3000ghi",
        "one two", "one two three", "one two three four",
    ]
    for text in texts:
        block = ("paragraph", [text], 0, len(text.strip()))
        kept = _assemble([block])["n_blocks_kept"]
        assert kept == _has_min_words(nfc(" ".join(text.split()))), text
